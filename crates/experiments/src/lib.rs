//! # xmp-experiments — regenerating every table and figure of the paper
//!
//! One module per evaluation artifact:
//!
//! | Paper artifact | Module | What it shows |
//! |---|---|---|
//! | Fig. 1 | [`fig1`] | DCTCP convergence/fairness vs constant-factor cut, K ∈ {10, 20} |
//! | Fig. 4 | [`fig4`] | Traffic shifting on the Fig. 3a testbed, β = 4 vs 6 |
//! | Fig. 6 | [`fig6`] | Fairness across flows with 3/2/1/1 subflows, β = 4 vs 6 |
//! | Fig. 7 | [`fig7`] | Rate compensation on the Fig. 5 torus, β ∈ {4, 5, 6} |
//! | Table 1, Figs. 8/10/11 (+ Fig. 9, Table 3 for Incast) | [`suite`] | The fat-tree evaluation |
//! | Table 2 | [`table2`] | XMP coexistence with LIA / TCP / DCTCP |
//! | (extensions) | [`ablation`] | β/K sweep, TraSh-coupling ablation, OLIA |
//! | (extensions) | [`failover`] | goodput through a mid-transfer core-link failure |
//! | Fig. 2 (dynamics) | [`dynamics`] | cwnd/queue/mark time series, exported as JSONL |
//! | (tooling) | [`report`] | summaries rendered back from exported traces |
//! | (scaling) | [`scale`] | partitioned vs serial wall clock on one large cell, digest-checked |
//! | (scaling) | [`hybrid`] | hybrid fluid/packet mode vs packet baseline, per-class tolerance bands |
//!
//! Each module exposes a `Config` (with paper defaults and a `quick()`
//! variant for `--quick` runs), a `run` function, and a `Display`able
//! result that prints the same rows/series the paper reports. The
//! `xmp-experiments` binary drives them from the command line.

#![forbid(unsafe_code)]

pub mod ablation;
pub mod common;
pub mod dynamics;
pub mod failover;
pub mod fig1;
pub mod fig4;
pub mod fig6;
pub mod fig7;
pub mod hybrid;
pub mod report;
pub mod scale;
pub mod suite;
pub mod table2;

pub use common::TextTable;
