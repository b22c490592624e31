//! # xmp-workloads — traffic patterns, flow driving and evaluation metrics
//!
//! The layer between the transport stacks and the experiments:
//!
//! * [`scheme`] — the named congestion-control schemes of the paper's
//!   evaluation (`TCP`, `DCTCP`, `LIA-n`, `XMP-n`, `BOS`),
//! * [`driver`] — holds each flow's schedule (start, subflow joins, stop)
//!   and fires it on time, reacts to completion signals, keeps per-flow
//!   records (goodput, RTT, locality class, retransmission counters), and
//!   bins per-subflow rates for the time-series figures,
//! * [`patterns`] — the paper's three fat-tree traffic patterns
//!   (Section 5.2.1): **Permutation**, **Random** (Pareto sizes) and
//!   **Incast** (9-host jobs over TCP with Random background flows),
//! * [`metrics`] — CDFs/percentiles, Jain's fairness index,
//!   link-utilization summaries.

#![forbid(unsafe_code)]

pub mod driver;
pub mod metrics;
pub mod patterns;
pub mod scheme;

pub use driver::{
    Driver, FlowRecord, FlowSim, FlowSpecBuilder, Host, RateBins, RateSampler, SubflowSnapshot,
};
pub use metrics::{jain_index, link_utilization, Cdf};
pub use patterns::{path_spec, IncastPattern, PatternConfig, PermutationPattern, RandomPattern};
pub use scheme::Scheme;
