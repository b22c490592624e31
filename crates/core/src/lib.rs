//! # xmp-core — the eXplicit MultiPath (XMP) congestion control scheme
//!
//! This crate implements the primary contribution of
//! *Explicit Multipath Congestion Control for Data Center Networks*
//! (Cao, Xu, Fu, Dong — CoNEXT 2013):
//!
//! * [`bos`] — **Buffer Occupancy Suppression**: the per-round window
//!   control driven by instantaneous-threshold ECN marking, with the
//!   `NORMAL`/`REDUCED` state machine of the paper's Fig. 2 / Algorithm 1
//!   (reduce by `1/β` at most once per round; 2-bit CE-count echo),
//! * [`trash`] — **Traffic Shifting**: the per-round retuning of each
//!   subflow's additive-increase gain `δ` (Eq. 9) that equalizes congestion
//!   across paths (Congestion Equality Principle),
//! * [`xmp`] — the composition of the two as a
//!   [`CongestionControl`](xmp_transport::CongestionControl) implementation
//!   (BOS is the 1-subflow case),
//! * [`params`] — β/K selection, including the full-utilization bound
//!   `K ≥ BDP/(β−1)` (Eq. 1),
//! * [`analysis`] — the closed-form fluid model: equilibrium marking
//!   probability (Eq. 3), the BOS/XMP utility functions (Eqs. 4, 6, 7), the
//!   subflow equilibrium (Eq. 8) and Proposition 1.
//!
//! ```
//! use xmp_core::Xmp;
//! use xmp_transport::CongestionControl;
//!
//! // The paper's recommended DCN configuration: beta = 4 (with K = 10 set
//! // on the switches).
//! let cc = Xmp::new(4);
//! assert_eq!(cc.name(), "XMP");
//! ```
//!
//! Algorithm 1's pseudocode lines are spec-quoted clause by clause in
//! `specs/xmp-conext13/algorithm1.toml` at the repository root, each tied
//! to a citation test — see `specs/README.md`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod bos;
pub mod kind;
pub mod params;
pub mod trash;
pub mod xmp;

pub use bos::{Bos, EcnState, RoundState};
pub use kind::CcKind;
pub use params::XmpParams;
pub use xmp::Xmp;
