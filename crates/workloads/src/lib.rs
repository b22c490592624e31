//! # xmp-workloads — traffic patterns, flow driving and evaluation metrics
//!
//! The layer between the transport stacks and the experiments:
//!
//! * [`scheme`] — the named congestion-control schemes of the paper's
//!   evaluation (`TCP`, `DCTCP`, `LIA-n`, `XMP-n`, `BOS`),
//! * [`driver`] — starts flows at their scheduled times, reacts to
//!   completion signals, and keeps per-flow records (goodput, RTT, locality
//!   class, retransmission counters),
//! * [`patterns`] — the paper's three fat-tree traffic patterns
//!   (Section 5.2.1): **Permutation**, **Random** (Pareto sizes) and
//!   **Incast** (9-host jobs over TCP with Random background flows),
//! * [`metrics`] — CDFs/percentiles, Jain's fairness index, rate sampling
//!   for the time-series figures, link-utilization summaries.

#![forbid(unsafe_code)]

pub mod driver;
pub mod metrics;
pub mod patterns;
pub mod scheme;

pub use driver::{
    Driver, FlowRecord, FlowSim, FlowSpecBuilder, Host, RateSampler, SubflowSnapshot,
};
pub use metrics::{jain_index, link_utilization, Cdf};
pub use patterns::{IncastPattern, PatternConfig, PermutationPattern, RandomPattern};
pub use scheme::Scheme;
