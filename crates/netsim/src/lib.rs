//! # xmp-netsim — packet-level data-center network simulator
//!
//! This crate models the network substrate the XMP paper evaluates on
//! (the paper used NS-3.14 and a DummyNet testbed):
//!
//! * [`packet::Packet`] — packets with ECN codepoints and a generic payload
//!   (the transport crate supplies TCP segments),
//! * [`queue`] — queue disciplines: [`queue::DropTail`], the paper's
//!   instantaneous-threshold ECN marker [`queue::EcnThreshold`], and classic
//!   [`queue::Red`] with EWMA averaging (whose `Wq = 1`, `min = max = K`
//!   configuration — the paper's Section 3 "two configuration tricks" —
//!   degenerates to the threshold marker),
//! * [`link::Link`] — full-duplex links with store-and-forward
//!   serialization, propagation delay and optional fault injection,
//! * [`routing::Router`] — per-switch forwarding: one `route` call per
//!   packet per switch, no table compiled from it,
//! * [`fault::FaultPlan`] — deterministic fault injection: scheduled
//!   link/switch failures plus seeded loss and corruption,
//! * [`network::Sim`] — the event loop tying nodes, links and host
//!   [`agent::Agent`]s together on top of the `xmp-des` kernel.
//!
//! Everything is deterministic: same topology + same seed ⇒ bit-identical
//! results. A run is single-threaded; independent runs parallelize across
//! cells.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod addr;
pub mod agent;
mod error;
mod fabric;
pub mod fault;
pub mod fluid;
pub mod hash;
mod hosts;
mod ledger;
pub mod link;
pub mod network;
pub mod node;
mod observers;
pub mod packet;
pub mod probe;
pub mod queue;
pub mod routing;
pub mod stats;
mod timer;

pub use addr::Addr;
pub use agent::{Agent, Ctx};
pub use fault::{FaultEvent, FaultPlan};
pub use fluid::{FluidCc, FluidFlowStats, FluidId, FluidSpec, FluidState, FluidSubflowSpec};
pub use link::{FaultConfig, LinkId, LinkParams};
pub use network::{AuditReport, ConfigError, InvariantState, NetEvent, Sim, SimTuning};
pub use node::{NodeId, PortId};
pub use packet::{Ecn, FlowId, Packet};
pub use probe::{CcSnapshot, ProbeConfig, ProbeRecord, Probes, SimProfile};
pub use queue::{
    DropTail, EcnThreshold, EnqueueOutcome, Qdisc, QdiscConfig, QdiscKind, Red, RedMode,
};
pub use routing::{mix64, Router, StaticRouter};
