//! # xmp-topo — the network topologies of the XMP paper
//!
//! * [`fat_tree`] — the k-ary fat tree of Al-Fares et al. with the paper's
//!   deterministic **Two-Level Routing Lookup** and per-host path-alias
//!   addresses (Section 5.2.1: k = 8, 80 switches, 128 hosts, 1 Gbps links,
//!   per-layer one-way delays 20/30/40 µs),
//! * [`torus`] — the five-bottleneck ring of Fig. 5 used for the
//!   rate-compensation experiment (Fig. 7),
//! * [`testbed`] — the two logical testbed topologies of Fig. 3 (traffic
//!   shifting and fairness; 300 Mbps DummyNet bottlenecks, RTT ≈ 1.8 ms,
//!   K = 15, queue 100),
//! * [`dumbbell`] — N pairs across one bottleneck (Fig. 1 and the
//!   coexistence microbenchmarks).
//!
//! All builders are generic over the packet payload so they depend only on
//! `xmp-netsim`; hosts are created through a caller-supplied agent factory.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dumbbell;
pub mod fat_tree;
pub mod testbed;
pub mod torus;

pub use dumbbell::Dumbbell;
pub use fat_tree::{FatTree, FatTreeConfig, FlowCategory, LinkLayer, RoutingMode, TopoError};
pub use testbed::{FairnessTestbed, ShiftTestbed};
pub use torus::Torus;
