//! # xmp-suite — umbrella crate of the XMP reproduction
//!
//! Re-exports the whole workspace under one roof and hosts the runnable
//! examples (`examples/`) and cross-crate integration tests (`tests/`).
//!
//! The layers, bottom-up:
//!
//! * [`des`] — deterministic discrete-event kernel,
//! * [`netsim`] — packet-level network simulator (ECN queues, links,
//!   switches, routing),
//! * [`transport`] — TCP/DCTCP/MPTCP state machines and the
//!   congestion-control plug-in interface,
//! * [`core`] — **XMP** itself: the BOS and TraSh algorithms of the
//!   CoNEXT'13 paper, plus its analytical model,
//! * [`topo`] — fat tree (two-level routing), torus, testbeds,
//! * [`workloads`] — the paper's traffic patterns and metrics,
//! * [`experiments`] — one module per paper table/figure.
//!
//! ## Quickstart
//!
//! ```
//! use xmp_suite::prelude::*;
//!
//! // Two hosts, one ECN-marking bottleneck, one 1 MiB XMP transfer.
//! let mut sim: Sim<Segment> = Sim::new(7);
//! let db = Dumbbell::build(
//!     &mut sim,
//!     1,
//!     Bandwidth::from_gbps(1),
//!     SimDuration::from_micros(400),
//!     QdiscConfig::EcnThreshold { cap: 100, k: 10 },
//!     |_| Box::new(HostStack::new(StackConfig::default())),
//! );
//! let mut driver = Driver::new();
//! let conn = driver.submit(FlowSpecBuilder {
//!     src_node: db.sources[0],
//!     subflows: vec![SubflowSpec {
//!         local_port: PortId(0),
//!         src: Dumbbell::src_addr(0),
//!         dst: Dumbbell::dst_addr(0),
//!     }],
//!     size: 1 << 20,
//!     scheme: Scheme::xmp(1),
//!     start: SimTime::ZERO,
//!     category: None,
//!     tag: 0,
//! });
//! driver.run(&mut sim, SimTime::from_secs(1), |_, _, _| {});
//! let rec = driver.record(conn).unwrap();
//! assert!(rec.completed.is_some());
//! assert!(rec.goodput_bps > 100e6);
//! ```

pub use xmp_core as core;
pub use xmp_des as des;
pub use xmp_experiments as experiments;
pub use xmp_netsim as netsim;
pub use xmp_topo as topo;
pub use xmp_transport as transport;
pub use xmp_workloads as workloads;

/// The most common imports in one place.
pub mod prelude {
    pub use xmp_core::{Bos, Xmp, XmpParams};
    pub use xmp_des::{Bandwidth, ByteSize, SimDuration, SimRng, SimTime};
    pub use xmp_netsim::{
        Addr, Ecn, FaultPlan, LinkParams, NodeId, PortId, Qdisc, QdiscConfig, Sim, SimTuning,
    };
    pub use xmp_topo::{Dumbbell, FatTree, FatTreeConfig, FlowCategory, Torus};
    pub use xmp_transport::{
        CongestionControl, Dctcp, Lia, Reno, Segment, StackConfig, SubflowSpec,
    };
    // `HostStack` in the prelude is the workloads `Host` alias — the stack
    // specialised to the statically dispatched `CcKind` controllers, which
    // is what `Driver`/`Scheme` drive. The generic stack stays available as
    // `xmp_transport::HostStack<C>`.
    pub use xmp_workloads::Host as HostStack;
    pub use xmp_workloads::{
        jain_index, path_spec, Cdf, Driver, FlowSpecBuilder, IncastPattern, PatternConfig,
        PermutationPattern, RandomPattern, RateBins, RateSampler, Scheme,
    };
}
