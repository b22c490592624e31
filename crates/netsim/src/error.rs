//! The typed error every fallible construction and configuration call
//! returns.

use crate::addr::Addr;
use crate::link::LinkId;
use crate::node::NodeId;
use crate::packet::FlowId;
use std::fmt;
use xmp_des::SimTime;

/// Typed error for simulation construction and configuration, surfaced by
/// the `try_` variants of the panicking builder methods
/// ([`Sim::try_connect`](crate::Sim::try_connect),
/// [`Sim::try_bind_addr`](crate::Sim::try_bind_addr),
/// [`Sim::try_install_fault_plan`](crate::Sim::try_install_fault_plan),
/// …). Every
/// variant renders an actionable message through `Display`, which the
/// panicking wrappers reuse verbatim — CLI frontends can match on the
/// variant or just print it.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A link was requested with the same node at both ends.
    SelfLoopLink {
        /// The node on both ends.
        node: NodeId,
    },
    /// An address is already bound to another node.
    AddrAlreadyBound {
        /// The address being re-bound.
        addr: Addr,
        /// The node it is already bound to.
        bound_to: NodeId,
    },
    /// A probability parameter outside `[0, 1]`.
    BadProbability {
        /// What the probability configures (e.g. `"drop rate"`).
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A fault-plan timeline entry behind the simulation clock.
    FaultInPast {
        /// The requested fault time.
        at: SimTime,
        /// The clock when the plan was installed.
        now: SimTime,
    },
    /// A fault plan or link setter names a link the sim does not have.
    UnknownLink {
        /// The offending id.
        link: LinkId,
    },
    /// A fault plan names a node the sim does not have.
    UnknownNode {
        /// The offending id.
        node: NodeId,
    },
    /// [`Sim::fluid_open`](crate::Sim::fluid_open) was called without
    /// `SimTuning::hybrid` enabled.
    HybridDisabled,
    /// A fluid subflow's resolved path exceeds the supported hop budget
    /// ([`crate::fluid::MAX_HOPS`]) — usually a routing loop.
    FluidPathTooLong {
        /// The flow whose path walk overran.
        flow: FlowId,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::SelfLoopLink { node } => write!(
                f,
                "self-loop link: both ends are {node:?}; connect two distinct nodes"
            ),
            ConfigError::AddrAlreadyBound { addr, bound_to } => write!(
                f,
                "address {addr} already bound to {bound_to:?}; every address \
                 must map to exactly one node"
            ),
            ConfigError::BadProbability { what, value } => write!(
                f,
                "probability out of range: {what} = {value}; must lie in [0, 1]"
            ),
            ConfigError::FaultInPast { at, now } => write!(
                f,
                "fault event at {at:?} is in the past (clock is at {now:?}); \
                 install fault plans before running past their first event"
            ),
            ConfigError::UnknownLink { link } => write!(
                f,
                "unknown link {link:?}; fault plans and link setters may only \
                 name links returned by connect()"
            ),
            ConfigError::UnknownNode { node } => write!(
                f,
                "unknown node {node:?}; fault plans may only name nodes \
                 returned by add_host()/add_switch()"
            ),
            ConfigError::HybridDisabled => write!(
                f,
                "fluid_open requires SimTuning::hybrid; enable it via \
                 set_tuning before registering fluid flows"
            ),
            ConfigError::FluidPathTooLong { flow } => write!(
                f,
                "fluid subflow {flow:?} walked more than {} hops without \
                 reaching a host; check routing for loops",
                crate::fluid::MAX_HOPS
            ),
        }
    }
}

impl std::error::Error for ConfigError {}
