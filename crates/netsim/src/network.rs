//! The simulation: nodes + links + agents + the event loop.
//!
//! [`Sim`] owns everything and processes two event kinds per packet and
//! agent (plus fault, probe and fluid ticks):
//!
//! * `Deliver` — a packet arrived at the far end of a link direction:
//!   switches forward it where their [`Router`](crate::routing) says,
//!   hosts hand it to their [`Agent`]. Offering the packet to the next
//!   direction books its `(start, depart)` transmission window on the spot
//!   and schedules the next `Deliver` directly — one engine event per
//!   packet-hop,
//! * `Timer` — an agent timer fired (with lazy generation-based
//!   cancellation).
//!
//! Drivers (workloads, experiments) interleave `run_until` with direct agent
//! access through [`Sim::with_agent`], and observe out-of-band agent signals
//! through the `run_until` callback.

use crate::addr::Addr;
use crate::agent::{Agent, Ctx, Emit};
use crate::fault::{FaultEvent, FaultPlan};
use crate::fluid::{FluidFlowStats, FluidId, FluidSpec};
use crate::hash::FxHashMap;
use crate::link::{Link, LinkId, LinkParams, Offer};
use crate::node::{Node, NodeId, NodeKind, PortId};
use crate::packet::{FlowId, Packet};
use crate::probe::{ProbeConfig, ProbeRecord, Probes, SimProfile};
use crate::queue::Qdisc;
use crate::routing::Router;
use crate::trace::{TraceBuffer, TraceEvent, TraceKind};
use std::collections::VecDeque;
use std::fmt;
use xmp_des::{ByteSize, Engine, SimDuration, SimRng, SimTime};

#[path = "partition.rs"]
pub mod partition;

/// Payload requirements for simulated packets.
pub trait Payload: Clone + std::fmt::Debug + Send + 'static {}
impl<T: Clone + std::fmt::Debug + Send + 'static> Payload for T {}

/// Simulation mode switches, all off by default.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimTuning {
    /// Graceful no-route mode: instead of panicking when a switch has no
    /// route for a packet (the default, which treats an unroutable
    /// destination as a topology bug), count the packet as a
    /// [`TraceKind::NoRoute`] drop and continue — the right behaviour when
    /// fault injection partitions the network. Off by default.
    pub drop_unroutable: bool,
    /// Hybrid fluid/packet mode: flows registered through
    /// [`Sim::fluid_open`] advance as fluid rate processes (per-subflow
    /// window ODEs from [`crate::fluid`], sampled at RTT granularity as
    /// ordinary wheel events) feeding per-direction analytic backlogs,
    /// while regular packet traffic keeps running on the same links and
    /// sees the fluid-contributed occupancy in its ECN marking and drop
    /// decisions (the fluid backlog extends the link pipeline's booked
    /// queue). Off by default; when off, no fluid state exists, no
    /// coupling term is evaluated, and behaviour is bit-identical to
    /// builds without the subsystem (pinned by
    /// `tests/hybrid_differential.rs`).
    pub hybrid: bool,
}

/// Events processed by the network simulation.
#[derive(Debug)]
pub enum NetEvent<P> {
    /// Retired: the engine books a packet's whole transmission window on
    /// arrival and never schedules this; one that reaches the event loop
    /// is ignored.
    TxDone {
        /// The link.
        link: LinkId,
        /// Direction index (0 = a→b, 1 = b→a).
        dir: u8,
        /// The direction's failure generation at scheduling time.
        gen: u32,
    },
    /// A packet reached the far end of `link` direction `dir`.
    Deliver {
        /// The link.
        link: LinkId,
        /// Direction index.
        dir: u8,
        /// Failure generation at scheduling time; a stale delivery means
        /// the packet was blackholed by a link failure mid-flight.
        gen: u32,
        /// The packet.
        pkt: Packet<P>,
    },
    /// Agent timer expiry (ignored if `gen` is stale).
    Timer {
        /// Owning node.
        node: NodeId,
        /// Agent-chosen token.
        token: u64,
        /// Generation at scheduling time.
        gen: u64,
    },
    /// A scheduled [`FaultEvent`] from the installed
    /// [`FaultPlan`] (index into the timeline).
    Fault {
        /// Index into the sim's installed fault timeline.
        idx: u32,
    },
    /// Periodic probe sampling tick (only ever scheduled by
    /// [`Sim::install_probes`]; re-schedules itself every interval).
    Sample,
    /// Rate-update tick of one fluid flow (`SimTuning::hybrid`; only ever
    /// scheduled by [`Sim::fluid_open`] and by the tick handler itself).
    Fluid {
        /// Registry slot of the flow in the sim's [`crate::fluid::FluidState`].
        id: u32,
    },
}

/// Deadline-bump state for one `(node, token)` agent timer.
///
/// Re-arming a timer does **not** schedule a fresh engine event; it only
/// records the new deadline (`intent`) and lets the single tracked in-flight
/// event re-arm itself when it fires early. This matters enormously for
/// retransmission timers, which transports push out by a full RTO on every
/// ACK: the naive schedule-per-set approach keeps `ack rate × RTO` stale
/// events churning through the far-future overflow heap, while this scheme
/// keeps exactly one pending event per armed timer. A fresh event is
/// scheduled only when none is in flight or the deadline moved *earlier*
/// than the tracked event (the superseded event becomes an orphan, detected
/// by its stale `sched_gen`).
#[derive(Debug, Default, Clone, Copy)]
struct TimerState {
    /// The armed deadline; `None` while disarmed (cancelled or fired).
    intent: Option<SimTime>,
    /// The tracked in-flight engine event: `(fire time, schedule
    /// generation)`. An event carrying any other generation is an orphan
    /// and is ignored on expiry.
    sched: Option<(SimTime, u64)>,
    /// Monotone per-token schedule counter backing orphan detection.
    sched_gen: u64,
}

/// Same-instant tie keys for engine events (see `Engine::schedule_keyed`).
///
/// Events firing at the same instant are ranked by *identity*, not by when
/// they were scheduled: all packet arrivals first (by link, direction),
/// then agent timers (by node), then faults, fluid ticks and probe
/// samples. Identity ranks are what lets a partitioned run, whose shards
/// schedule the same events in a different order, merge back into the
/// serial order exactly.
fn deliver_key(link: LinkId, dir: u8) -> u64 {
    ((link.0 as u64) << 1) | dir as u64
}
fn timer_key(node: NodeId) -> u64 {
    (1 << 62) | node.0 as u64
}
/// Faults rank after every packet/timer event at the same instant: traffic
/// scheduled "at t" still experiences the pre-fault topology at t.
fn fault_key(idx: u32) -> u64 {
    (3 << 62) | idx as u64
}
/// Fluid ticks rank after every fault at the same instant (bit 32
/// disambiguates from the u32 fault-index namespace) and before probe
/// sampling: a tick at `t` sees the post-fault topology, and a probe
/// sample at `t` sees the post-tick fluid rates — mirroring how packet
/// traffic relates to faults and samples.
fn fluid_key(id: u32) -> u64 {
    (3 << 62) | (1 << 32) | id as u64
}
/// Probe sampling ranks dead last at an instant: a tick at `t` observes the
/// state *after* every packet, timer and fault effect at `t` (`u64::MAX`
/// exceeds every `fault_key`, whose index is a u32).
const SAMPLE_KEY: u64 = u64::MAX;

/// Identity rank of the event `ev` would be scheduled under — the same key
/// `schedule_keyed` orders it by at an instant. Partitioned shards stamp
/// probe records with the rank of the event being processed so the merge
/// can reproduce the serial record order exactly (see
/// [`partition::PartitionedSim`]).
fn event_rank<P>(ev: &NetEvent<P>) -> u64 {
    match ev {
        // `TxDone` is never scheduled; it has no rank of its own.
        NetEvent::Deliver { link, dir, .. } | NetEvent::TxDone { link, dir, .. } => {
            deliver_key(*link, *dir)
        }
        NetEvent::Timer { node, .. } => timer_key(*node),
        NetEvent::Fault { idx } => fault_key(*idx),
        NetEvent::Sample => SAMPLE_KEY,
        NetEvent::Fluid { id } => fluid_key(*id),
    }
}

/// Per-shard bookkeeping present only while this `Sim` is one partition of
/// a [`partition::PartitionedSim`]. `None` in serial runs: the hot path
/// pays exactly one branch per scheduled delivery.
pub(crate) struct ShardState<P> {
    /// Per link, bit `dir` set means direction `dir`'s receiving node lives
    /// on another shard: its `Deliver` goes to the outbox, not the engine.
    pub(crate) remote_rx: Vec<u8>,
    /// Cross-partition deliveries produced this round, in emission order:
    /// `(arrival, link, dir, fail_gen, pkt)`.
    pub(crate) outbox: Vec<(SimTime, LinkId, u8, u32, Packet<P>)>,
    /// Identity rank of the event (or driver operation) currently being
    /// processed; stamped on probe records for the deterministic merge.
    pub(crate) rank: (u64, u64),
    /// Per probe-watch index: whether this shard owns the transmit side
    /// (records `Queue`/`Mark`) and the receive side (records `Util`).
    pub(crate) watch_roles: Vec<(bool, bool)>,
}

/// The whole simulation.
///
/// Generic over the agent type `A` running on hosts. The default,
/// `Box<dyn Agent<P>>`, accepts heterogeneous agents through one virtual
/// call per delivery — the historical behaviour. Fixing `A` to a concrete
/// type (the suite runner uses the in-tree transport host) devirtualizes
/// every packet delivery and timer callback; the blanket
/// `impl Agent<P> for Box<A>` keeps boxed call sites working unchanged.
pub struct Sim<P: Payload, A: Agent<P> = Box<dyn Agent<P>>> {
    engine: Engine<NetEvent<P>>,
    nodes: Vec<Node>,
    links: Vec<Link<P>>,
    agents: Vec<Option<A>>,
    /// Address book as a sorted `(addr-as-u32, node)` table: binary-search
    /// lookups, no hashing, deterministic iteration. Bindings happen only
    /// during topology construction.
    addr_book: Vec<(u32, NodeId)>,
    /// Per-node timer state, indexed densely by `NodeId`. Tokens are
    /// sparse agent-chosen u64s (connection × subflow × kind packed bits),
    /// so each node keeps a small fast-hash map rather than a dense slab.
    timers: Vec<FxHashMap<u64, TimerState>>,
    signals: VecDeque<(NodeId, u64)>,
    /// Recycled agent emission buffers: every packet delivery and timer
    /// expiry needs a scratch `Vec<Emit>`, and allocating one per event was
    /// the hot loop's last per-packet heap allocation.
    emit_pool: Vec<Vec<Emit<P>>>,
    rng: SimRng,
    trace: Option<TraceBuffer>,
    /// Installed time-series probes (`None` = subsystem fully disabled).
    probes: Option<Probes>,
    /// Always-on engine-loop profiling counters (pure observation).
    profile: SimProfile,
    tuning: SimTuning,
    /// Installed fault timeline; engine `Fault` events index into it.
    fault_timeline: Vec<FaultEvent>,
    /// Directions with booked departures the next run-window sweep has to
    /// retire ([`Sim::retire_departures`]): filled at enqueue, pruned as
    /// the sweep finds them drained, so the sweep never walks idle links.
    busy_dirs: Vec<(LinkId, u8)>,
    /// Packets dropped for lack of a route (`drop_unroutable` mode).
    unroutable: u64,
    /// Conservation audit: packets injected by host agents (`Emit::Send`).
    audit_injected: u64,
    /// Conservation audit: packets handed to a destination host agent.
    audit_delivered: u64,
    /// Conservation audit: packets dropped anywhere, for any counted
    /// reason (qdisc, fault, corruption, blackhole, no-route).
    audit_dropped: u64,
    /// Fluid flow registry (`SimTuning::hybrid`); `None` until the first
    /// [`Sim::fluid_open`], so packet-only runs never touch it.
    fluid: Option<Box<crate::fluid::FluidState>>,
    /// Set iff this sim is one shard of a [`partition::PartitionedSim`].
    part: Option<Box<ShardState<P>>>,
}

/// Typed error for simulation construction and configuration, surfaced by
/// the `try_` variants of the panicking builder methods ([`Sim::try_connect`],
/// [`Sim::try_bind_addr`], [`Sim::try_install_fault_plan`],
/// [`partition::PartitionedSim::try_new`], …). Every variant renders
/// an actionable message through `Display`, which the panicking wrappers
/// reuse verbatim — CLI frontends can match on the variant or just print it.
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
    /// Partitioning was requested on a sim with packet tracing enabled
    /// (the trace ring buffer is inherently serial).
    TracingUnsupported,
    /// Partitioning was requested on a sim that has already run.
    NotPristine {
        /// The non-zero clock found.
        now: SimTime,
    },
    /// A partition plan's assignment length disagrees with the node count.
    PlanLengthMismatch {
        /// Nodes named by the plan.
        plan: usize,
        /// Nodes in the sim.
        nodes: usize,
    },
    /// Undrained agent signals at partition time.
    UndrainedSignals,
    /// The sim is already one shard of a partitioned run.
    AlreadyPartitioned,
    /// A link crossing two shards has zero propagation delay, leaving the
    /// conservative synchronization protocol no lookahead window.
    ZeroDelayCutLink {
        /// The offending link.
        link: LinkId,
        /// Its human-readable label.
        label: String,
    },
    /// [`Sim::fluid_open`] was called without `SimTuning::hybrid` enabled.
    HybridDisabled,
    /// Hybrid mode and partitioning were combined (fluid flows span pods,
    /// so their rate updates cannot be sharded under the conservative
    /// protocol).
    HybridUnsupported,
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
            ConfigError::TracingUnsupported => write!(
                f,
                "packet tracing is unsupported in partitioned runs; drop \
                 enable_trace() or run serially"
            ),
            ConfigError::NotPristine { now } => write!(
                f,
                "partitioning requires a pristine sim (clock at zero, found \
                 {now:?}); build topology and partition before running"
            ),
            ConfigError::PlanLengthMismatch { plan, nodes } => write!(
                f,
                "partition plan length does not match node count: plan names \
                 {plan} nodes, sim has {nodes}"
            ),
            ConfigError::UndrainedSignals => write!(
                f,
                "undrained signals at partition time; drain driver signals \
                 before sharding"
            ),
            ConfigError::AlreadyPartitioned => {
                write!(f, "sim is already a shard of a partitioned run")
            }
            ConfigError::ZeroDelayCutLink { link, label } => write!(
                f,
                "cut link {label} ({link:?}) has zero propagation delay (no \
                 lookahead); give cross-shard links a positive delay or keep \
                 both ends on one shard"
            ),
            ConfigError::HybridDisabled => write!(
                f,
                "fluid_open requires SimTuning::hybrid; enable it via \
                 set_tuning before registering fluid flows"
            ),
            ConfigError::HybridUnsupported => write!(
                f,
                "hybrid fluid/packet mode is unsupported in partitioned \
                 runs; run hybrid sims serially"
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

/// Rolling observation state for [`Sim::audit_invariants`].
///
/// Some invariants are *trajectories*, not snapshots: a link direction's
/// `busy_until` must never move backwards **within one failure generation**
/// (link teardown legitimately resets it). The state carries the last
/// observed `(fail_gen, busy_until)` watermark per direction between audit
/// calls; a fresh default state accepts whatever it first sees.
#[derive(Debug, Default)]
pub struct InvariantState {
    /// Per link, per direction: last observed `(fail_gen, busy_until)`.
    marks: Vec<[(u32, SimTime); 2]>,
}

/// Packet-conservation snapshot from [`Sim::audit_conservation`]: every
/// injected packet must be delivered, dropped with a counted reason, or
/// still sitting in the network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AuditReport {
    /// Packets injected by host agents.
    pub injected: u64,
    /// Packets handed to destination host agents.
    pub delivered: u64,
    /// Packets dropped, all reasons combined.
    pub dropped: u64,
    /// Packets accepted by some link direction and not yet delivered.
    pub in_network: u64,
}

impl<P: Payload, A: Agent<P>> Sim<P, A> {
    /// Fresh, empty simulation seeded with `seed` (drives fault injection
    /// and any other network-side randomness).
    pub fn new(seed: u64) -> Self {
        Sim {
            engine: Engine::new(),
            nodes: Vec::new(),
            links: Vec::new(),
            agents: Vec::new(),
            addr_book: Vec::new(),
            timers: Vec::new(),
            signals: VecDeque::new(),
            emit_pool: Vec::new(),
            rng: SimRng::new(seed),
            trace: None,
            probes: None,
            profile: SimProfile::default(),
            tuning: SimTuning::default(),
            fault_timeline: Vec::new(),
            busy_dirs: Vec::new(),
            unroutable: 0,
            audit_injected: 0,
            audit_delivered: 0,
            audit_dropped: 0,
            fluid: None,
            part: None,
        }
    }

    /// Select the simulation mode (call before running).
    pub fn set_tuning(&mut self, tuning: SimTuning) {
        self.tuning = tuning;
    }

    /// Current mode switches.
    pub fn tuning(&self) -> SimTuning {
        self.tuning
    }

    fn take_emit_buf(&mut self) -> Vec<Emit<P>> {
        match self.emit_pool.pop() {
            Some(buf) => {
                self.profile.pool_hits += 1;
                buf
            }
            None => {
                self.profile.pool_misses += 1;
                Vec::new()
            }
        }
    }

    /// Turn on packet tracing with a ring buffer of `capacity` events
    /// (off by default; see [`crate::trace`]).
    pub fn enable_trace(&mut self, capacity: usize) -> &mut TraceBuffer {
        self.trace = Some(TraceBuffer::new(capacity));
        self.trace.as_mut().expect("just set")
    }

    /// The trace buffer, if tracing is enabled.
    pub fn trace(&self) -> Option<&TraceBuffer> {
        self.trace.as_ref()
    }

    /// Mutable trace access (to adjust filters mid-run).
    pub fn trace_mut(&mut self) -> Option<&mut TraceBuffer> {
        self.trace.as_mut()
    }

    /// Install time-series probes and schedule the first sampling tick.
    ///
    /// Follows the [`FaultPlan`] discipline: a sim that never calls this
    /// schedules no `Sample` event, touches no RNG stream, and stays
    /// bit-identical to a build without the subsystem. With probes
    /// installed, sampling is ranked after all same-instant traffic
    /// (`SAMPLE_KEY`) and only *observes* — flow outcomes are unchanged.
    ///
    /// # Panics
    /// Panics if probes are already installed.
    pub fn install_probes(&mut self, cfg: ProbeConfig) {
        assert!(self.probes.is_none(), "probes already installed");
        let p = Probes::new(cfg);
        let first = self.engine.now() + p.interval;
        if first <= p.until {
            self.engine
                .schedule_keyed(first, SAMPLE_KEY, NetEvent::Sample);
        }
        self.probes = Some(p);
    }

    /// The recorded probe series, if probes are installed.
    pub fn probes(&self) -> Option<&Probes> {
        self.probes.as_ref()
    }

    /// Mutable probe access (drivers push their own records, e.g.
    /// per-subflow cwnd snapshots).
    pub fn probes_mut(&mut self) -> Option<&mut Probes> {
        self.probes.as_mut()
    }

    /// Remove and return the probes (ends sampling: a still-pending tick
    /// finds no probes and does not re-schedule).
    pub fn take_probes(&mut self) -> Option<Probes> {
        self.probes.take()
    }

    /// Engine-loop profiling counters (events per kind, pool hit rate,
    /// wall time per phase). Always on; never part of simulated state.
    pub fn profile(&self) -> &SimProfile {
        &self.profile
    }

    /// Instantaneous backlog of a link direction in packets (queued +
    /// serializing) at a driver-visible instant (run boundaries and probe
    /// ticks), after every departure at or before it. A downed direction
    /// reads zero.
    pub fn queue_depth(&mut self, link: LinkId, dir: u8) -> usize {
        let now = self.engine.now();
        let hybrid = self.tuning.hybrid;
        let l = &mut self.links[link.0 as usize];
        let cap = l.bandwidth.as_bps() as f64 / 8.0;
        let d = l.dir_mut(dir);
        if d.down {
            return 0;
        }
        // `run_until`/`advance_to` already retired departures up to the
        // boundary; a probe tick at `t` ranks last at `t`, so it retires
        // `depart <= t` itself.
        d.retire_through(now);
        let mut depth = d.pending.len();
        if hybrid {
            // Fluid occupancy, in reference packets, is part of the
            // observable backlog — same view the qdisc classifies with.
            let max_b = d.queue.capacity() as f64 * crate::fluid::REF_PKT_BYTES;
            d.fluid_advance(now, cap, max_b);
            depth += (d.fluid_backlog / crate::fluid::REF_PKT_BYTES).round() as usize;
        }
        depth
    }

    /// One probe sampling tick: record watched queue depths and delivery
    /// counters, then re-arm unless past the configured end.
    fn on_sample(&mut self) {
        let Some(mut p) = self.probes.take() else {
            return; // probes were taken mid-run; stop sampling
        };
        let now = self.engine.now();
        for i in 0..p.watch.len() {
            let (link, dir) = p.watch[i];
            // In a partitioned shard, the transmit owner records the queue
            // series (depth and enqueue/mark/drop counters live tx-side)
            // and the receive owner records the utilization series
            // (delivery counters live rx-side). Serial records both.
            let (tx_role, rx_role) = match self.part.as_ref() {
                Some(ps) => ps.watch_roles[i],
                None => (true, true),
            };
            if tx_role {
                let depth = self.queue_depth(link, dir) as u64;
                let stats = &self.links[link.0 as usize].dir(dir).stats;
                p.push_ranked(
                    ProbeRecord::Queue {
                        at: now,
                        link: link.0,
                        dir,
                        depth,
                        enqueued: stats.enqueued,
                        marked: stats.marked,
                        dropped: stats.dropped,
                    },
                    (SAMPLE_KEY, (i as u64) * 2),
                );
            }
            if rx_role {
                // Hybrid: fluid bytes served by this direction count toward
                // utilization (guarded, so hybrid-off exports stay
                // bit-identical).
                let fluid_bytes = if self.tuning.hybrid {
                    let l = &mut self.links[link.0 as usize];
                    let cap = l.bandwidth.as_bps() as f64 / 8.0;
                    let d = l.dir_mut(dir);
                    let max_b = d.queue.capacity() as f64 * crate::fluid::REF_PKT_BYTES;
                    d.fluid_advance(now, cap, max_b);
                    d.fluid_bytes_out as u64
                } else {
                    0
                };
                let stats = &self.links[link.0 as usize].dir(dir).stats;
                p.push_ranked(
                    ProbeRecord::Util {
                        at: now,
                        link: link.0,
                        dir,
                        delivered_bytes: stats.delivered_bytes.as_bytes() + fluid_bytes,
                    },
                    (SAMPLE_KEY, (i as u64) * 2 + 1),
                );
            }
        }
        let next = now + p.interval;
        if next <= p.until {
            self.engine
                .schedule_keyed(next, SAMPLE_KEY, NetEvent::Sample);
        }
        self.probes = Some(p);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Total events handled so far.
    pub fn events_processed(&self) -> u64 {
        self.engine.processed()
    }

    /// Total events ever scheduled on the engine (profiling; includes
    /// stale-cancelled timers and still-pending events).
    pub fn events_scheduled(&self) -> u64 {
        self.engine.scheduled()
    }

    /// Add an end host running `agent`.
    pub fn add_host(&mut self, label: impl Into<String>, agent: A) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::new(NodeKind::Host, label.into()));
        self.agents.push(Some(agent));
        self.timers.push(FxHashMap::default());
        id
    }

    /// Add a switch forwarding with `router`.
    pub fn add_switch(&mut self, label: impl Into<String>, router: Box<dyn Router>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes
            .push(Node::new(NodeKind::Switch(router), label.into()));
        self.agents.push(None);
        self.timers.push(FxHashMap::default());
        id
    }

    /// Replace a switch's router (topology builders wire routes after
    /// connecting, once port numbers are known).
    pub fn set_router(&mut self, node: NodeId, router: Box<dyn Router>) {
        match &mut self.nodes[node.0 as usize].kind {
            NodeKind::Switch(r) => *r = router,
            NodeKind::Host => panic!("set_router on a host"),
        }
    }

    /// Make room for `additional` more links, for builders that know their
    /// link count: a line-aligned [`Link`] table cannot grow in place (an
    /// over-aligned reallocation is a fresh block and a copy), and doubling
    /// leaves up to half of it unused.
    pub fn reserve_links(&mut self, additional: usize) {
        self.links.reserve_exact(additional);
    }

    /// Connect `a` and `b` with a full-duplex link; returns its id.
    /// The new port indices are `a`'s and `b`'s next free ports.
    ///
    /// # Panics
    /// Panics on a self-loop; [`Sim::try_connect`] reports it instead.
    pub fn connect(
        &mut self,
        a: NodeId,
        b: NodeId,
        params: &LinkParams,
        label: impl Into<String>,
    ) -> LinkId {
        self.try_connect(a, b, params, label)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Non-panicking [`Sim::connect`]: reports a self-loop as a typed
    /// [`ConfigError`] instead of aborting.
    pub fn try_connect(
        &mut self,
        a: NodeId,
        b: NodeId,
        params: &LinkParams,
        label: impl Into<String>,
    ) -> Result<LinkId, ConfigError> {
        if a == b {
            return Err(ConfigError::SelfLoopLink { node: a });
        }
        let id = LinkId(self.links.len() as u32);
        let pa = PortId(self.nodes[a.0 as usize].ports.len() as u16);
        let pb = PortId(self.nodes[b.0 as usize].ports.len() as u16);
        let link = Link::new(params, (a, pa), (b, pb), &self.rng, id.0, label.into());
        self.nodes[a.0 as usize].ports.push((id, 0));
        self.nodes[b.0 as usize].ports.push((id, 1));
        self.links.push(link);
        Ok(id)
    }

    /// Bind an address to a node (a node may hold many addresses; the
    /// fat-tree path aliases rely on this).
    ///
    /// # Panics
    /// Panics if the address is already bound; [`Sim::try_bind_addr`]
    /// reports it instead.
    pub fn bind_addr(&mut self, addr: crate::addr::Addr, node: NodeId) {
        self.try_bind_addr(addr, node)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Non-panicking [`Sim::bind_addr`]: reports a duplicate binding as a
    /// typed [`ConfigError`] instead of aborting.
    pub fn try_bind_addr(
        &mut self,
        addr: crate::addr::Addr,
        node: NodeId,
    ) -> Result<(), ConfigError> {
        let key = u32::from_be_bytes(addr.0);
        match self.addr_book.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => Err(ConfigError::AddrAlreadyBound {
                addr,
                bound_to: self.addr_book[i].1,
            }),
            Err(i) => {
                self.addr_book.insert(i, (key, node));
                Ok(())
            }
        }
    }

    /// Iterate all bound `(address, node)` pairs in address order.
    pub fn addresses(&self) -> impl Iterator<Item = (Addr, NodeId)> + '_ {
        self.addr_book
            .iter()
            .map(|&(k, n)| (Addr(k.to_be_bytes()), n))
    }

    /// Node owning `addr`, if bound.
    pub fn lookup_addr(&self, addr: crate::addr::Addr) -> Option<NodeId> {
        let key = u32::from_be_bytes(addr.0);
        self.addr_book
            .binary_search_by_key(&key, |&(k, _)| k)
            .ok()
            .map(|i| self.addr_book[i].1)
    }

    /// Immutable node access.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Immutable link access.
    pub fn link(&self, id: LinkId) -> &Link<P> {
        &self.links[id.0 as usize]
    }

    /// Iterate all links with their ids.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, &Link<P>)> {
        self.links
            .iter()
            .enumerate()
            .map(|(i, l)| (LinkId(i as u32), l))
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Change a link's fault-injection drop probability at runtime
    /// (both directions). `p = 1.0` blackholes the link — the simulator's
    /// model of a link failure (the torus experiment closes L3 mid-run).
    pub fn set_link_drop_prob(&mut self, link: LinkId, p: f64) {
        self.try_set_link_drop_prob(link, p)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Non-panicking [`Sim::set_link_drop_prob`]: reports an out-of-range
    /// probability as a typed [`ConfigError`] instead of aborting.
    pub fn try_set_link_drop_prob(&mut self, link: LinkId, p: f64) -> Result<(), ConfigError> {
        if !(0.0..=1.0).contains(&p) {
            return Err(ConfigError::BadProbability {
                what: "link drop rate",
                value: p,
            });
        }
        for d in &mut self.links[link.0 as usize].dirs {
            d.fault.drop_prob = p;
        }
        Ok(())
    }

    /// Install a [`FaultPlan`]: apply its per-link loss/corruption rates
    /// and schedule its timeline on the engine. May be called before or
    /// during a run (events must not be in the past); installing several
    /// plans accumulates. An empty plan changes nothing — no RNG stream is
    /// touched and no event is scheduled, so results stay bit-identical to
    /// a run without fault machinery.
    ///
    /// # Panics
    /// Panics on out-of-range probabilities or past-dated timeline events;
    /// [`Sim::try_install_fault_plan`] reports them instead.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) {
        self.try_install_fault_plan(plan)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Non-panicking [`Sim::install_fault_plan`]: validates the whole plan
    /// (probability ranges, no past-dated events) **before** applying any
    /// of it, so a rejected plan leaves the sim untouched.
    pub fn try_install_fault_plan(&mut self, plan: &FaultPlan) -> Result<(), ConfigError> {
        let now = self.engine.now();
        for &(_, p) in &plan.loss {
            if !(0.0..=1.0).contains(&p) {
                return Err(ConfigError::BadProbability {
                    what: "fault-plan drop rate",
                    value: p,
                });
            }
        }
        for &(_, p) in &plan.corruption {
            if !(0.0..=1.0).contains(&p) {
                return Err(ConfigError::BadProbability {
                    what: "fault-plan corruption rate",
                    value: p,
                });
            }
        }
        if let Some(&(at, _)) = plan.timeline.iter().find(|&&(at, _)| at < now) {
            return Err(ConfigError::FaultInPast { at, now });
        }
        for &(link, p) in &plan.loss {
            for d in &mut self.links[link.0 as usize].dirs {
                d.fault.drop_prob = p;
            }
        }
        for &(link, p) in &plan.corruption {
            for d in &mut self.links[link.0 as usize].dirs {
                d.fault.corrupt_prob = p;
            }
        }
        for &(at, ev) in &plan.timeline {
            let idx = u32::try_from(self.fault_timeline.len()).expect("fault timeline overflow");
            self.fault_timeline.push(ev);
            self.engine
                .schedule_keyed(at, fault_key(idx), NetEvent::Fault { idx });
        }
        Ok(())
    }

    /// Fail both directions of `link` immediately.
    ///
    /// Every packet the link had accepted — queued, serializing or
    /// propagating — already has its `Deliver` scheduled; bumping the
    /// direction's failure generation makes those events stale, and each
    /// is counted as
    /// [`DirStats::blackholed`](crate::stats::DirStats::blackholed) when it
    /// fires. While down, everything offered to the link is blackholed
    /// (counted, no RNG consumed). Routers never see link state, so the
    /// switches at both ends keep choosing the dead port — a fabric whose
    /// routing hasn't reconverged; multipath transports are expected to
    /// shift load to surviving subflows instead (the failover experiment).
    pub fn take_link_down(&mut self, link: LinkId) {
        let now = self.engine.now();
        for d in &mut self.links[link.0 as usize].dirs {
            if d.down {
                continue;
            }
            d.down = true;
            d.fail_gen = d.fail_gen.wrapping_add(1);
            // Record the departures that genuinely happened, then drop the
            // booked windows so the backlog reads zero.
            d.retire_before(now);
            d.pending.clear();
            d.busy_until = SimTime::ZERO;
            d.stats.observe_backlog(now, 0);
        }
    }

    /// Repair both directions of `link`. In-flight state was already
    /// purged at failure.
    pub fn bring_link_up(&mut self, link: LinkId) {
        for d in &mut self.links[link.0 as usize].dirs {
            d.down = false;
        }
    }

    /// Packets dropped for lack of a route (only under
    /// [`SimTuning::drop_unroutable`]).
    pub fn unroutable_drops(&self) -> u64 {
        self.unroutable
    }

    /// Check packet conservation: every packet injected by a host agent
    /// was delivered to a host, dropped with a counted reason, or is still
    /// sitting in some link direction. Panics (in all build profiles) if
    /// the books don't balance; returns the totals.
    pub fn audit_conservation(&self) -> AuditReport {
        self.try_audit_conservation()
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Non-panicking [`Sim::audit_conservation`]: returns the imbalance
    /// description instead of aborting, so a chaos harness can record the
    /// violation and shrink the scenario that produced it.
    pub fn try_audit_conservation(&self) -> Result<AuditReport, String> {
        let mut in_network = 0i64;
        for l in &self.links {
            for d in &l.dirs {
                if d.in_network < 0 {
                    return Err(format!(
                        "negative in-network count {} on {}",
                        d.in_network, l.label
                    ));
                }
                in_network += d.in_network;
            }
        }
        let report = AuditReport {
            injected: self.audit_injected,
            delivered: self.audit_delivered,
            dropped: self.audit_dropped,
            in_network: in_network as u64,
        };
        if report.injected != report.delivered + report.dropped + report.in_network {
            return Err(format!("packet conservation violated: {report:?}"));
        }
        Ok(report)
    }

    /// Mid-run invariant audit: check every structural invariant that must
    /// hold at any driver-visible instant (a run-window boundary or probe
    /// tick), appending one description per violation to `failures`.
    ///
    /// Checked, in order:
    /// 1. **Packet conservation** ([`Sim::try_audit_conservation`]) — every
    ///    injected packet is delivered, counted dropped, or in the network.
    /// 2. **Event storage integrity** — the timing-wheel slab/freelist
    ///    bookkeeping reconciles and no pending event predates the clock
    ///    (`Engine::check_integrity`).
    /// 3. **`busy_until` monotonicity** — a link direction's serialization
    ///    horizon never moves backwards within one failure generation
    ///    (teardown legitimately resets it; the watermark in `state` is
    ///    keyed by `fail_gen`).
    /// 4. **Timer-state consistency** — an armed timer (`intent` set)
    ///    always has a tracked in-flight event no later than its intent,
    ///    the tracked event carries the current schedule generation
    ///    (orphan detection is exact-match), and no tracked event is in
    ///    the past.
    ///
    /// Returns the number of failures appended. Costs O(links + timers +
    /// wheel slots); call at audit granularity, not per event. Pass the
    /// same [`InvariantState`] across calls so trajectory invariants (3)
    /// see the history.
    pub fn audit_invariants(
        &self,
        state: &mut InvariantState,
        failures: &mut Vec<String>,
    ) -> usize {
        let start = failures.len();
        let now = self.engine.now();
        if let Err(e) = self.try_audit_conservation() {
            failures.push(e);
        }
        if let Err(e) = self.engine.check_integrity() {
            failures.push(format!("event queue integrity: {e}"));
        }
        if state.marks.len() < self.links.len() {
            state
                .marks
                .resize(self.links.len(), [(0, SimTime::ZERO); 2]);
        }
        for (i, l) in self.links.iter().enumerate() {
            for (dir, d) in l.dirs.iter().enumerate() {
                let (seen_gen, seen_busy) = state.marks[i][dir];
                if d.fail_gen == seen_gen && d.busy_until < seen_busy {
                    failures.push(format!(
                        "busy_until went backwards on {}/{dir}: {:?} after {:?} \
                         (fail_gen {})",
                        l.label, d.busy_until, seen_busy, d.fail_gen
                    ));
                }
                state.marks[i][dir] = (d.fail_gen, d.busy_until);
            }
        }
        for (node, table) in self.timers.iter().enumerate() {
            for (&token, st) in table.iter() {
                if let Some(intent) = st.intent {
                    match st.sched {
                        None => failures.push(format!(
                            "timer node {node} token {token:#x}: armed (intent \
                             {intent:?}) but no in-flight event is tracked"
                        )),
                        Some((at, _)) if at > intent => failures.push(format!(
                            "timer node {node} token {token:#x}: tracked event at \
                             {at:?} fires after the armed intent {intent:?}"
                        )),
                        Some(_) => {}
                    }
                }
                if let Some((at, gen)) = st.sched {
                    if gen != st.sched_gen {
                        failures.push(format!(
                            "timer node {node} token {token:#x}: tracked event \
                             generation {gen} is not the latest ({}) — the live \
                             event would be treated as an orphan",
                            st.sched_gen
                        ));
                    }
                    if at < now {
                        failures.push(format!(
                            "timer node {node} token {token:#x}: tracked event at \
                             {at:?} is in the past (clock {now:?})"
                        ));
                    }
                }
            }
        }
        failures.len() - start
    }

    /// Test-only chaos hook: schedule a spurious timer event for `node` at
    /// `at`. The event references a token that was never armed, so the
    /// timer layer ignores it — but the engine still counts it in
    /// [`SimProfile::timer`], which deterministically perturbs any digest
    /// built over the profile. The `simcheck` harness injects this into
    /// exactly one leg of an oracle pair to prove the divergence→shrink→
    /// replay pipeline end to end.
    #[doc(hidden)]
    pub fn debug_inject_spurious_timer(&mut self, node: NodeId, at: SimTime) {
        self.engine.schedule_keyed(
            at,
            timer_key(node),
            NetEvent::Timer {
                node,
                token: u64::MAX,
                gen: u64::MAX,
            },
        );
    }

    /// Test-only hook: force a `(node, token)` timer's schedule-generation
    /// counter (keeping any tracked event consistent), so tests can place
    /// the counter just below `u64::MAX` and exercise orphan detection
    /// across the wraparound.
    #[doc(hidden)]
    pub fn debug_set_timer_gen(&mut self, node: NodeId, token: u64, gen: u64) {
        let st = self.timers[node.0 as usize].entry(token).or_default();
        st.sched_gen = gen;
        if let Some((_, g)) = &mut st.sched {
            *g = gen;
        }
    }

    /// Run the concrete agent on `node` with driver code.
    ///
    /// The downcast target `T` is independent of the sim's agent parameter
    /// `A`: with boxed agents `T` names the concrete type inside the box
    /// (via the blanket `Box<A>` impl's delegating `as_any_mut`), with
    /// static dispatch it is usually `A` itself.
    ///
    /// # Panics
    /// Panics if `node` is not a host or its agent is not a `T`.
    pub fn with_agent<T: Agent<P>, R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut T, &mut Ctx<'_, P>) -> R,
    ) -> R {
        let mut emits = self.take_emit_buf();
        let now = self.engine.now();
        let agent = self.agents[node.0 as usize]
            .as_mut()
            .unwrap_or_else(|| panic!("{node:?} has no agent (it is a switch)"));
        let a = agent
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("agent type mismatch");
        let r = f(a, &mut Ctx::new(now, &mut emits));
        self.process_emits(node, emits);
        r
    }

    /// Process all events up to and including `deadline`. After each event,
    /// pending agent signals are handed to `on_signal` (which may itself use
    /// [`Sim::with_agent`] and generate more work).
    ///
    /// One queue access per event: `pop_at_or_before` replaces the old
    /// `peek_time` + `pop` pair, which paid the scheduler's find-minimum
    /// cost twice on every packet. The loop is also a two-stage software
    /// pipeline over the queue's own lookahead (`prefetch_ahead`, below).
    pub fn run_until(
        &mut self,
        deadline: SimTime,
        mut on_signal: impl FnMut(&mut Self, NodeId, u64),
    ) {
        let wall = std::time::Instant::now();
        let alloc_start = crate::probe::read_alloc_probe();
        while let Some((_, ev)) = self.engine.pop_at_or_before(deadline) {
            self.prefetch_ahead();
            self.handle(ev);
            while let Some((node, code)) = self.signals.pop_front() {
                on_signal(self, node, code);
            }
        }
        // The window is closed: whatever the driver does at `deadline`
        // comes after every departure at or before it.
        self.retire_departures(deadline);
        if let (Some(start), Some(end)) = (alloc_start, crate::probe::read_alloc_probe()) {
            self.profile.allocs += end.saturating_sub(start);
        }
        if let Some(live) = crate::probe::read_alloc_bytes_probe() {
            self.profile.alloc_high_water_bytes = self.profile.alloc_high_water_bytes.max(live);
        }
        self.profile.run_wall_ns += wall.elapsed().as_nanos() as u64;
    }

    /// The run loop's lookahead, issued with event *i* popped and not yet
    /// handled. The queue knows what comes next, and on a large topology
    /// each of those events starts with two cache misses in a row — its
    /// slab node, then the link direction the node names. So, two stages,
    /// one dependent load each: start loading the node of event *i + 2*;
    /// read event *i + 1* (its node was requested one iteration ago) and,
    /// if it is a delivery, start loading the line of its direction that
    /// `on_deliver` works on. Both loads then overlap the handling of event
    /// *i*. A third stage (routing *i + 1* early to reach its egress
    /// direction) measured as no gain — DESIGN.md §13.4.
    ///
    /// `&self`: hints read the queue and the link table and change nothing;
    /// an event scheduled in between only makes a hint useless.
    #[inline]
    fn prefetch_ahead(&self) {
        self.engine.prefetch_upcoming(1);
        if let Some(NetEvent::Deliver { link, dir, .. }) = self.engine.upcoming(0) {
            let ingress = self.links.get(link.0 as usize);
            if let Some(d) = ingress.and_then(|l| l.dirs.get(*dir as usize)) {
                d.prefetch_rx();
            }
        }
    }

    /// `run_until` ignoring signals.
    pub fn run_until_quiet(&mut self, deadline: SimTime) {
        self.run_until(deadline, |_, _, _| {});
    }

    /// Advance the clock to `t` after the event queue has been drained up
    /// to it (panics if that would skip an event). Drivers use this to
    /// start flows at exact scheduled instants between network events.
    pub fn advance_to(&mut self, t: SimTime) {
        self.engine.advance_to(t);
        self.retire_departures(t);
    }

    /// Register a fluid elephant flow (`SimTuning::hybrid`): resolve every
    /// subflow's path exactly as a packet with that flow id would be
    /// forwarded (same routers, same ECMP draws), then schedule its
    /// first rate-update tick one base RTT out. The flow's aggregate rate
    /// feeds each hop's analytic backlog from then on; completion (for
    /// sized flows) is signalled as `(src_node, code)` through the
    /// `run_until` callback, just like a transport completion.
    ///
    /// # Errors
    /// [`ConfigError::HybridDisabled`] without the tuning flag,
    /// [`ConfigError::HybridUnsupported`] on a partitioned shard, and
    /// [`ConfigError::FluidPathTooLong`] when a path walk exceeds
    /// [`crate::fluid::MAX_HOPS`] (a routing loop).
    ///
    /// # Panics
    /// Panics when the spec has no subflows, names a missing port, or a
    /// path hits an unroutable destination (as forwarding would).
    pub fn fluid_open(&mut self, spec: &FluidSpec) -> Result<FluidId, ConfigError> {
        if !self.tuning.hybrid {
            return Err(ConfigError::HybridDisabled);
        }
        if self.part.is_some() {
            return Err(ConfigError::HybridUnsupported);
        }
        assert!(!spec.subflows.is_empty(), "fluid flow needs >= 1 subflow");
        let now = self.engine.now();
        let mss = ByteSize::from_bytes(spec.mss as u64);
        let mut subs = Vec::with_capacity(spec.subflows.len());
        for sf in &spec.subflows {
            let mut path = [(LinkId(0), 0u8); crate::fluid::MAX_HOPS];
            let mut hops = 0usize;
            let mut rtt_ns = 0u64;
            let mut cap = f64::INFINITY;
            let &(mut link, mut dir) = self.nodes[spec.src_node.0 as usize]
                .ports
                .get(sf.local_port.0 as usize)
                .unwrap_or_else(|| panic!("{:?} has no port {:?}", spec.src_node, sf.local_port));
            loop {
                if hops >= crate::fluid::MAX_HOPS {
                    return Err(ConfigError::FluidPathTooLong { flow: sf.flow });
                }
                let l = &self.links[link.0 as usize];
                path[hops] = (link, dir);
                hops += 1;
                // Base RTT: serialization + propagation per hop, both ways
                // (the reverse path is approximated as symmetric; ACKs are
                // small, so the data-direction serialization dominates).
                rtt_ns += 2 * (l.bandwidth.transmission_time(mss) + l.delay).as_nanos();
                cap = cap.min(l.bandwidth.as_bps() as f64 / 8.0);
                let d = l.dir(dir);
                let (to_node, to_port) = (d.to_node, d.to_port);
                match &self.nodes[to_node.0 as usize].kind {
                    NodeKind::Host => break,
                    NodeKind::Switch(_) => {
                        let out = self.route_on(to_node, sf.dst, sf.flow, to_port);
                        let &(l2, d2) = self.nodes[to_node.0 as usize]
                            .ports
                            .get(out.0 as usize)
                            .unwrap_or_else(|| panic!("router chose missing port {out:?}"));
                        (link, dir) = (l2, d2);
                    }
                }
            }
            subs.push(crate::fluid::subflow(
                path,
                hops as u8,
                SimDuration::from_nanos(rtt_ns),
                cap,
            ));
        }
        let fluid = self.fluid.get_or_insert_with(Default::default);
        let (id, first) = fluid.open_flow(spec, subs, now);
        self.engine
            .schedule_keyed(first, fluid_key(id), NetEvent::Fluid { id });
        Ok(FluidId(id))
    }

    /// Progress snapshot of a fluid flow (`None` for unknown/stopped ids).
    pub fn fluid_stats(&self, id: FluidId) -> Option<FluidFlowStats> {
        self.fluid.as_ref().and_then(|f| f.stats(id.0))
    }

    /// Withdraw a fluid flow's rates from its path and free its slot,
    /// returning the final snapshot. Safe on completed flows (their rates
    /// are already withdrawn); `None` for unknown ids.
    pub fn fluid_stop(&mut self, id: FluidId) -> Option<FluidFlowStats> {
        let mut fluid = self.fluid.take()?;
        let now = self.engine.now();
        let out = fluid.stop(id.0, now, &mut self.links);
        self.fluid = Some(fluid);
        out
    }

    /// Number of fluid flows still actively sending.
    pub fn fluid_active(&self) -> usize {
        self.fluid.as_ref().map_or(0, |f| f.active())
    }

    /// Lower-bound the fluid tick interval (default: every base RTT).
    /// Raising it amortizes rate updates over many RTTs — the documented
    /// fidelity/speed lever for million-flow cells (DESIGN.md §18).
    pub fn set_fluid_tick_floor(&mut self, floor: SimDuration) {
        self.fluid.get_or_insert_with(Default::default).tick_floor = floor;
    }

    /// Retired with the compiled forwarding tables: does nothing. Kept
    /// because the frozen benchmark harness calls it at set-up; it goes in
    /// the PR that re-freezes the harness.
    pub fn compile_fibs(&mut self) {}

    /// The forwarding decision at switch `node`, exactly as the event loop
    /// makes it: the switch's [`Router::route`]. Panics on hosts and
    /// unroutable destinations, like forwarding does by default.
    pub fn route_on(&self, node: NodeId, dst: Addr, flow: FlowId, in_port: PortId) -> PortId {
        let NodeKind::Switch(router) = &self.nodes[node.0 as usize].kind else {
            panic!("route_on called on a host");
        };
        router
            .route(dst, flow, in_port)
            .unwrap_or_else(|| panic!("no route to {dst}"))
    }

    /// Retire every booked departure at or before `t` (a run window just
    /// closed there), so link stats read after the window — and arrivals
    /// the driver injects at `t` — see the port as it is at `t`. Only
    /// directions on the busy list can have anything to retire.
    fn retire_departures(&mut self, t: SimTime) {
        let links = &mut self.links;
        self.busy_dirs.retain(|&(link, dir)| {
            let d = links[link.0 as usize].dir_mut(dir);
            d.retire_through(t);
            d.listed = !d.pending.is_empty();
            d.listed
        });
    }

    fn handle(&mut self, ev: NetEvent<P>) {
        if let Some(ps) = self.part.as_mut() {
            // Probe records and signals produced while handling this event
            // carry its identity rank, so the cross-shard merge can restore
            // the serial order at equal timestamps.
            ps.rank = (event_rank(&ev), 0);
        }
        match ev {
            NetEvent::TxDone { .. } => {}
            NetEvent::Deliver {
                link,
                dir,
                gen,
                pkt,
            } => {
                self.profile.deliver += 1;
                self.on_deliver(link, dir, gen, pkt);
            }
            NetEvent::Timer { node, token, gen } => {
                self.profile.timer += 1;
                self.on_timer(node, token, gen);
            }
            NetEvent::Fault { idx } => {
                self.profile.fault += 1;
                self.on_fault(idx);
            }
            NetEvent::Sample => {
                self.profile.sample += 1;
                self.on_sample();
            }
            NetEvent::Fluid { id } => {
                self.profile.fluid_ticks += 1;
                self.on_fluid(id);
            }
        }
    }

    /// One fluid rate-update tick: advance the flow's hop backlogs, step
    /// its subflow windows against the path congestion signals, and re-arm.
    /// The registry is moved out for the duration so the tick can borrow
    /// the link table mutably without aliasing the sim.
    fn on_fluid(&mut self, id: u32) {
        let Some(mut fluid) = self.fluid.take() else {
            return; // stopped wholesale mid-run; the event rides out
        };
        let now = self.engine.now();
        let out = fluid.tick(id, now, &mut self.links);
        if let Some((node, code)) = out.completed {
            // Same out-of-band channel transport completions use; the
            // driver's `run_until` callback picks it up this event round.
            self.signals.push_back((node, code));
        }
        if let Some(next) = out.next {
            self.engine
                .schedule_keyed(next, fluid_key(id), NetEvent::Fluid { id });
        }
        self.fluid = Some(fluid);
    }

    fn on_fault(&mut self, idx: u32) {
        match self.fault_timeline[idx as usize] {
            FaultEvent::LinkDown(l) => self.take_link_down(l),
            FaultEvent::LinkUp(l) => self.bring_link_up(l),
            FaultEvent::SwitchDown(n) => {
                let links: Vec<LinkId> = self.nodes[n.0 as usize]
                    .ports
                    .iter()
                    .map(|&(l, _)| l)
                    .collect();
                for l in links {
                    self.take_link_down(l);
                }
            }
        }
    }

    fn on_deliver(&mut self, link: LinkId, dir: u8, gen: u32, pkt: Packet<P>) {
        let now = self.engine.now();
        let l = &mut self.links[link.0 as usize];
        let d = l.dir_mut(dir);
        d.in_network -= 1;
        if gen != d.fail_gen {
            // The link failed while this packet was in the pipeline.
            d.stats.blackholed += 1;
            self.audit_dropped += 1;
            if let Some(t) = self.trace.as_mut() {
                t.record(TraceEvent {
                    at: now,
                    link,
                    dir,
                    kind: TraceKind::LinkDownDrop,
                    flow: pkt.flow,
                    size: pkt.size.as_bytes(),
                    backlog: 0,
                });
            }
            return;
        }
        if d.fault.corrupt_prob > 0.0 && d.corrupt_rng.chance(d.fault.corrupt_prob) {
            // The frame failed its checksum at the receiver: it consumed
            // its full wire time (unlike a fault drop) but is discarded.
            // Drawn per *delivery*, in the FIFO order packets leave the
            // direction.
            d.stats.corrupted += 1;
            self.audit_dropped += 1;
            if let Some(t) = self.trace.as_mut() {
                t.record(TraceEvent {
                    at: now,
                    link,
                    dir,
                    kind: TraceKind::Corrupt,
                    flow: pkt.flow,
                    size: pkt.size.as_bytes(),
                    backlog: 0,
                });
            }
            return;
        }
        d.stats.delivered += 1;
        d.stats.delivered_bytes += pkt.size;
        if let Some(t) = self.trace.as_mut() {
            // The waiting backlog is only reconstructed when someone looks
            // (tracing is off in measurement runs).
            d.retire_before(now);
            let backlog = d.waiting(now);
            t.record(TraceEvent {
                at: now,
                link,
                dir,
                kind: TraceKind::Deliver,
                flow: pkt.flow,
                size: pkt.size.as_bytes(),
                backlog,
            });
        }
        let to_node = d.to_node;
        let to_port = d.to_port;
        match &self.nodes[to_node.0 as usize].kind {
            NodeKind::Switch(_) => {
                self.forward_at_switch(link, dir, to_node, to_port, pkt);
            }
            NodeKind::Host => {
                self.audit_delivered += 1;
                self.dispatch_packet(to_node, pkt, to_port);
            }
        }
    }

    /// Forward a packet that just arrived on `(link, dir)` at the switch
    /// `to_node` (ingress `to_port`): the router's decision, then the
    /// egress enqueue.
    fn forward_at_switch(
        &mut self,
        link: LinkId,
        dir: u8,
        to_node: NodeId,
        to_port: PortId,
        pkt: Packet<P>,
    ) {
        let node = &self.nodes[to_node.0 as usize];
        let NodeKind::Switch(router) = &node.kind else {
            unreachable!("forward_at_switch called with a host destination");
        };
        let out_port = router.route(pkt.dst, pkt.flow, to_port);
        let hop = out_port.map(|op| (op, node.ports.get(op.0 as usize).copied()));
        match hop {
            Some((_, Some((out_link, out_dir)))) => {
                assert!(
                    !(out_link == link && out_dir == dir ^ 1) || node.ports.len() == 1,
                    "switch {} bounced {:?} back out its ingress",
                    node.label,
                    pkt.flow
                );
                self.enqueue_on(out_link, out_dir, pkt);
            }
            Some((op, None)) if !self.tuning.drop_unroutable => {
                panic!("router chose missing port {op:?}")
            }
            None if !self.tuning.drop_unroutable => panic!("no route to {}", pkt.dst),
            _ => {
                // No usable route: count and drop instead of
                // panicking (`SimTuning::drop_unroutable`).
                self.unroutable += 1;
                self.audit_dropped += 1;
                if let Some(t) = self.trace.as_mut() {
                    t.record(TraceEvent {
                        at: self.engine.now(),
                        link,
                        dir,
                        kind: TraceKind::NoRoute,
                        flow: pkt.flow,
                        size: pkt.size.as_bytes(),
                        backlog: 0,
                    });
                }
            }
        }
    }

    fn on_timer(&mut self, node: NodeId, token: u64, gen: u64) {
        let now = self.engine.now();
        let Some(st) = self.timers[node.0 as usize].get_mut(&token) else {
            return; // token never armed on this node
        };
        match st.sched {
            Some((_, g)) if g == gen => st.sched = None,
            _ => return, // orphan: superseded by an earlier re-schedule
        }
        match st.intent {
            None => return, // cancelled; the event rode out harmlessly
            Some(t) if t > now => {
                // Deadline was bumped out past this event: re-arm the one
                // tracked event at the current intent and keep waiting.
                st.sched_gen = st.sched_gen.wrapping_add(1);
                let g = st.sched_gen;
                st.sched = Some((t, g));
                self.engine.schedule_keyed(
                    t,
                    timer_key(node),
                    NetEvent::Timer {
                        node,
                        token,
                        gen: g,
                    },
                );
                return;
            }
            Some(t) => {
                debug_assert!(t == now, "tracked timer event fired late");
                st.intent = None;
            }
        }
        let mut emits = self.take_emit_buf();
        self.agents[node.0 as usize]
            .as_mut()
            .expect("timer for node without agent")
            .on_timer(token, &mut Ctx::new(now, &mut emits));
        self.process_emits(node, emits);
    }

    fn dispatch_packet(&mut self, node: NodeId, pkt: Packet<P>, port: PortId) {
        let mut emits = self.take_emit_buf();
        let now = self.engine.now();
        self.agents[node.0 as usize]
            .as_mut()
            .expect("packet delivered to host without agent")
            .on_packet(pkt, port, &mut Ctx::new(now, &mut emits));
        self.process_emits(node, emits);
    }

    fn process_emits(&mut self, node: NodeId, mut emits: Vec<Emit<P>>) {
        let now = self.engine.now();
        for emit in emits.drain(..) {
            match emit {
                Emit::Send { port, pkt } => {
                    let &(link, dir) = self.nodes[node.0 as usize]
                        .ports
                        .get(port.0 as usize)
                        .unwrap_or_else(|| panic!("{node:?} has no port {port:?}"));
                    self.audit_injected += 1;
                    self.enqueue_on(link, dir, pkt);
                }
                Emit::SetTimer { token, at } => {
                    let at = at.max(now);
                    let st = self.timers[node.0 as usize].entry(token).or_default();
                    st.intent = Some(at);
                    // Ride the tracked in-flight event whenever it fires at
                    // or before the new deadline (it re-arms itself on
                    // expiry); schedule only when none is pending or the
                    // deadline moved earlier.
                    if st.sched.is_none_or(|(p, _)| p > at) {
                        st.sched_gen = st.sched_gen.wrapping_add(1);
                        let gen = st.sched_gen;
                        st.sched = Some((at, gen));
                        self.engine.schedule_keyed(
                            at,
                            timer_key(node),
                            NetEvent::Timer { node, token, gen },
                        );
                    }
                }
                Emit::CancelTimer { token } => {
                    if let Some(st) = self.timers[node.0 as usize].get_mut(&token) {
                        st.intent = None;
                    }
                }
                Emit::Signal(code) => self.signals.push_back((node, code)),
            }
        }
        self.emit_pool.push(emits);
    }

    /// Offer `pkt` to a link direction (`Direction::offer` decides and
    /// books its transmission window) and, when accepted, schedule its
    /// arrival at the far end directly: one engine event per packet-hop.
    fn enqueue_on(&mut self, link: LinkId, dir: u8, mut pkt: Packet<P>) {
        let now = self.engine.now();
        let l = &mut self.links[link.0 as usize];
        let (bandwidth, delay) = (l.bandwidth, l.delay);
        let d = l.dir_mut(dir);
        let offer = d.offer(now, bandwidth, self.tuning.hybrid, &mut pkt);
        if let Some(t) = self.trace.as_mut() {
            let (kind, backlog) = match offer {
                Offer::Blackholed => (TraceKind::LinkDownDrop, 0),
                Offer::FaultDropped { waiting } => (TraceKind::FaultDrop, waiting),
                Offer::Dropped { waiting } => (TraceKind::Drop, waiting),
                Offer::Accepted {
                    marked, waiting, ..
                } => (
                    if marked {
                        TraceKind::Mark
                    } else {
                        TraceKind::Enqueue
                    },
                    waiting + 1,
                ),
            };
            t.record(TraceEvent {
                at: now,
                link,
                dir,
                kind,
                flow: pkt.flow,
                size: pkt.size.as_bytes(),
                backlog,
            });
        }
        let Offer::Accepted { marked, depart, .. } = offer else {
            self.audit_dropped += 1;
            return;
        };
        if marked {
            if let Some(p) = self.probes.as_mut() {
                let rank = self.part.as_ref().map(|ps| ps.rank);
                p.on_mark(now, link, dir, rank);
            }
        }
        if !d.listed {
            d.listed = true;
            self.busy_dirs.push((link, dir));
        }
        let gen = d.fail_gen;
        let remote = match self.part.as_ref() {
            Some(ps) => ps.remote_rx[link.0 as usize] & (1 << dir) != 0,
            None => false,
        };
        if remote {
            self.part
                .as_mut()
                .expect("remote implies shard state")
                .outbox
                .push((depart + delay, link, dir, gen, pkt));
        } else {
            self.engine.schedule_keyed(
                depart + delay,
                deliver_key(link, dir),
                NetEvent::Deliver {
                    link,
                    dir,
                    gen,
                    pkt,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;
    use crate::packet::{Ecn, FlowId};
    use crate::queue::QdiscConfig;
    use crate::routing::{AddrPattern, StaticRouter};
    use std::any::Any;
    use xmp_des::{Bandwidth, ByteSize, SimDuration};

    /// Minimal agent: counts arrivals, echoes once if asked, records times.
    #[derive(Default)]
    struct Probe {
        received: Vec<(u64, u64)>, // (arrival ns, payload)
        echo: bool,
        timer_fired: Vec<u64>,
    }

    impl Agent<u64> for Probe {
        fn on_packet(&mut self, pkt: Packet<u64>, _port: PortId, ctx: &mut Ctx<'_, u64>) {
            self.received.push((ctx.now().as_nanos(), pkt.payload));
            if self.echo {
                // Reuse the delivered packet for the echo instead of
                // cloning it: swap the endpoints in place.
                let mut back = pkt;
                std::mem::swap(&mut back.src, &mut back.dst);
                back.payload += 1000;
                let code = back.payload;
                ctx.send(PortId(0), back);
                ctx.signal(code);
            }
        }
        fn on_timer(&mut self, token: u64, _ctx: &mut Ctx<'_, u64>) {
            self.timer_fired.push(token);
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn params_1g() -> LinkParams {
        LinkParams::new(
            Bandwidth::from_gbps(1),
            SimDuration::from_micros(20),
            QdiscConfig::DropTail { cap: 100 },
        )
    }

    fn pkt(src: Addr, dst: Addr, payload: u64) -> Packet<u64> {
        Packet::new(
            src,
            dst,
            FlowId(7),
            Ecn::NotEct,
            ByteSize::from_bytes(1500),
            payload,
        )
    }

    #[test]
    fn two_hosts_timing_is_exact() {
        let mut sim: Sim<u64> = Sim::new(1);
        let a = sim.add_host("a", Box::new(Probe::default()));
        let b = sim.add_host("b", Box::new(Probe::default()));
        sim.connect(a, b, &params_1g(), "ab");
        let (sa, da) = (Addr::new(10, 0, 0, 1), Addr::new(10, 0, 0, 2));
        sim.with_agent::<Probe, _>(a, |_, ctx| {
            ctx.send(PortId(0), pkt(sa, da, 42));
        });
        sim.run_until_quiet(SimTime::from_millis(1));
        // 1500B at 1Gbps = 12us serialization + 20us propagation = 32us.
        sim.with_agent::<Probe, _>(b, |p, _| {
            assert_eq!(p.received, vec![(32_000, 42)]);
        });
    }

    #[test]
    fn serialization_is_back_to_back() {
        let mut sim: Sim<u64> = Sim::new(1);
        let a = sim.add_host("a", Box::new(Probe::default()));
        let b = sim.add_host("b", Box::new(Probe::default()));
        sim.connect(a, b, &params_1g(), "ab");
        let (sa, da) = (Addr::new(10, 0, 0, 1), Addr::new(10, 0, 0, 2));
        sim.with_agent::<Probe, _>(a, |_, ctx| {
            for i in 0..3 {
                ctx.send(PortId(0), pkt(sa, da, i));
            }
        });
        sim.run_until_quiet(SimTime::from_millis(1));
        sim.with_agent::<Probe, _>(b, |p, _| {
            // Arrivals at 32, 44, 56 us: pipelined 12us apart.
            assert_eq!(
                p.received.iter().map(|&(t, _)| t).collect::<Vec<_>>(),
                vec![32_000, 44_000, 56_000]
            );
        });
    }

    #[test]
    fn switch_forwards_by_static_route() {
        let mut sim: Sim<u64> = Sim::new(1);
        let h1 = sim.add_host("h1", Box::new(Probe::default()));
        let h2 = sim.add_host("h2", Box::new(Probe::default()));
        let sw = sim.add_switch("sw", Box::new(StaticRouter::new()));
        sim.connect(h1, sw, &params_1g(), "h1-sw"); // sw port 0
        sim.connect(h2, sw, &params_1g(), "h2-sw"); // sw port 1
        let (a1, a2) = (Addr::new(10, 0, 0, 1), Addr::new(10, 0, 0, 2));
        sim.set_router(
            sw,
            Box::new(StaticRouter::new().to(a1, PortId(0)).to(a2, PortId(1))),
        );
        sim.with_agent::<Probe, _>(h1, |_, ctx| ctx.send(PortId(0), pkt(a1, a2, 5)));
        sim.run_until_quiet(SimTime::from_millis(1));
        sim.with_agent::<Probe, _>(h2, |p, _| {
            // Two hops: 2 x (12us tx + 20us prop) = 64us.
            assert_eq!(p.received, vec![(64_000, 5)]);
        });
    }

    #[test]
    fn echo_and_signals_round_trip() {
        let mut sim: Sim<u64> = Sim::new(1);
        let a = sim.add_host("a", Box::new(Probe::default()));
        let b = sim.add_host(
            "b",
            Box::new(Probe {
                echo: true,
                ..Default::default()
            }),
        );
        sim.connect(a, b, &params_1g(), "ab");
        let (sa, da) = (Addr::new(10, 0, 0, 1), Addr::new(10, 0, 0, 2));
        sim.with_agent::<Probe, _>(a, |_, ctx| ctx.send(PortId(0), pkt(sa, da, 1)));
        let mut signals = Vec::new();
        sim.run_until(SimTime::from_millis(1), |_, node, code| {
            signals.push((node, code));
        });
        assert_eq!(signals, vec![(b, 1001)]);
        sim.with_agent::<Probe, _>(a, |p, _| {
            assert_eq!(p.received, vec![(64_000, 1001)]);
        });
    }

    #[test]
    fn timers_fire_and_cancel() {
        let mut sim: Sim<u64> = Sim::new(1);
        let a = sim.add_host("a", Box::new(Probe::default()));
        let b = sim.add_host("b", Box::new(Probe::default()));
        sim.connect(a, b, &params_1g(), "ab");
        sim.with_agent::<Probe, _>(a, |_, ctx| {
            ctx.set_timer(1, SimTime::from_micros(10));
            ctx.set_timer(2, SimTime::from_micros(20));
            ctx.set_timer(3, SimTime::from_micros(30));
            ctx.cancel_timer(2);
            // Re-arm 3 later: only the new expiry fires.
            ctx.set_timer(3, SimTime::from_micros(40));
        });
        sim.run_until_quiet(SimTime::from_millis(1));
        sim.with_agent::<Probe, _>(a, |p, _| {
            assert_eq!(p.timer_fired, vec![1, 3]);
        });
        assert_eq!(sim.now(), SimTime::from_micros(40));
    }

    #[test]
    fn droptail_overflow_accounted() {
        let mut sim: Sim<u64> = Sim::new(1);
        let a = sim.add_host("a", Box::new(Probe::default()));
        let b = sim.add_host("b", Box::new(Probe::default()));
        let l = sim.connect(
            a,
            b,
            &LinkParams::new(
                Bandwidth::from_mbps(1),
                SimDuration::from_micros(1),
                QdiscConfig::DropTail { cap: 2 },
            ),
            "slow",
        );
        let (sa, da) = (Addr::new(10, 0, 0, 1), Addr::new(10, 0, 0, 2));
        sim.with_agent::<Probe, _>(a, |_, ctx| {
            for i in 0..10 {
                ctx.send(PortId(0), pkt(sa, da, i));
            }
        });
        sim.run_until_quiet(SimTime::from_secs(1));
        let d = sim.link(l).dir(0);
        // 1 in flight + 2 queued accepted; 7 dropped.
        assert_eq!(d.stats.enqueued, 3);
        assert_eq!(d.stats.dropped, 7);
        assert_eq!(d.stats.delivered, 3);
        sim.with_agent::<Probe, _>(b, |p, _| assert_eq!(p.received.len(), 3));
    }

    #[test]
    fn fault_injection_drops_roughly_at_rate() {
        let mut sim: Sim<u64> = Sim::new(99);
        let a = sim.add_host("a", Box::new(Probe::default()));
        let b = sim.add_host("b", Box::new(Probe::default()));
        let l = sim.connect(a, b, &params_1g().with_drop_prob(0.5), "lossy");
        let (sa, da) = (Addr::new(10, 0, 0, 1), Addr::new(10, 0, 0, 2));
        for burst in 0..10 {
            sim.with_agent::<Probe, _>(a, |_, ctx| {
                for i in 0..100 {
                    ctx.send(PortId(0), pkt(sa, da, burst * 100 + i));
                }
            });
            sim.run_until_quiet(SimTime::from_millis(10 * (burst + 1)));
        }
        let s = &sim.link(l).dir(0).stats;
        assert_eq!(s.fault_dropped + s.enqueued, 1000);
        assert!(
            (300..700).contains(&s.fault_dropped),
            "drop count {} far from 50%",
            s.fault_dropped
        );
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn run(seed: u64) -> Vec<(u64, u64)> {
            let mut sim: Sim<u64> = Sim::new(seed);
            let a = sim.add_host("a", Box::new(Probe::default()));
            let b = sim.add_host("b", Box::new(Probe::default()));
            sim.connect(a, b, &params_1g().with_drop_prob(0.3), "l");
            let (sa, da) = (Addr::new(10, 0, 0, 1), Addr::new(10, 0, 0, 2));
            sim.with_agent::<Probe, _>(a, |_, ctx| {
                for i in 0..50 {
                    ctx.send(PortId(0), pkt(sa, da, i));
                }
            });
            sim.run_until_quiet(SimTime::from_secs(1));
            sim.with_agent::<Probe, _>(b, |p, _| p.received.clone())
        }
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn addr_binding() {
        let mut sim: Sim<u64> = Sim::new(1);
        let a = sim.add_host("a", Box::new(Probe::default()));
        let addr = Addr::new(10, 0, 0, 1);
        sim.bind_addr(addr, a);
        sim.bind_addr(addr.with_host(9), a);
        assert_eq!(sim.lookup_addr(addr), Some(a));
        assert_eq!(sim.lookup_addr(addr.with_host(9)), Some(a));
        assert_eq!(sim.lookup_addr(Addr::new(9, 9, 9, 9)), None);
    }

    #[test]
    #[should_panic(expected = "already bound")]
    fn duplicate_addr_panics() {
        let mut sim: Sim<u64> = Sim::new(1);
        let a = sim.add_host("a", Box::new(Probe::default()));
        let b = sim.add_host("b", Box::new(Probe::default()));
        sim.bind_addr(Addr::new(10, 0, 0, 1), a);
        sim.bind_addr(Addr::new(10, 0, 0, 1), b);
    }

    #[test]
    fn ecn_threshold_marks_under_load() {
        let mut sim: Sim<u64> = Sim::new(1);
        let a = sim.add_host("a", Box::new(Probe::default()));
        let b = sim.add_host("b", Box::new(Probe::default()));
        let l = sim.connect(
            a,
            b,
            &LinkParams::new(
                Bandwidth::from_mbps(10),
                SimDuration::from_micros(1),
                QdiscConfig::EcnThreshold { cap: 100, k: 3 },
            ),
            "mk",
        );
        let (sa, da) = (Addr::new(10, 0, 0, 1), Addr::new(10, 0, 0, 2));
        sim.with_agent::<Probe, _>(a, |_, ctx| {
            for i in 0..10 {
                let mut p = pkt(sa, da, i);
                p.ecn = Ecn::Ect;
                ctx.send(PortId(0), p);
            }
        });
        sim.run_until_quiet(SimTime::from_secs(1));
        let s = &sim.link(l).dir(0).stats;
        // Arrivals are instantaneous: 1 in flight, backlog grows 0..=8;
        // arrivals seeing backlog >= 3 get marked: packets 4..9 => 6 marks.
        assert_eq!(s.marked, 6);
        sim.with_agent::<Probe, _>(b, |p, _| assert_eq!(p.received.len(), 10));
        // The paper's premise: mean queue depth stays near K under load.
        assert!(sim.link(l).dir(0).stats.max_depth <= 10);
    }

    #[test]
    fn tracing_records_the_packet_life_cycle() {
        use crate::trace::TraceKind;
        let mut sim: Sim<u64> = Sim::new(1);
        let a = sim.add_host("a", Box::new(Probe::default()));
        let b = sim.add_host("b", Box::new(Probe::default()));
        sim.connect(
            a,
            b,
            &LinkParams::new(
                Bandwidth::from_mbps(10),
                SimDuration::from_micros(1),
                QdiscConfig::EcnThreshold { cap: 3, k: 1 },
            ),
            "l",
        );
        sim.enable_trace(64);
        let (sa, da) = (Addr::new(10, 0, 0, 1), Addr::new(10, 0, 0, 2));
        sim.with_agent::<Probe, _>(a, |_, ctx| {
            for i in 0..6 {
                let mut p = pkt(sa, da, i);
                p.ecn = Ecn::Ect;
                ctx.send(PortId(0), p);
            }
        });
        sim.run_until_quiet(SimTime::from_secs(1));
        let trace = sim.trace().expect("enabled");
        let kinds: Vec<TraceKind> = trace.events().map(|e| e.kind).collect();
        // 6 offered: 1 straight to the wire, 1 unmarked enqueue, 2 marked,
        // 2 overflow drops; 4 deliveries interleave.
        assert_eq!(kinds.iter().filter(|&&k| k == TraceKind::Drop).count(), 2);
        assert_eq!(kinds.iter().filter(|&&k| k == TraceKind::Mark).count(), 2);
        assert_eq!(
            kinds.iter().filter(|&&k| k == TraceKind::Deliver).count(),
            4
        );
        // Render includes the queue depth annotations.
        assert!(trace.render().contains("q="));
    }

    #[test]
    fn pattern_any_route_matches() {
        // Guards against AddrPattern::any() regressions in longest-match.
        let p = AddrPattern::any();
        assert_eq!(p.specificity(), 0);
        assert!(p.matches(Addr::new(0, 0, 0, 0)));
    }

    /// One engine event per packet-hop: 10 delivered packets cost 10
    /// `Deliver` events and nothing else.
    #[test]
    fn one_event_per_packet_hop() {
        let mut sim: Sim<u64> = Sim::new(1);
        let a = sim.add_host("a", Box::new(Probe::default()));
        let b = sim.add_host("b", Box::new(Probe::default()));
        sim.connect(a, b, &params_1g(), "ab");
        let (sa, da) = (Addr::new(10, 0, 0, 1), Addr::new(10, 0, 0, 2));
        sim.with_agent::<Probe, _>(a, |_, ctx| {
            for i in 0..10 {
                ctx.send(PortId(0), pkt(sa, da, i));
            }
        });
        sim.run_until_quiet(SimTime::from_millis(1));
        assert_eq!(sim.events_processed(), 10);
        assert_eq!(sim.profile().deliver, 10);
        assert_eq!(sim.profile().tx_done, 0);
    }

    /// Link failure mid-burst: packets in the pipeline are blackholed,
    /// repair restores delivery, and the conservation books balance. The
    /// switches at the link's ends are fault-oblivious throughout: they
    /// name the same port before the failure, while down and after repair.
    #[test]
    fn link_down_blackholes_and_repair_restores_delivery() {
        fn run() -> (Vec<(u64, u64)>, u64, u64, AuditReport) {
            let mut sim: Sim<u64> = Sim::new(1);
            let a = sim.add_host("a", Box::new(Probe::default()));
            let b = sim.add_host("b", Box::new(Probe::default()));
            let (sa, da) = (Addr::new(10, 0, 0, 1), Addr::new(10, 0, 0, 2));
            // On both switches port 0 faces `a` and port 1 faces `b`: the
            // frail link is s1's port 1 and s2's port 0.
            let table = || Box::new(StaticRouter::new().to(sa, PortId(0)).to(da, PortId(1)));
            let s1 = sim.add_switch("s1", table());
            let s2 = sim.add_switch("s2", table());
            sim.connect(a, s1, &params_1g(), "a-s1");
            let l = sim.connect(
                s1,
                s2,
                &LinkParams::new(
                    Bandwidth::from_mbps(1), // 12 ms per 1500B packet
                    SimDuration::from_micros(1),
                    QdiscConfig::DropTail { cap: 100 },
                ),
                "frail",
            );
            sim.connect(s2, b, &params_1g(), "s2-b");
            let onto_frail = |sim: &Sim<u64>| {
                (
                    sim.route_on(s1, da, FlowId(7), PortId(0)),
                    sim.route_on(s2, sa, FlowId(7), PortId(1)),
                )
            };
            assert_eq!(onto_frail(&sim), (PortId(1), PortId(0)));
            sim.install_fault_plan(
                &FaultPlan::new()
                    .link_down(SimTime::from_millis(30), l)
                    .link_up(SimTime::from_millis(60), l),
            );
            sim.with_agent::<Probe, _>(a, |_, ctx| {
                for i in 0..10 {
                    ctx.send(PortId(0), pkt(sa, da, i));
                }
            });
            sim.run_until_quiet(SimTime::from_millis(50));
            // While down: offered traffic blackholes at the port.
            sim.with_agent::<Probe, _>(a, |_, ctx| {
                ctx.send(PortId(0), pkt(sa, da, 100));
            });
            sim.run_until_quiet(SimTime::from_millis(59));
            assert!(sim.link(l).dir(0).is_down());
            assert_eq!(onto_frail(&sim), (PortId(1), PortId(0)));
            // After repair: traffic flows again.
            sim.run_until_quiet(SimTime::from_millis(61));
            assert!(!sim.link(l).dir(0).is_down());
            assert_eq!(onto_frail(&sim), (PortId(1), PortId(0)));
            sim.advance_to(SimTime::from_millis(61));
            sim.with_agent::<Probe, _>(a, |_, ctx| {
                for i in 0..3 {
                    ctx.send(PortId(0), pkt(sa, da, 200 + i));
                }
            });
            sim.run_until_quiet(SimTime::from_millis(200));
            let s = sim.link(l).dir(0).stats.clone();
            let received = sim.with_agent::<Probe, _>(b, |p, _| p.received.clone());
            (
                received,
                s.blackholed,
                s.delivered,
                sim.audit_conservation(),
            )
        }
        let (received, blackholed, delivered, audit) = run();
        // 2 of the burst arrive (12 ms apart) before the 30 ms failure; the
        // other 8 die in the pipeline, plus the one offered while down.
        assert_eq!(delivered, 5);
        assert_eq!(blackholed, 9);
        assert_eq!(received.len(), 5);
        assert_eq!(
            received.iter().map(|&(_, p)| p).collect::<Vec<_>>(),
            vec![0, 1, 200, 201, 202]
        );
        assert_eq!(
            audit,
            AuditReport {
                injected: 14,
                delivered: 5,
                dropped: 9,
                in_network: 0
            }
        );
    }

    /// A scheduled switch failure takes down every attached link.
    #[test]
    fn switch_down_kills_all_attached_links() {
        let mut sim: Sim<u64> = Sim::new(1);
        let h1 = sim.add_host("h1", Box::new(Probe::default()));
        let h2 = sim.add_host("h2", Box::new(Probe::default()));
        let sw = sim.add_switch("sw", Box::new(StaticRouter::new()));
        let l1 = sim.connect(h1, sw, &params_1g(), "h1-sw");
        let l2 = sim.connect(h2, sw, &params_1g(), "h2-sw");
        let (a1, a2) = (Addr::new(10, 0, 0, 1), Addr::new(10, 0, 0, 2));
        sim.bind_addr(a1, h1);
        sim.bind_addr(a2, h2);
        sim.set_router(
            sw,
            Box::new(StaticRouter::new().to(a1, PortId(0)).to(a2, PortId(1))),
        );
        sim.install_fault_plan(&FaultPlan::new().switch_down(SimTime::from_micros(5), sw));
        sim.with_agent::<Probe, _>(h1, |_, ctx| ctx.send(PortId(0), pkt(a1, a2, 5)));
        sim.run_until_quiet(SimTime::from_millis(1));
        assert!(sim.link(l1).dir(0).is_down());
        assert!(sim.link(l2).dir(0).is_down());
        sim.with_agent::<Probe, _>(h2, |p, _| assert!(p.received.is_empty()));
        let audit = sim.audit_conservation();
        assert_eq!(audit.delivered, 0);
        assert_eq!(audit.dropped, 1);
    }

    /// Seeded corruption discards at roughly the configured rate, and the
    /// books still balance.
    #[test]
    fn corruption_discards_at_rate_and_conserves() {
        fn run() -> (u64, u64, AuditReport) {
            let mut sim: Sim<u64> = Sim::new(7);
            let a = sim.add_host("a", Box::new(Probe::default()));
            let b = sim.add_host("b", Box::new(Probe::default()));
            let l = sim.connect(a, b, &params_1g(), "noisy");
            sim.install_fault_plan(&FaultPlan::new().corrupt_rate(l, 0.5));
            let (sa, da) = (Addr::new(10, 0, 0, 1), Addr::new(10, 0, 0, 2));
            for burst in 0..10 {
                sim.with_agent::<Probe, _>(a, |_, ctx| {
                    for i in 0..100 {
                        ctx.send(PortId(0), pkt(sa, da, burst * 100 + i));
                    }
                });
                sim.run_until_quiet(SimTime::from_millis(10 * (burst + 1)));
            }
            let s = &sim.link(l).dir(0).stats;
            (s.corrupted, s.delivered, sim.audit_conservation())
        }
        let (corrupted, delivered, audit) = run();
        assert_eq!(corrupted + delivered, 1000);
        assert!(
            (300..700).contains(&corrupted),
            "corruption count {corrupted} far from 50%"
        );
        assert_eq!(audit.injected, 1000);
        assert_eq!(audit.delivered, delivered);
        assert_eq!(audit.dropped, corrupted);
    }

    /// `drop_unroutable` turns the "no route" panic into a counted drop on
    /// a partitioned topology (no-route destination behind a live switch).
    #[test]
    fn drop_unroutable_degrades_instead_of_panicking() {
        let mut sim: Sim<u64> = Sim::new(1);
        sim.set_tuning(SimTuning {
            drop_unroutable: true,
            ..SimTuning::default()
        });
        let h1 = sim.add_host("h1", Box::new(Probe::default()));
        let h2 = sim.add_host("h2", Box::new(Probe::default()));
        let sw = sim.add_switch("sw", Box::new(StaticRouter::new()));
        sim.connect(h1, sw, &params_1g(), "h1-sw");
        sim.connect(h2, sw, &params_1g(), "h2-sw");
        let (a1, a2) = (Addr::new(10, 0, 0, 1), Addr::new(10, 0, 0, 2));
        sim.bind_addr(a1, h1);
        sim.bind_addr(a2, h2);
        // The switch only knows how to reach h1: h2 is partitioned off.
        sim.set_router(sw, Box::new(StaticRouter::new().to(a1, PortId(0))));
        sim.enable_trace(16);
        sim.with_agent::<Probe, _>(h1, |_, ctx| {
            for i in 0..4 {
                ctx.send(PortId(0), pkt(a1, a2, i));
            }
            // An address bound nowhere takes the same graceful path.
            ctx.send(PortId(0), pkt(a1, Addr::new(9, 9, 9, 9), 99));
        });
        sim.run_until_quiet(SimTime::from_millis(1));
        assert_eq!(sim.unroutable_drops(), 5);
        assert_eq!(sim.trace().expect("enabled").count(TraceKind::NoRoute), 5);
        sim.with_agent::<Probe, _>(h2, |p, _| assert!(p.received.is_empty()));
        let audit = sim.audit_conservation();
        assert_eq!(audit.injected, 5);
        assert_eq!(audit.dropped, 5);
        assert_eq!(audit.in_network, 0);
    }

    /// Without `drop_unroutable`, a packet the switch cannot route is a
    /// topology bug and forwarding says so.
    #[test]
    #[should_panic(expected = "no route to 10.0.0.2")]
    fn forwarding_without_a_route_panics_by_default() {
        let mut sim: Sim<u64> = Sim::new(1);
        let h1 = sim.add_host("h1", Box::new(Probe::default()));
        let sw = sim.add_switch("sw", Box::new(StaticRouter::new()));
        sim.connect(h1, sw, &params_1g(), "h1-sw");
        let (a1, a2) = (Addr::new(10, 0, 0, 1), Addr::new(10, 0, 0, 2));
        sim.with_agent::<Probe, _>(h1, |_, ctx| ctx.send(PortId(0), pkt(a1, a2, 0)));
        sim.run_until_quiet(SimTime::from_millis(1));
    }
}
