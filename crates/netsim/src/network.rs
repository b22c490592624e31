//! The simulation: the event loop over its owned sub-states.
//!
//! [`Sim`] is an engine plus one owner per kind of state — the fabric
//! (nodes, links, addresses), the hosts (agents, timers, signals), the
//! packet ledger, the observers (probes, profile), the fault timeline and
//! the optional fluid plane — and processes two event kinds per packet and
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
//! What lives here is what needs several owners at once: the events, their
//! identity keys, the run loop and the handlers. Everything else is a thin
//! call into the owner (DESIGN.md §3).
//!
//! Drivers (workloads, experiments) interleave `run_until` with direct agent
//! access through [`Sim::with_agent`], and observe out-of-band agent signals
//! through the `run_until` callback.

use crate::addr::Addr;
use crate::agent::{Agent, Ctx, Emit};
use crate::fabric::{Booked, Fabric, Hop};
use crate::fault::{FaultEvent, FaultPlan, FaultTimeline};
use crate::fluid::{FluidFlowStats, FluidId, FluidSpec};
use crate::hosts::Hosts;
use crate::ledger::Ledger;
use crate::link::{Link, LinkId, LinkParams};
use crate::node::{Node, NodeId, NodeKind, PortId};
use crate::observers::Observers;
use crate::packet::{FlowId, Packet};
use crate::probe::{ProbeConfig, Probes, SimProfile};
use crate::routing::Router;
use crate::timer::Expiry;
use xmp_des::{ByteSize, Engine, SimDuration, SimTime};

pub use crate::error::ConfigError;
pub use crate::ledger::{AuditReport, InvariantState};

/// Payload requirements for simulated packets.
pub trait Payload: Clone + std::fmt::Debug + Send + 'static {}
impl<T: Clone + std::fmt::Debug + Send + 'static> Payload for T {}

/// Simulation mode switches, all off by default.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimTuning {
    /// Graceful no-route mode: instead of panicking when a switch has no
    /// route for a packet (the default, which treats an unroutable
    /// destination as a topology bug), count the packet in
    /// [`Sim::unroutable_drops`] and continue — the right behaviour when
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

/// Same-instant tie keys for engine events (see `Engine::schedule_keyed`).
///
/// Events firing at the same instant are ranked by *identity*, not by when
/// they were scheduled: all packet arrivals first (by link, direction),
/// then agent timers (by node), then faults, fluid ticks and probe
/// samples. This fixes how traffic, faults and samples relate at one
/// instant whatever order they were scheduled in, and every recorded
/// digest was taken under it (DESIGN.md §10.3).
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

/// The whole simulation: an engine and the sub-states it drives, each owned
/// by one module (the module map is DESIGN.md §3).
///
/// Generic over the agent type `A` running on hosts. The default,
/// `Box<dyn Agent<P>>`, accepts heterogeneous agents through one virtual
/// call per delivery — the historical behaviour. Fixing `A` to a concrete
/// type (the suite runner uses the in-tree transport host) devirtualizes
/// every packet delivery and timer callback; the blanket
/// `impl Agent<P> for Box<A>` keeps boxed call sites working unchanged.
pub struct Sim<P: Payload, A: Agent<P> = Box<dyn Agent<P>>> {
    engine: Engine<NetEvent<P>>,
    fabric: Fabric<P>,
    hosts: Hosts<P, A>,
    ledger: Ledger,
    observers: Observers,
    /// Installed fault timeline; engine `Fault` events index into it.
    faults: FaultTimeline,
    tuning: SimTuning,
    /// Fluid flow registry (`SimTuning::hybrid`); `None` until the first
    /// [`Sim::fluid_open`], so packet-only runs never touch it.
    fluid: Option<Box<crate::fluid::FluidState>>,
}

impl<P: Payload, A: Agent<P>> Sim<P, A> {
    /// Fresh, empty simulation seeded with `seed` (drives fault injection
    /// and any other network-side randomness).
    pub fn new(seed: u64) -> Self {
        Sim {
            engine: Engine::new(),
            fabric: Fabric::new(seed),
            hosts: Hosts::new(),
            ledger: Ledger::default(),
            observers: Observers::new(),
            faults: FaultTimeline::default(),
            tuning: SimTuning::default(),
            fluid: None,
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
        assert!(self.observers.probes.is_none(), "probes already installed");
        self.observers.probes = Some(Probes::new(cfg));
        self.schedule_next_sample();
    }

    /// The recorded probe series, if probes are installed.
    pub fn probes(&self) -> Option<&Probes> {
        self.observers.probes.as_ref()
    }

    /// Mutable probe access (drivers push their own records, e.g.
    /// per-subflow cwnd snapshots).
    pub fn probes_mut(&mut self) -> Option<&mut Probes> {
        self.observers.probes.as_mut()
    }

    /// Remove and return the probes (ends sampling: a still-pending tick
    /// finds no probes and does not re-schedule).
    pub fn take_probes(&mut self) -> Option<Probes> {
        self.observers.probes.take()
    }

    /// Engine-loop profiling counters (events per kind, pool hit rate,
    /// wall time per phase). Always on; never part of simulated state.
    pub fn profile(&self) -> &SimProfile {
        &self.observers.profile
    }

    /// Instantaneous backlog of a link direction in packets (queued +
    /// serializing) at a driver-visible instant (run boundaries and probe
    /// ticks), after every departure at or before it. A downed direction
    /// reads zero.
    pub fn queue_depth(&mut self, link: LinkId, dir: u8) -> usize {
        let (now, hybrid) = (self.engine.now(), self.tuning.hybrid);
        self.fabric.queue_depth(link, dir, now, hybrid)
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
        self.hosts.add_node(Some(agent));
        self.fabric.add_node(NodeKind::Host, label.into())
    }

    /// Add a switch forwarding with `router`.
    pub fn add_switch(&mut self, label: impl Into<String>, router: Box<dyn Router>) -> NodeId {
        self.hosts.add_node(None);
        self.fabric.add_node(NodeKind::Switch(router), label.into())
    }

    /// Replace a switch's router (topology builders wire routes after
    /// connecting, once port numbers are known).
    pub fn set_router(&mut self, node: NodeId, router: Box<dyn Router>) {
        self.fabric.set_router(node, router);
    }

    /// Make room for `additional` more links, for builders that know their
    /// link count: a line-aligned [`Link`] table cannot grow in place (an
    /// over-aligned reallocation is a fresh block and a copy), and doubling
    /// leaves up to half of it unused.
    pub fn reserve_links(&mut self, additional: usize) {
        self.fabric.links.reserve_exact(additional);
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
        self.fabric.connect(a, b, params, label.into())
    }

    /// Bind an address to a node (a node may hold many addresses; the
    /// fat-tree path aliases rely on this).
    ///
    /// # Panics
    /// Panics if the address is already bound; [`Sim::try_bind_addr`]
    /// reports it instead.
    pub fn bind_addr(&mut self, addr: Addr, node: NodeId) {
        self.try_bind_addr(addr, node)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Non-panicking [`Sim::bind_addr`]: reports a duplicate binding as a
    /// typed [`ConfigError`] instead of aborting.
    pub fn try_bind_addr(&mut self, addr: Addr, node: NodeId) -> Result<(), ConfigError> {
        self.fabric.bind_addr(addr, node)
    }

    /// Iterate all bound `(address, node)` pairs in address order.
    pub fn addresses(&self) -> impl Iterator<Item = (Addr, NodeId)> + '_ {
        self.fabric.addresses()
    }

    /// Node owning `addr`, if bound.
    pub fn lookup_addr(&self, addr: Addr) -> Option<NodeId> {
        self.fabric.lookup_addr(addr)
    }

    /// Immutable node access.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.fabric.nodes[id.0 as usize]
    }

    /// Immutable link access.
    pub fn link(&self, id: LinkId) -> &Link<P> {
        &self.fabric.links[id.0 as usize]
    }

    /// Iterate all links with their ids.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, &Link<P>)> {
        let links = self.fabric.links.iter().enumerate();
        links.map(|(i, l)| (LinkId(i as u32), l))
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.fabric.nodes.len()
    }

    /// Change a link's fault-injection drop probability at runtime
    /// (both directions). `p = 1.0` blackholes the link — the simulator's
    /// model of a link failure (the torus experiment closes L3 mid-run).
    pub fn set_link_drop_prob(&mut self, link: LinkId, p: f64) {
        self.try_set_link_drop_prob(link, p)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Non-panicking [`Sim::set_link_drop_prob`]: reports an out-of-range
    /// probability or an unknown link as a typed [`ConfigError`] instead
    /// of aborting.
    pub fn try_set_link_drop_prob(&mut self, link: LinkId, p: f64) -> Result<(), ConfigError> {
        self.fabric.set_link_drop_prob(link, p)
    }

    /// Install a [`FaultPlan`]: apply its per-link loss/corruption rates
    /// and schedule its timeline on the engine. May be called before or
    /// during a run (events must not be in the past); installing several
    /// plans accumulates. An empty plan changes nothing — no RNG stream is
    /// touched and no event is scheduled, so results stay bit-identical to
    /// a run without fault machinery.
    ///
    /// # Panics
    /// Panics on out-of-range probabilities, past-dated timeline events and
    /// unknown link or node ids; [`Sim::try_install_fault_plan`] reports
    /// them instead.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) {
        self.try_install_fault_plan(plan)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Non-panicking [`Sim::install_fault_plan`]: validates the whole plan
    /// (probability ranges, no past-dated events, every link and node id
    /// known) **before** applying any of it, so a rejected plan leaves the
    /// sim untouched.
    pub fn try_install_fault_plan(&mut self, plan: &FaultPlan) -> Result<(), ConfigError> {
        let now = self.engine.now();
        let first = self.faults.install(plan, now, &mut self.fabric)?;
        for (idx, &(at, _)) in (first..).zip(&plan.timeline) {
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
        self.fabric.take_link_down(link, self.engine.now());
    }

    /// Repair both directions of `link`. In-flight state was already
    /// purged at failure.
    pub fn bring_link_up(&mut self, link: LinkId) {
        self.fabric.bring_link_up(link);
    }

    /// Packets dropped for lack of a route (only under
    /// [`SimTuning::drop_unroutable`]).
    pub fn unroutable_drops(&self) -> u64 {
        self.ledger.unroutable
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
        self.ledger.conservation(self.fabric.in_network()?)
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
        if let Err(e) = self.try_audit_conservation() {
            failures.push(e);
        }
        if let Err(e) = self.engine.check_integrity() {
            failures.push(format!("event queue integrity: {e}"));
        }
        state.observe(&self.fabric.links, failures);
        self.hosts.timers.audit(self.engine.now(), failures);
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
        self.schedule_timer(at, node, u64::MAX, u64::MAX);
    }

    /// Test-only hook: force a `(node, token)` timer's schedule-generation
    /// counter (keeping any tracked event consistent), so tests can place
    /// the counter just below `u64::MAX` and exercise orphan detection
    /// across the wraparound.
    #[doc(hidden)]
    pub fn debug_set_timer_gen(&mut self, node: NodeId, token: u64, gen: u64) {
        self.hosts.timers.set_gen(node, token, gen);
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
        self.call_agent(node, |agent, ctx| {
            let agent = agent.as_any_mut().downcast_mut::<T>();
            f(agent.expect("agent type mismatch"), ctx)
        })
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
        while let Some((_, ev)) = self.engine.pop_at_or_before(deadline) {
            self.prefetch_ahead();
            self.handle(ev);
            while let Some((node, code)) = self.hosts.signals.pop_front() {
                on_signal(self, node, code);
            }
        }
        // The window is closed: whatever the driver does at `deadline`
        // comes after every departure at or before it.
        self.fabric.retire_departures(deadline);
        self.observers.profile.run_wall_ns += wall.elapsed().as_nanos() as u64;
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
            let ingress = self.fabric.links.get(link.0 as usize);
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
        self.fabric.retire_departures(t);
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
    /// [`ConfigError::HybridDisabled`] without the tuning flag, and
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
        assert!(!spec.subflows.is_empty(), "fluid flow needs >= 1 subflow");
        let mss = ByteSize::from_bytes(spec.mss as u64);
        let mut subs = Vec::with_capacity(spec.subflows.len());
        for sf in &spec.subflows {
            let (path, hops) = self
                .fabric
                .path(spec.src_node, sf.local_port, sf.dst, sf.flow)
                .ok_or(ConfigError::FluidPathTooLong { flow: sf.flow })?;
            let mut rtt_ns = 0u64;
            let mut cap = f64::INFINITY;
            for &(link, _) in &path[..hops] {
                let l = &self.fabric.links[link.0 as usize];
                // Base RTT: serialization + propagation per hop, both ways
                // (the reverse path is approximated as symmetric; ACKs are
                // small, so the data-direction serialization dominates).
                rtt_ns += 2 * (l.bandwidth.transmission_time(mss) + l.delay).as_nanos();
                cap = cap.min(l.bandwidth.as_bps() as f64 / 8.0);
            }
            let rtt = SimDuration::from_nanos(rtt_ns);
            subs.push(crate::fluid::subflow(path, hops as u8, rtt, cap));
        }
        let fluid = self.fluid.get_or_insert_with(Default::default);
        let (id, first) = fluid.open_flow(spec, subs, self.engine.now());
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
        let now = self.engine.now();
        self.fluid.as_mut()?.stop(id.0, now, &mut self.fabric.links)
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
        match self.fabric.next_hop(node, in_port, dst, flow) {
            Ok(Hop::Out(port, _, _)) => port,
            Ok(Hop::Home) => panic!("route_on called on a host"),
            Err(e) => panic!("{e}"),
        }
    }

    fn schedule_timer(&mut self, at: SimTime, node: NodeId, token: u64, gen: u64) {
        let ev = NetEvent::Timer { node, token, gen };
        self.engine.schedule_keyed(at, timer_key(node), ev);
    }

    /// Schedule the sampling tick after now, unless the probes are gone or
    /// past their configured end.
    fn schedule_next_sample(&mut self) {
        if let Some(next) = self.observers.next_tick(self.engine.now()) {
            self.engine
                .schedule_keyed(next, SAMPLE_KEY, NetEvent::Sample);
        }
    }

    fn handle(&mut self, ev: NetEvent<P>) {
        let profile = &mut self.observers.profile;
        match ev {
            NetEvent::TxDone { .. } => {}
            NetEvent::Deliver {
                link,
                dir,
                gen,
                pkt,
            } => {
                profile.deliver += 1;
                self.on_deliver(link, dir, gen, pkt);
            }
            NetEvent::Timer { node, token, gen } => {
                profile.timer += 1;
                self.on_timer(node, token, gen);
            }
            NetEvent::Fault { idx } => {
                profile.fault += 1;
                self.on_fault(idx);
            }
            NetEvent::Sample => {
                profile.sample += 1;
                let (now, hybrid) = (self.engine.now(), self.tuning.hybrid);
                self.observers.on_sample(now, &mut self.fabric, hybrid);
                self.schedule_next_sample();
            }
            NetEvent::Fluid { id } => {
                profile.fluid_ticks += 1;
                self.on_fluid(id);
            }
        }
    }

    /// One fluid rate-update tick: advance the flow's hop backlogs, step
    /// its subflow windows against the path congestion signals, and re-arm.
    fn on_fluid(&mut self, id: u32) {
        let Some(fluid) = self.fluid.as_mut() else {
            return; // stopped wholesale mid-run; the event rides out
        };
        let out = fluid.tick(id, self.engine.now(), &mut self.fabric.links);
        if let Some((node, code)) = out.completed {
            // Same out-of-band channel transport completions use; the
            // driver's `run_until` callback picks it up this event round.
            self.hosts.signals.push_back((node, code));
        }
        if let Some(next) = out.next {
            self.engine
                .schedule_keyed(next, fluid_key(id), NetEvent::Fluid { id });
        }
    }

    fn on_fault(&mut self, idx: u32) {
        let now = self.engine.now();
        match self.faults.get(idx) {
            FaultEvent::LinkDown(l) => self.fabric.take_link_down(l, now),
            FaultEvent::LinkUp(l) => self.fabric.bring_link_up(l),
            FaultEvent::SwitchDown(n) => self.fabric.take_switch_down(n, now),
        }
    }

    /// A packet reached the far end of `(link, dir)`: the receive side of
    /// the link, then the forwarding step — home to the host's agent, or
    /// on to the egress the switch's router names.
    fn on_deliver(&mut self, link: LinkId, dir: u8, gen: u32, pkt: Packet<P>) {
        let d = self.fabric.links[link.0 as usize].dir_mut(dir);
        d.in_network -= 1;
        if gen != d.fail_gen {
            // The link failed while this packet was in the pipeline.
            d.stats.blackholed += 1;
            self.ledger.dropped += 1;
            return;
        }
        if d.fault.corrupt_prob > 0.0 && d.corrupt_rng.chance(d.fault.corrupt_prob) {
            // The frame failed its checksum at the receiver: it consumed
            // its full wire time (unlike a fault drop) but is discarded.
            // Drawn per *delivery*, in the FIFO order packets leave the
            // direction.
            d.stats.corrupted += 1;
            self.ledger.dropped += 1;
            return;
        }
        d.stats.delivered += 1;
        d.stats.delivered_bytes += pkt.size;
        let (to_node, to_port) = (d.to_node, d.to_port);
        match self.fabric.next_hop(to_node, to_port, pkt.dst, pkt.flow) {
            Ok(Hop::Home) => {
                self.ledger.delivered += 1;
                self.call_agent(to_node, |agent, ctx| agent.on_packet(pkt, to_port, ctx));
            }
            Ok(Hop::Out(_, out_link, out_dir)) => {
                let node = &self.fabric.nodes[to_node.0 as usize];
                assert!(
                    !(out_link == link && out_dir == dir ^ 1) || node.ports.len() == 1,
                    "switch {} bounced {:?} back out its ingress",
                    node.label,
                    pkt.flow
                );
                self.enqueue_on(out_link, out_dir, pkt);
            }
            Err(e) if !self.tuning.drop_unroutable => panic!("{e}"),
            Err(_) => {
                // No usable route: count and drop instead of
                // panicking (`SimTuning::drop_unroutable`).
                self.ledger.unroutable += 1;
                self.ledger.dropped += 1;
            }
        }
    }

    fn on_timer(&mut self, node: NodeId, token: u64, gen: u64) {
        match self
            .hosts
            .timers
            .expire(node, token, gen, self.engine.now())
        {
            Expiry::Ignore => {}
            Expiry::Rearm { at, gen } => self.schedule_timer(at, node, token, gen),
            Expiry::Fire => self.call_agent(node, |agent, ctx| agent.on_timer(token, ctx)),
        }
    }

    /// Run `f` on `node`'s agent now, then do what the agent asked for.
    fn call_agent<R>(&mut self, node: NodeId, f: impl FnOnce(&mut A, &mut Ctx<'_, P>) -> R) -> R {
        let now = self.engine.now();
        let profile = &mut self.observers.profile;
        let (r, mut emits) = self.hosts.call(node, now, profile, f);
        for emit in emits.drain(..) {
            match emit {
                Emit::Send { port, pkt } => {
                    let (link, dir) = self.fabric.port(node, port);
                    self.ledger.injected += 1;
                    self.enqueue_on(link, dir, pkt);
                }
                Emit::SetTimer { token, at } => {
                    let at = at.max(now);
                    if let Some(gen) = self.hosts.timers.arm(node, token, at) {
                        self.schedule_timer(at, node, token, gen);
                    }
                }
                Emit::CancelTimer { token } => self.hosts.timers.cancel(node, token),
                Emit::Signal(code) => self.hosts.signals.push_back((node, code)),
            }
        }
        self.hosts.recycle(emits);
        r
    }

    /// Offer `pkt` to a link direction (`Direction::offer` decides and
    /// books its transmission window) and, when accepted, schedule its
    /// arrival at the far end directly: one engine event per packet-hop.
    fn enqueue_on(&mut self, link: LinkId, dir: u8, mut pkt: Packet<P>) {
        let (now, hybrid) = (self.engine.now(), self.tuning.hybrid);
        let Some(Booked {
            marked,
            arrives,
            gen,
        }) = self.fabric.offer(link, dir, now, hybrid, &mut pkt)
        else {
            self.ledger.dropped += 1;
            return;
        };
        if marked {
            if let Some(p) = self.observers.probes.as_mut() {
                p.on_mark(now, link, dir);
            }
        }
        let ev = NetEvent::Deliver {
            link,
            dir,
            gen,
            pkt,
        };
        self.engine
            .schedule_keyed(arrives, deliver_key(link, dir), ev);
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

    /// The per-direction counters tell a packet's whole life: offered,
    /// marked or dropped at the port, delivered at the far end.
    #[test]
    fn tracing_records_the_packet_life_cycle() {
        let mut sim: Sim<u64> = Sim::new(1);
        let a = sim.add_host("a", Box::new(Probe::default()));
        let b = sim.add_host("b", Box::new(Probe::default()));
        let l = sim.connect(
            a,
            b,
            &LinkParams::new(
                Bandwidth::from_mbps(10),
                SimDuration::from_micros(1),
                QdiscConfig::EcnThreshold { cap: 3, k: 1 },
            ),
            "l",
        );
        let (sa, da) = (Addr::new(10, 0, 0, 1), Addr::new(10, 0, 0, 2));
        sim.with_agent::<Probe, _>(a, |_, ctx| {
            for i in 0..6 {
                let mut p = pkt(sa, da, i);
                p.ecn = Ecn::Ect;
                ctx.send(PortId(0), p);
            }
        });
        sim.run_until_quiet(SimTime::from_secs(1));
        // 6 offered: 1 straight to the wire, 1 unmarked enqueue, 2 marked,
        // 2 overflow drops; the 4 accepted are delivered.
        let s = &sim.link(l).dir(0).stats;
        assert_eq!(s.dropped, 2);
        assert_eq!(s.marked, 2);
        assert_eq!(s.enqueued, 4);
        assert_eq!(s.delivered, 4);
        sim.audit_conservation();
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
        sim.with_agent::<Probe, _>(h1, |_, ctx| {
            for i in 0..4 {
                ctx.send(PortId(0), pkt(a1, a2, i));
            }
            // An address bound nowhere takes the same graceful path.
            ctx.send(PortId(0), pkt(a1, Addr::new(9, 9, 9, 9), 99));
        });
        sim.run_until_quiet(SimTime::from_millis(1));
        assert_eq!(sim.unroutable_drops(), 5);
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

    /// A plan naming a link or node the sim does not have is rejected
    /// whole — as are the setters — and a rejected plan changes nothing:
    /// not the rates it set before the bad entry, not the timeline, not
    /// the engine.
    #[test]
    fn rejected_fault_plan_leaves_the_sim_untouched() {
        let mut sim: Sim<u64> = Sim::new(1);
        let a = sim.add_host("a", Box::new(Probe::default()));
        let b = sim.add_host("b", Box::new(Probe::default()));
        let l = sim.connect(a, b, &params_1g(), "ab");
        let (bad_link, bad_node) = (LinkId(1), NodeId(2));
        let at = SimTime::from_millis(1);
        let good = FaultPlan::new().drop_rate(l, 0.25).link_down(at, l);
        for (plan, want) in [
            (
                good.clone().corrupt_rate(bad_link, 0.5),
                ConfigError::UnknownLink { link: bad_link },
            ),
            (
                good.clone().link_down(at, bad_link),
                ConfigError::UnknownLink { link: bad_link },
            ),
            (
                good.clone().link_up(at, bad_link),
                ConfigError::UnknownLink { link: bad_link },
            ),
            (
                good.clone().switch_down(at, bad_node),
                ConfigError::UnknownNode { node: bad_node },
            ),
        ] {
            assert_eq!(sim.try_install_fault_plan(&plan), Err(want));
            assert_eq!(sim.link(l).dir(0).fault.drop_prob, 0.0);
            assert_eq!(sim.faults, FaultTimeline::default());
            assert_eq!(sim.events_scheduled(), 0);
        }
        assert_eq!(
            sim.try_set_link_drop_prob(bad_link, 0.5),
            Err(ConfigError::UnknownLink { link: bad_link })
        );
        // The same plan without the bad entry installs, and runs.
        assert_eq!(sim.try_install_fault_plan(&good), Ok(()));
        assert_eq!(sim.link(l).dir(1).fault.drop_prob, 0.25);
        assert_eq!(sim.events_scheduled(), 1);
        sim.run_until_quiet(SimTime::from_millis(2));
        assert!(sim.link(l).dir(0).is_down());
    }

    /// Paced source + sink: bursts 3 packets to a fixed peer on each of 30
    /// timer ticks 150 µs apart, records arrivals, raises a signal per
    /// delivery.
    struct Pacer {
        src: Addr,
        dst: Addr,
        flow: u64,
        ticks: u64,
        received: Vec<(u64, u64)>,
    }

    impl Agent<u64> for Pacer {
        fn on_packet(&mut self, pkt: Packet<u64>, _port: PortId, ctx: &mut Ctx<'_, u64>) {
            self.received.push((ctx.now().as_nanos(), pkt.payload));
            ctx.signal(pkt.payload);
        }
        fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_, u64>) {
            for i in 0..3 {
                let payload = self.flow * 1_000_000 + self.ticks * 100 + i;
                let size = ByteSize::from_bytes(1500);
                let pkt = Packet::new(
                    self.src,
                    self.dst,
                    FlowId(self.flow),
                    Ecn::Ect,
                    size,
                    payload,
                );
                ctx.send(PortId(0), pkt);
            }
            self.ticks += 1;
            if self.ticks < 30 {
                ctx.set_timer(0, ctx.now() + SimDuration::from_micros(150));
            }
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Two "pods" (switch + two hosts each) joined by one lossy, corrupting
    /// trunk that fails and is repaired mid-run, with marked probes on it;
    /// all four paced flows cross it, and the driver injects one extra
    /// packet at 2 ms. Host arrivals, per-direction stats, signals, probe
    /// records and the audit are held to the outcome recorded from the
    /// two-event (`TxDone` + `Deliver`) link pipeline at commit ce843ca.
    #[test]
    fn paced_two_pod_run_matches_the_recorded_outcome() {
        const RECORDED: u64 = 3211794231008737860;
        let mut sim: Sim<u64> = Sim::new(42);
        let a = |i: u8| Addr::new(10, 0, 0, i);
        let ecn = QdiscConfig::EcnThreshold { cap: 64, k: 4 };
        let link = |us| {
            LinkParams::new(
                Bandwidth::from_gbps(1),
                SimDuration::from_micros(us),
                ecn.clone(),
            )
        };
        let pacer = |src: u8, dst: u8, flow| -> Box<dyn Agent<u64>> {
            let (src, dst) = (a(src), a(dst));
            Box::new(Pacer {
                src,
                dst,
                flow,
                ticks: 0,
                received: Vec::new(),
            })
        };
        let h0 = sim.add_host("h0", pacer(1, 3, 1));
        let h1 = sim.add_host("h1", pacer(2, 4, 2));
        let sw0 = sim.add_switch("sw0", Box::new(StaticRouter::new()));
        let h2 = sim.add_host("h2", pacer(3, 1, 3));
        let h3 = sim.add_host("h3", pacer(4, 2, 4));
        let sw1 = sim.add_switch("sw1", Box::new(StaticRouter::new()));
        sim.connect(h0, sw0, &link(20), "h0-sw0"); // sw0 port 0
        sim.connect(h1, sw0, &link(20), "h1-sw0"); // sw0 port 1
        let trunk = sim.connect(sw0, sw1, &link(40), "sw0-sw1"); // sw0 p2, sw1 p0
        sim.connect(h2, sw1, &link(20), "h2-sw1"); // sw1 port 1
        sim.connect(h3, sw1, &link(20), "h3-sw1"); // sw1 port 2
        let hosts = [h0, h1, h2, h3];
        for (i, &h) in hosts.iter().enumerate() {
            sim.bind_addr(a(i as u8 + 1), h);
        }
        let ports = |p: [u16; 4]| {
            let routes = (1..=4).zip(p).map(|(i, port)| (a(i), PortId(port)));
            Box::new(routes.fold(StaticRouter::new(), |r, (dst, port)| r.to(dst, port)))
        };
        sim.set_router(sw0, ports([0, 1, 2, 2]));
        sim.set_router(sw1, ports([0, 0, 1, 2]));
        sim.install_fault_plan(
            &FaultPlan::new()
                .drop_rate(trunk, 0.02)
                .corrupt_rate(trunk, 0.01)
                .link_down(SimTime::from_micros(1500), trunk)
                .link_up(SimTime::from_micros(2500), trunk),
        );
        sim.install_probes(ProbeConfig {
            interval: SimDuration::from_micros(100),
            until: SimTime::from_micros(8000),
            watch: vec![(trunk, 0), (trunk, 1)],
            record_marks: true,
        });
        for h in hosts {
            sim.with_agent::<Pacer, _>(h, |_, ctx| ctx.set_timer(0, SimTime::from_micros(10)));
        }

        let mut sigs = Vec::new();
        sim.run_until(SimTime::from_micros(2000), |_, n, c| sigs.push((n, c)));
        sim.advance_to(SimTime::from_micros(2000));
        sim.with_agent::<Pacer, _>(h0, |p, ctx| {
            let size = ByteSize::from_bytes(700);
            let pkt = Packet::new(p.src, p.dst, FlowId(p.flow), Ecn::Ect, size, 999_999);
            ctx.send(PortId(0), pkt);
        });
        sim.run_until(SimTime::from_micros(8000), |_, n, c| sigs.push((n, c)));
        let audit = sim.audit_conservation();

        use std::fmt::Write;
        let mut seen = String::new();
        writeln!(seen, "clock={:?}", sim.now()).unwrap();
        for h in hosts {
            let recv = sim.with_agent::<Pacer, _>(h, |p, _| p.received.clone());
            writeln!(seen, "host {h:?}: {recv:?}").unwrap();
        }
        for (id, l) in sim.links() {
            for d in 0..2 {
                writeln!(seen, "{id:?}/{d}: {:?}", l.dirs[d].stats).unwrap();
            }
        }
        let p = sim.profile();
        writeln!(seen, "deliver={} timer={}", p.deliver, p.timer).unwrap();
        let records = sim
            .take_probes()
            .expect("probes installed")
            .records()
            .to_vec();
        let observed = (seen, sigs, records, audit);
        // FNV-1a over everything observed.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in format!("{observed:?}").bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        assert_eq!(h, RECORDED);
    }
}
