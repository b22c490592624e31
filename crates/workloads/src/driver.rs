//! The flow driver: holds each flow's schedule (start, subflow joins,
//! stop) as one time-ordered action queue, tracks completions, keeps
//! per-flow records, and bins per-subflow rates for the time-series
//! figures.

use crate::scheme::Scheme;
use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use xmp_core::CcKind;
use xmp_des::{SimDuration, SimTime};
use xmp_netsim::hash::FxHashMap;
use xmp_netsim::{
    Agent, Ctx, FlowId, FluidFlowStats, FluidId, FluidSpec, FluidSubflowSpec, NodeId,
    PartitionedSim, Sim,
};
use xmp_topo::FlowCategory;
use xmp_transport::{
    CcSnapshot, CongestionControl, ConnKey, HostStack, Segment, SubflowSpec, DEFAULT_MSS,
};

/// The host agent the driver manages: a [`HostStack`] whose congestion
/// controllers are the statically dispatched [`CcKind`] enum. Simulations
/// may store hosts either as plain `Host` values (`Sim<Segment, Host>`,
/// the devirtualized fast path) or behind `Box<dyn Agent<Segment>>` (the
/// `Sim` default); the driver's downcasts work identically in both because
/// a `Box`ed agent delegates `as_any_mut` to the inner stack.
pub type Host = HostStack<CcKind>;

/// A simulation the driver can run flows on: the serial [`Sim`] or a
/// [`PartitionedSim`] sharded across worker threads. Every [`Driver`]
/// method is generic over this handle, so the same experiment code drives
/// either backend — the `workers` knob in the experiments crate is just a
/// choice of `FlowSim` implementation.
///
/// Completion callbacks on a partitioned sim fire at window boundaries in
/// serial event order (see the partitioning module docs): harvest-only
/// workloads observe bit-identical records; callbacks that *chain new
/// flows* see them start at the window end rather than mid-window.
pub trait FlowSim {
    /// Current driver-visible time.
    fn now(&self) -> SimTime;
    /// Advance the clock without processing events (panics if events at or
    /// before `t` are pending).
    fn advance_to(&mut self, t: SimTime);
    /// Run driver code against the [`Host`] stack on `node`.
    fn with_host<R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut Host, &mut Ctx<'_, Segment>) -> R,
    ) -> R;
    /// Process events up to and including `deadline`, handing agent
    /// signals to `on_signal`.
    fn run_signals(&mut self, deadline: SimTime, on_signal: impl FnMut(&mut Self, NodeId, u64));

    /// Whether this backend can host fluid flows (`SimTuning::hybrid` on a
    /// serial [`Sim`]). When `false` — the default — the driver keeps
    /// every flow packet-level, so the fluid threshold degrades to a
    /// no-op instead of an error on backends without a fluid plane.
    fn fluid_supported(&self) -> bool {
        false
    }
    /// Register a fluid flow; `None` when unsupported (the driver then
    /// falls back to a packet-level flow).
    fn fluid_open(&mut self, spec: &FluidSpec) -> Option<FluidId> {
        let _ = spec;
        None
    }
    /// Progress snapshot of a fluid flow.
    fn fluid_stats(&self, id: FluidId) -> Option<FluidFlowStats> {
        let _ = id;
        None
    }
    /// Stop a fluid flow, withdrawing its rates; returns the final stats.
    fn fluid_stop(&mut self, id: FluidId) -> Option<FluidFlowStats> {
        let _ = id;
        None
    }
}

impl<A: Agent<Segment>> FlowSim for Sim<Segment, A> {
    fn now(&self) -> SimTime {
        Sim::now(self)
    }
    fn advance_to(&mut self, t: SimTime) {
        Sim::advance_to(self, t);
    }
    fn with_host<R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut Host, &mut Ctx<'_, Segment>) -> R,
    ) -> R {
        self.with_agent::<Host, _>(node, f)
    }
    fn run_signals(&mut self, deadline: SimTime, on_signal: impl FnMut(&mut Self, NodeId, u64)) {
        self.run_until(deadline, on_signal);
    }
    fn fluid_supported(&self) -> bool {
        self.tuning().hybrid
    }
    fn fluid_open(&mut self, spec: &FluidSpec) -> Option<FluidId> {
        Sim::fluid_open(self, spec).ok()
    }
    fn fluid_stats(&self, id: FluidId) -> Option<FluidFlowStats> {
        Sim::fluid_stats(self, id)
    }
    fn fluid_stop(&mut self, id: FluidId) -> Option<FluidFlowStats> {
        Sim::fluid_stop(self, id)
    }
}

impl<A: Agent<Segment> + Send> FlowSim for PartitionedSim<Segment, A> {
    fn now(&self) -> SimTime {
        PartitionedSim::now(self)
    }
    fn advance_to(&mut self, t: SimTime) {
        PartitionedSim::advance_to(self, t);
    }
    fn with_host<R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut Host, &mut Ctx<'_, Segment>) -> R,
    ) -> R {
        self.with_agent::<Host, _>(node, f)
    }
    fn run_signals(&mut self, deadline: SimTime, on_signal: impl FnMut(&mut Self, NodeId, u64)) {
        self.run_until(deadline, on_signal);
    }
}

/// Record of one flow's life.
#[derive(Debug, Clone)]
pub struct FlowRecord {
    /// Connection key.
    pub conn: ConnKey,
    /// Sending host.
    pub src_node: NodeId,
    /// Scheme label (e.g. "XMP-2").
    pub scheme: String,
    /// Transfer size in bytes (`u64::MAX` = unbounded background flow).
    pub size: u64,
    /// Number of subflows.
    pub subflows: usize,
    /// Locality class, when the topology defines one.
    pub category: Option<FlowCategory>,
    /// Free-form tag the patterns use (e.g. job index).
    pub tag: u64,
    /// Scheduled start.
    pub start: SimTime,
    /// Completion time, if the last byte was acknowledged.
    pub completed: Option<SimTime>,
    /// Goodput over the flow's lifetime (bits/s), filled at completion.
    pub goodput_bps: f64,
    /// Mean of the sender's RTT samples (ns), 0 if none.
    pub mean_rtt_ns: u64,
    /// Retransmission timeouts.
    pub rtos: u64,
    /// Fast retransmits.
    pub fast_retransmits: u64,
}

/// Everything needed to start one flow.
#[derive(Debug)]
pub struct FlowSpecBuilder {
    /// Sending host node.
    pub src_node: NodeId,
    /// Per-subflow path bindings.
    pub subflows: Vec<SubflowSpec>,
    /// Bytes to transfer (`u64::MAX` = unbounded).
    pub size: u64,
    /// Congestion-control scheme.
    pub scheme: Scheme,
    /// Start time.
    pub start: SimTime,
    /// Locality class, if known.
    pub category: Option<FlowCategory>,
    /// Pattern tag (job index etc.).
    pub tag: u64,
}

/// What a scheduled action does to its flow, and when (a start carries its
/// time in the spec).
enum Action {
    Start(FlowSpecBuilder),
    Join(SimTime, SubflowSpec),
    Stop(SimTime),
}

struct Pending {
    conn: ConnKey,
    action: Action,
}

impl Pending {
    fn at(&self) -> SimTime {
        match &self.action {
            Action::Start(spec) => spec.start,
            Action::Join(at, _) | Action::Stop(at) => *at,
        }
    }
}

/// Flow lifecycle manager over a [`Sim`] whose hosts run [`Host`] stacks.
#[derive(Default)]
pub struct Driver {
    next_conn: ConnKey,
    // Scheduled actions in *descending* order (see `schedule`); due ones
    // pop off the back. The tie rule is on `Driver::run`.
    pending: Vec<Pending>,
    // BTreeMap, not HashMap: metrics fold over `records()` (float sums,
    // CDF inputs), so iteration order must be deterministic — submission
    // order via the monotonically assigned ConnKey.
    records: BTreeMap<ConnKey, FlowRecord>,
    completed: u64,
    // Hybrid mode: flows at least this many bytes (unbounded included)
    // start as fluid elephants instead of packet-level connections, when
    // the backend supports it. `None` (default) keeps everything packet.
    fluid_threshold: Option<u64>,
    // Fluid handle per offloaded connection.
    fluid: BTreeMap<ConnKey, FluidId>,
    // Reused by `subflow_snapshots` so steady-state observation never
    // allocates; cleared at the start of each call.
    snap_scratch: Vec<SubflowSnapshot>,
}

impl Driver {
    /// Empty driver.
    pub fn new() -> Self {
        Driver::default()
    }

    /// Offload flows of at least `bytes` (unbounded flows always qualify)
    /// to the fluid plane when the backend reports
    /// [`FlowSim::fluid_supported`]. On a non-hybrid backend the threshold
    /// is inert: every flow stays packet-level.
    pub fn set_fluid_threshold(&mut self, bytes: Option<u64>) {
        self.fluid_threshold = bytes;
    }

    /// Whether a connection was offloaded to the fluid plane.
    pub fn is_fluid(&self, conn: ConnKey) -> bool {
        self.fluid.contains_key(&conn)
    }

    /// Reserve a fresh connection key.
    pub fn alloc_conn(&mut self) -> ConnKey {
        self.next_conn += 1;
        self.next_conn
    }

    /// Queue a flow for its start time. Returns the connection key.
    pub fn submit(&mut self, spec: FlowSpecBuilder) -> ConnKey {
        let conn = self.alloc_conn();
        self.records.insert(
            conn,
            FlowRecord {
                conn,
                src_node: spec.src_node,
                scheme: spec.scheme.label(),
                size: spec.size,
                subflows: spec.subflows.len(),
                category: spec.category,
                tag: spec.tag,
                start: spec.start,
                completed: None,
                goodput_bps: 0.0,
                mean_rtt_ns: 0,
                rtos: 0,
                fast_retransmits: 0,
            },
        );
        self.schedule(conn, Action::Start(spec));
        conn
    }

    /// Declare that `conn` stops at `at`: [`Driver::stop_flow`], fired by
    /// [`Driver::run`] at that instant (a no-op on a completed or unknown
    /// flow, like the immediate form).
    pub fn stop_at(&mut self, conn: ConnKey, at: SimTime) {
        self.schedule(conn, Action::Stop(at));
    }

    /// Declare that `conn` joins the extra subflow `spec` at `at`:
    /// [`Driver::add_subflow`], fired by [`Driver::run`] at that instant.
    /// Panics on an unknown flow, like the immediate form; a join that
    /// comes due when the flow is not sending (not yet started, completed,
    /// stopped) is skipped.
    pub fn add_subflow_at(&mut self, conn: ConnKey, at: SimTime, spec: SubflowSpec) {
        assert!(
            self.records.contains_key(&conn),
            "add_subflow_at on unknown flow {conn}"
        );
        self.schedule(conn, Action::Join(at, spec));
    }

    fn schedule(&mut self, conn: ConnKey, action: Action) {
        // Sorted by time, at one instant starts before joins and stops; among
        // equal keys a start goes to the back (popped first), a join or stop
        // to the front (popped last): see the tie rule on `run`.
        let key = |p: &Pending| (p.at(), !matches!(p.action, Action::Start(_)));
        let new = Pending { conn, action };
        let k = key(&new);
        let pos = self
            .pending
            .partition_point(|p| key(p) > k || (!k.1 && key(p) == k));
        self.pending.insert(pos, new);
    }

    /// Number of completed flows so far.
    pub fn completed_count(&self) -> u64 {
        self.completed
    }

    /// All flow records (completed and not).
    pub fn records(&self) -> impl Iterator<Item = &FlowRecord> {
        self.records.values()
    }

    /// One record.
    pub fn record(&self, conn: ConnKey) -> Option<&FlowRecord> {
        self.records.get(&conn)
    }

    /// Run the simulation until `until`, firing every scheduled action
    /// (flow start, subflow join, stop) at its instant and invoking
    /// `on_complete(sim, driver, conn)` as flows finish (the callback may
    /// submit more flows or stop unbounded ones). Works over any
    /// [`FlowSim`]: pass a serial [`Sim`] or a [`PartitionedSim`].
    ///
    /// An action fires after every event at or before its instant. At one
    /// instant starts fire first, most recently submitted first (the order
    /// every recorded digest was taken in), then joins and stops in the
    /// order they were declared. An action declared for a time already
    /// passed fires at the next `run`.
    pub fn run<S: FlowSim>(
        &mut self,
        sim: &mut S,
        until: SimTime,
        mut on_complete: impl FnMut(&mut S, &mut Driver, ConnKey),
    ) {
        loop {
            self.fire_due(sim);
            // Advance to the next scheduled action or the deadline.
            let stop = match self.pending.last().map(Pending::at) {
                Some(t) if t <= until => t,
                _ => until,
            };
            sim.run_signals(stop, |sim2, node, conn| {
                // The stack signals the connection key on completion; the
                // callback may chain follow-up flows starting *now*.
                Self::harvest(
                    &mut self.records,
                    &mut self.completed,
                    &self.fluid,
                    sim2,
                    node,
                    conn,
                );
                on_complete(sim2, self, conn);
                self.fire_due(sim2);
            });
            sim.advance_to(stop);
            // Done once the deadline is reached and nothing is due at it.
            if stop >= until && self.pending.last().is_none_or(|p| p.at() > sim.now()) {
                break;
            }
        }
    }

    /// Fire every scheduled action whose time has been reached.
    fn fire_due<S: FlowSim>(&mut self, sim: &mut S) {
        while self.pending.last().is_some_and(|p| p.at() <= sim.now()) {
            let Pending { conn, action } = self.pending.pop().expect("checked non-empty");
            match action {
                Action::Start(spec) => self.start_now(sim, spec, conn),
                Action::Join(_, spec) => {
                    let node = self.records[&conn].src_node;
                    if sim.with_host(node, |stack, _| stack.sender(conn).is_some()) {
                        self.add_subflow(sim, conn, spec);
                    }
                }
                Action::Stop(_) => self.stop_flow(sim, conn),
            }
        }
    }

    fn start_now<S: FlowSim>(&mut self, sim: &mut S, spec: FlowSpecBuilder, conn: ConnKey) {
        let is_elephant = self.fluid_threshold.is_some_and(|t| spec.size >= t);
        if !(is_elephant && sim.fluid_supported() && self.start_fluid(sim, &spec, conn)) {
            let cc = spec.scheme.make_cc();
            sim.with_host(spec.src_node, |stack, ctx| {
                stack.open(ctx, conn, spec.subflows, spec.size, cc);
            });
        }
        if let Some(rec) = self.records.get_mut(&conn) {
            rec.start = sim.now().max(rec.start);
        }
    }

    /// Open `spec` on the fluid plane. The subflow flow-ids reproduce the
    /// packet stack's `(conn << 3) | r` derivation, so each fluid subflow
    /// is ECMP-routed over exactly the path its packet twin would take.
    fn start_fluid<S: FlowSim>(
        &mut self,
        sim: &mut S,
        spec: &FlowSpecBuilder,
        conn: ConnKey,
    ) -> bool {
        let fspec = FluidSpec {
            src_node: spec.src_node,
            code: conn,
            cc: spec.scheme.fluid_cc(),
            size: (spec.size != u64::MAX).then_some(spec.size),
            mss: DEFAULT_MSS,
            subflows: spec
                .subflows
                .iter()
                .enumerate()
                .map(|(r, sf)| FluidSubflowSpec {
                    local_port: sf.local_port,
                    dst: sf.dst,
                    flow: FlowId((conn << 3) | r as u64),
                })
                .collect(),
        };
        match sim.fluid_open(&fspec) {
            Some(id) => {
                self.fluid.insert(conn, id);
                true
            }
            None => false,
        }
    }

    fn harvest<S: FlowSim>(
        records: &mut BTreeMap<ConnKey, FlowRecord>,
        completed: &mut u64,
        fluid: &BTreeMap<ConnKey, FluidId>,
        sim: &mut S,
        node: NodeId,
        conn: ConnKey,
    ) {
        let Some(rec) = records.get_mut(&conn) else {
            return;
        };
        if rec.completed.is_some() {
            return;
        }
        if let Some(&fid) = fluid.get(&conn) {
            if let Some(stats) = sim.fluid_stats(fid) {
                Self::fill_fluid(rec, &stats, sim.now());
            }
            *completed += 1;
            return;
        }
        let now = sim.now();
        sim.with_host(node, |stack, _| {
            if let Some(stats) = stack.conn_stats(conn) {
                rec.completed = stats.completed;
                rec.goodput_bps = stats.goodput_bps(now);
                rec.mean_rtt_ns = stats.mean_rtt().map_or(0, |d| d.as_nanos());
                rec.rtos = stats.rtos;
                rec.fast_retransmits = stats.fast_retransmits;
            }
            // So a host holds its running senders, not every one it ever
            // opened (an incast cell completes hundreds per host).
            stack.retire(conn);
        });
        *completed += 1;
    }

    /// Copy a fluid snapshot into a flow record (goodput over the flow's
    /// lifetime, like the packet path's `goodput_bps(now)`).
    fn fill_fluid(rec: &mut FlowRecord, stats: &FluidFlowStats, now: SimTime) {
        rec.completed = stats.completed;
        let span = stats
            .completed
            .unwrap_or(now)
            .duration_since(rec.start)
            .as_secs_f64();
        rec.goodput_bps = if span > 0.0 {
            stats.delivered_bytes * 8.0 / span
        } else {
            0.0
        };
        rec.mean_rtt_ns = stats.mean_rtt_ns;
    }

    /// Join an extra subflow on a running flow (the paper's Fig. 6
    /// staggers subflow establishment).
    pub fn add_subflow<S: FlowSim>(&mut self, sim: &mut S, conn: ConnKey, spec: SubflowSpec) {
        let Some(rec) = self.records.get_mut(&conn) else {
            panic!("add_subflow on unknown flow {conn}");
        };
        rec.subflows += 1;
        let node = rec.src_node;
        sim.with_host(node, |stack, ctx| {
            stack.add_subflow(ctx, conn, spec);
        });
    }

    /// Stop an unbounded flow and finalize its record with the stats so
    /// far (used for background flows and for time-limited runs).
    pub fn stop_flow<S: FlowSim>(&mut self, sim: &mut S, conn: ConnKey) {
        let Some(rec) = self.records.get_mut(&conn) else {
            return;
        };
        if let Some(&fid) = self.fluid.get(&conn) {
            if let Some(stats) = sim.fluid_stop(fid) {
                Self::fill_fluid(rec, &stats, sim.now());
            }
            return;
        }
        let node = rec.src_node;
        let now = sim.now();
        sim.with_host(node, |stack, ctx| {
            if let Some(stats) = stack.conn_stats(conn) {
                rec.goodput_bps = stats.goodput_bps(now);
                rec.mean_rtt_ns = stats.mean_rtt().map_or(0, |d| d.as_nanos());
                rec.rtos = stats.rtos;
                rec.fast_retransmits = stats.fast_retransmits;
            }
            stack.close(ctx, conn);
        });
    }

    /// Finalize records of still-running flows without closing them
    /// (end-of-run accounting).
    pub fn finalize_running<S: FlowSim>(&mut self, sim: &mut S) {
        let now = sim.now();
        for rec in self.records.values_mut() {
            if rec.completed.is_some() {
                continue;
            }
            if let Some(&fid) = self.fluid.get(&rec.conn) {
                if let Some(stats) = sim.fluid_stats(fid) {
                    Self::fill_fluid(rec, &stats, now);
                }
                continue;
            }
            let node = rec.src_node;
            let conn = rec.conn;
            sim.with_host(node, |stack, _| {
                if let Some(stats) = stack.conn_stats(conn) {
                    rec.goodput_bps = stats.goodput_bps(now);
                    rec.mean_rtt_ns = stats.mean_rtt().map_or(0, |d| d.as_nanos());
                    rec.rtos = stats.rtos;
                    rec.fast_retransmits = stats.fast_retransmits;
                }
            });
        }
    }

    /// Harvest-only drive loop: run in `slice`-long steps until `deadline`
    /// or until `target` flows completed, calling `each_slice` at every
    /// step boundary, then finalize what is still running. Nothing chains
    /// on completion, so a serial and a partitioned backend process
    /// identical event sets.
    pub fn drive<S: FlowSim>(
        &mut self,
        sim: &mut S,
        deadline: SimTime,
        slice: SimDuration,
        target: usize,
        mut each_slice: impl FnMut(&mut S, &mut Driver),
    ) {
        while sim.now() < deadline && (self.completed as usize) < target {
            let t = (sim.now() + slice).min(deadline);
            self.run(sim, t, |_, _, _| {});
            each_slice(sim, self);
        }
        self.finalize_running(sim);
    }

    /// Digest of everything a serial observer can see of a finished run:
    /// final clock, every flow record, the conservation `audit`, every
    /// probe record and the per-kind event counts. Deliberately absent:
    /// `fault`/`sample` counts (replicated per shard by design) and wall
    /// times.
    pub fn outcome_digest<A: Agent<Segment>>(
        &self,
        sim: &Sim<Segment, A>,
        audit: &impl std::fmt::Debug,
    ) -> u64 {
        let mut h = DefaultHasher::new();
        format!("{:?}", sim.now()).hash(&mut h);
        for r in self.records.values() {
            format!("{r:?}").hash(&mut h);
        }
        format!("{audit:?}").hash(&mut h);
        for r in sim.probes().map_or(&[][..], |p| p.records()) {
            format!("{r:?}").hash(&mut h);
        }
        sim.profile().deliver.hash(&mut h);
        sim.profile().timer.hash(&mut h);
        h.finish()
    }

    /// Instantaneous per-subflow state of a running flow: window,
    /// threshold, SRTT and — for round-based controllers (XMP/BOS) — the
    /// Fig. 2 round bookkeeping. Empty if the flow is unknown or closed.
    /// Pure observation: drives the probe layer's cwnd time series without
    /// perturbing the flow. The returned slice borrows a driver-owned
    /// scratch buffer (reused across calls so sampling loops never
    /// allocate at steady state); it is valid until the next call.
    pub fn subflow_snapshots<S: FlowSim>(
        &mut self,
        sim: &mut S,
        conn: ConnKey,
    ) -> &[SubflowSnapshot] {
        self.snap_scratch.clear();
        let Some(src_node) = self.records.get(&conn).map(|r| r.src_node) else {
            return &self.snap_scratch;
        };
        let scratch = &mut self.snap_scratch;
        sim.with_host(src_node, |stack, _| {
            let Some(sender) = stack.sender(conn) else {
                return;
            };
            let cc = sender.cc();
            scratch.extend(
                sender
                    .view()
                    .iter()
                    .enumerate()
                    .map(|(r, sub)| SubflowSnapshot {
                        subflow: r,
                        cwnd: sub.cwnd,
                        ssthresh: sub.ssthresh,
                        srtt_ns: sub.srtt.map(|d| d.as_nanos()),
                        cc: cc.probe(r),
                    }),
            );
        });
        &self.snap_scratch
    }

    /// Bytes acknowledged so far on subflow `r` of a running flow; 0 for a
    /// flow that is not running or a subflow it has not (yet) joined.
    pub fn subflow_acked<S: FlowSim>(&self, sim: &mut S, conn: ConnKey, r: usize) -> u64 {
        let Some(rec) = self.records.get(&conn) else {
            return 0;
        };
        sim.with_host(rec.src_node, |stack, _| {
            stack
                .sender(conn)
                .filter(|s| r < s.subflow_count())
                .map_or(0, |s| s.subflow_acked(r))
        })
    }
}

/// One subflow's instantaneous congestion state, as returned by
/// [`Driver::subflow_snapshots`] (the probe layer's cwnd series rows).
#[derive(Debug, Clone)]
pub struct SubflowSnapshot {
    /// Subflow index within the connection.
    pub subflow: usize,
    /// Congestion window (packets).
    pub cwnd: f64,
    /// Slow-start threshold (packets; `INFINITY` before the first cut).
    pub ssthresh: f64,
    /// Smoothed RTT in nanoseconds, if measured.
    pub srtt_ns: Option<u64>,
    /// Round bookkeeping for round-based controllers (XMP/BOS), else
    /// `None`.
    pub cc: Option<CcSnapshot>,
}

/// Samples per-subflow rates between calls — the paper's normalized-rate
/// time series (Figs. 4, 6, 7).
#[derive(Default)]
pub struct RateSampler {
    prev: FxHashMap<(ConnKey, usize), (u64, SimTime)>,
}

impl RateSampler {
    /// New sampler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Average rate (bits/s) of `conn`'s subflow `r` since the previous
    /// call for the same key (0 on the first call).
    pub fn sample<S: FlowSim>(
        &mut self,
        sim: &mut S,
        driver: &Driver,
        conn: ConnKey,
        r: usize,
    ) -> f64 {
        let now = sim.now();
        let acked = driver.subflow_acked(sim, conn, r);
        let (prev_bytes, prev_t) = self
            .prev
            .insert((conn, r), (acked, now))
            .unwrap_or((acked, now));
        let dt = now.duration_since(prev_t);
        if dt == SimDuration::ZERO {
            0.0
        } else {
            (acked.saturating_sub(prev_bytes)) as f64 * 8.0 / dt.as_secs_f64()
        }
    }
}

/// Per-bin rates of a fixed set of `(conn, subflow)` series: runs the
/// simulation bin by bin and keeps one row of rates (bits/s) per bin, then
/// folds rows into per-epoch means *by time*. The bin is an observation
/// grid only — every start, join and stop is the [`Driver`]'s, so it moves
/// no simulated bit. A series reads 0 while its flow is not running or has
/// not joined that subflow, and in the bin it is first seen in.
pub struct RateBins {
    series: Vec<(ConnKey, usize)>,
    bin: SimDuration,
    sampler: RateSampler,
    // `edges[0]` is where the first bin starts, `edges[i + 1]` where row
    // `i` ends.
    edges: Vec<SimTime>,
    rows: Vec<Vec<f64>>,
}

impl RateBins {
    /// Bin `series` every `bin` (positive).
    pub fn new(series: impl IntoIterator<Item = (ConnKey, usize)>, bin: SimDuration) -> Self {
        assert!(bin > SimDuration::ZERO, "rate bin must be positive");
        RateBins {
            series: series.into_iter().collect(),
            bin,
            sampler: RateSampler::new(),
            edges: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Run `sim` from its current time to `until`, appending one row per
    /// bin; the last bin is cut short at `until`. Call again to continue
    /// (e.g. after changing the network between two phases).
    pub fn run<S: FlowSim>(&mut self, driver: &mut Driver, sim: &mut S, until: SimTime) {
        if self.edges.is_empty() {
            self.edges.push(sim.now());
        }
        while sim.now() < until {
            let t = (sim.now() + self.bin).min(until);
            driver.run(sim, t, |_, _, _| {});
            let row = self
                .series
                .iter()
                .map(|&(conn, r)| self.sampler.sample(sim, driver, conn, r))
                .collect();
            self.rows.push(row);
            self.edges.push(t);
        }
    }

    /// The rows so far: `rows()[b][s]` is series `s`'s rate over bin `b`.
    pub fn rows(&self) -> &[Vec<f64>] {
        &self.rows
    }

    /// Time-weighted mean of `rows` — one per bin of this series, usually
    /// [`RateBins::rows`] normalized or summed by the caller — over each
    /// `unit`-long epoch since the first bin began. A bin counts in an
    /// epoch by the share of a nominal bin it overlaps it for; bins that
    /// tile the epoch weigh 1 each, so the mean is then the plain
    /// `sum / count`.
    pub fn epoch_means(&self, unit: SimDuration, rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
        assert!(unit > SimDuration::ZERO, "epoch length must be positive");
        assert_eq!(rows.len(), self.rows.len(), "one row per sampled bin");
        let (Some(&first), Some(&last)) = (self.edges.first(), self.edges.last()) else {
            return Vec::new();
        };
        let width = rows.first().map_or(0, Vec::len);
        let mut means = Vec::new();
        let mut lo = first;
        while lo < last {
            let hi = (lo + unit).min(last);
            let mut mean = vec![0.0; width];
            let mut weight = 0.0;
            for (row, edge) in rows.iter().zip(self.edges.windows(2)) {
                let (from, to) = (edge[0].max(lo), edge[1].min(hi));
                if from < to {
                    let w = (to - from).as_nanos() as f64 / self.bin.as_nanos() as f64;
                    for (m, x) in mean.iter_mut().zip(row) {
                        *m += x * w;
                    }
                    weight += w;
                }
            }
            means.push(mean.into_iter().map(|m| m / weight).collect());
            lo = hi;
        }
        means
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmp_des::{Bandwidth, SimDuration};
    use xmp_netsim::QdiscConfig;
    use xmp_topo::{Dumbbell, FatTree, FatTreeConfig};
    use xmp_transport::{StackConfig, DEFAULT_MSS};

    fn stack() -> Host {
        HostStack::new(StackConfig::default())
    }

    fn setup(n: usize) -> (Sim<Segment, Host>, Dumbbell) {
        let mut sim: Sim<Segment, Host> = Sim::new(7);
        let db = Dumbbell::build(
            &mut sim,
            n,
            Bandwidth::from_mbps(300),
            SimDuration::from_micros(1800),
            QdiscConfig::EcnThreshold { cap: 100, k: 15 },
            |_| stack(),
        );
        (sim, db)
    }

    fn flow(db: &Dumbbell, i: usize, size: u64, scheme: Scheme, start_ms: u64) -> FlowSpecBuilder {
        FlowSpecBuilder {
            src_node: db.sources[i],
            subflows: vec![SubflowSpec {
                local_port: xmp_netsim::PortId(0),
                src: Dumbbell::src_addr(i),
                dst: Dumbbell::dst_addr(i),
            }],
            size,
            scheme,
            start: SimTime::from_millis(start_ms),
            category: None,
            tag: 0,
        }
    }

    #[test]
    fn single_flow_transfers_exact_bytes() {
        let (mut sim, db) = setup(1);
        let mut d = Driver::new();
        let size = 5 * DEFAULT_MSS as u64 + 123;
        let conn = d.submit(flow(&db, 0, size, Scheme::xmp(1), 0));
        d.run(&mut sim, SimTime::from_secs(2), |_, _, _| {});
        let rec = d.record(conn).expect("record of the submitted flow");
        assert!(rec.completed.is_some(), "flow did not finish");
        assert!(rec.goodput_bps > 0.0);
        assert_eq!(d.completed_count(), 1);
        // Harvested means retired: the host keeps the stats, not the sender.
        sim.with_host(db.sources[0], |stack, _| {
            assert!(stack.sender(conn).is_none());
            assert_eq!(stack.conn_stats(conn).map(|s| s.bytes_acked), Some(size));
        });
    }

    #[test]
    fn staggered_starts_are_respected() {
        let (mut sim, db) = setup(2);
        let mut d = Driver::new();
        let c1 = d.submit(flow(&db, 0, 200_000, Scheme::Dctcp, 0));
        let c2 = d.submit(flow(&db, 1, 200_000, Scheme::Dctcp, 50));
        d.run(&mut sim, SimTime::from_secs(2), |_, _, _| {});
        let r1 = d.record(c1).expect("record of flow 1");
        let r2 = d.record(c2).expect("record of flow 2");
        assert!(r1.completed.expect("flow 1 completed") < r2.completed.expect("flow 2 completed"));
        assert!(r2.start >= SimTime::from_millis(50));
    }

    #[test]
    fn on_complete_can_chain_flows() {
        let (mut sim, db) = setup(1);
        let mut d = Driver::new();
        d.submit(flow(&db, 0, 100_000, Scheme::Tcp, 0));
        let mut started = 1;
        d.run(&mut sim, SimTime::from_secs(5), |sim, d, _conn| {
            if started < 3 {
                started += 1;
                let f = flow(&db, 0, 100_000, Scheme::Tcp, 0);
                let f = FlowSpecBuilder {
                    start: sim.now(),
                    ..f
                };
                d.submit(f);
            }
        });
        assert_eq!(d.completed_count(), 3);
    }

    #[test]
    fn unbounded_flow_stopped_and_recorded() {
        let (mut sim, db) = setup(1);
        let mut d = Driver::new();
        let conn = d.submit(flow(&db, 0, u64::MAX, Scheme::xmp(1), 0));
        d.run(&mut sim, SimTime::from_millis(500), |_, _, _| {});
        d.stop_flow(&mut sim, conn);
        let rec = d.record(conn).expect("record of the stopped flow");
        assert!(rec.completed.is_none());
        // ~300 Mbps for 0.5 s less handshake/ramp-up.
        assert!(
            rec.goodput_bps > 0.5 * 300e6 && rec.goodput_bps < 310e6,
            "goodput {}",
            rec.goodput_bps
        );
        // After stopping, the network drains and nothing more is acked.
        d.run(&mut sim, SimTime::from_millis(600), |_, _, _| {});
    }

    #[test]
    fn rate_sampler_sees_the_bottleneck_rate() {
        let (mut sim, db) = setup(1);
        let mut d = Driver::new();
        let conn = d.submit(flow(&db, 0, u64::MAX, Scheme::xmp(1), 0));
        let mut sampler = RateSampler::new();
        d.run(&mut sim, SimTime::from_millis(300), |_, _, _| {});
        sampler.sample(&mut sim, &d, conn, 0); // establish baseline
        d.run(&mut sim, SimTime::from_millis(800), |_, _, _| {});
        let rate = sampler.sample(&mut sim, &d, conn, 0);
        assert!(
            (0.85 * 300e6..310e6).contains(&rate),
            "steady rate {rate} not near 300 Mbps"
        );
        d.stop_flow(&mut sim, conn);
    }

    fn extra(db: &Dumbbell, i: usize) -> SubflowSpec {
        flow(db, i, 0, Scheme::Tcp, 0).subflows[0]
    }

    #[test]
    fn actions_fire_starts_first_then_in_declaration_order_and_late_ones_at_the_next_run() {
        let (mut sim, db) = setup(2);
        let mut d = Driver::new();
        let at = SimTime::from_millis(20);
        let c1 = d.submit(flow(&db, 0, u64::MAX, Scheme::xmp(1), 0));
        // Declared: join c1, stop c1, start c2, join c2 — all for `at`.
        d.add_subflow_at(c1, at, extra(&db, 0));
        d.stop_at(c1, at);
        let c2 = d.submit(flow(&db, 1, u64::MAX, Scheme::xmp(1), 20));
        d.add_subflow_at(c2, at, extra(&db, 1));
        d.run(&mut sim, at, |_, _, _| {});
        // c2's join found it sending: the start fired before it.
        assert_eq!(d.record(c2).expect("c2").subflows, 2);
        // c1 joined, then stopped: declaration order (a stop first would
        // have left the join nothing to join).
        assert_eq!(d.record(c1).expect("c1").subflows, 2);
        assert!(sim.with_host(db.sources[0], |st, _| st.sender(c1).is_none()));
        // An action declared for the past fires at the next `run`.
        d.stop_at(c2, SimTime::from_millis(10));
        assert!(sim.with_host(db.sources[1], |st, _| st.sender(c2).is_some()));
        d.run(&mut sim, SimTime::from_millis(21), |_, _, _| {});
        assert!(sim.with_host(db.sources[1], |st, _| st.sender(c2).is_none()));
    }

    #[test]
    fn stop_at_on_a_completed_or_unknown_flow_is_a_noop() {
        let (mut sim, db) = setup(1);
        let mut d = Driver::new();
        let at = SimTime::from_millis(500);
        let conn = d.submit(flow(&db, 0, 50_000, Scheme::Dctcp, 0));
        d.stop_at(conn, at);
        d.stop_at(conn + 1000, at);
        // A join that comes due after completion is skipped, not a panic.
        d.add_subflow_at(conn, at, extra(&db, 0));
        d.run(&mut sim, SimTime::from_millis(400), |_, _, _| {});
        let before = format!("{:?}", d.record(conn).expect("record"));
        assert!(before.contains("completed: Some"), "{before}");
        d.run(&mut sim, SimTime::from_millis(600), |_, _, _| {});
        assert_eq!(format!("{:?}", d.record(conn).expect("record")), before);
    }

    /// A Fig. 4/6-shaped schedule on the dumbbell — a flow joining
    /// subflows at `1u` and `3u`, a background flow over `[2u, 4u)` —
    /// binned every `bin` for `8u`, on `workers` threads.
    fn shaped_run(bin: SimDuration, workers: usize) -> (u64, usize) {
        let unit = SimDuration::from_millis(10);
        let at = |e: u64| SimTime::ZERO + unit * e;
        let mut sim: Sim<Segment, Host> = Sim::new(7);
        let cfg = FatTreeConfig {
            k: 4,
            ..FatTreeConfig::paper(QdiscConfig::EcnThreshold { cap: 100, k: 10 })
        };
        let ft = FatTree::build(&mut sim, &cfg, |_| stack());
        let path = |src: usize, tag| SubflowSpec {
            local_port: xmp_netsim::PortId(0),
            src: ft.host_addr(src, tag),
            dst: ft.host_addr(src + 8, tag),
        };
        let mk = |src: usize, start| FlowSpecBuilder {
            src_node: ft.host(src),
            subflows: vec![path(src, 0)],
            size: u64::MAX,
            scheme: Scheme::xmp(2),
            start,
            category: None,
            tag: 0,
        };
        let mut d = Driver::new();
        let grows = d.submit(mk(0, at(0)));
        d.add_subflow_at(grows, at(1), path(0, 1));
        d.add_subflow_at(grows, at(3), path(0, 2));
        let bg = d.submit(mk(1, at(2)));
        d.stop_at(bg, at(4));
        let mut bins = RateBins::new([(grows, 0), (grows, 1), (grows, 2), (bg, 0)], bin);
        let mut sim = if workers > 1 {
            let mut psim = PartitionedSim::new(sim, &ft.partition_plan(workers));
            bins.run(&mut d, &mut psim, at(8));
            psim.finish()
        } else {
            bins.run(&mut d, &mut sim, at(8));
            sim
        };
        d.finalize_running(&mut sim);
        assert_eq!(sim.now(), at(8), "the run ends at 8 × unit");
        assert_eq!(d.record(grows).expect("record").subflows, 3);
        // A series reads 0 before its subflow joins and after its flow stops.
        let (early, last) = (&bins.rows()[1], &bins.rows()[bins.rows().len() - 1]);
        assert!(early[0] > 0.0 && early[2] == 0.0, "{early:?}");
        assert!(last[2] > 0.0 && last[3] == 0.0, "{last:?}");
        let epochs = bins
            .epoch_means(unit, &vec![vec![0.0]; bins.rows().len()])
            .len();
        (d.outcome_digest(&sim, &sim.audit_conservation()), epochs)
    }

    #[test]
    fn the_sampling_bin_does_not_change_the_simulation() {
        // bin = 0.3 × unit divides nothing; the joins must still land at
        // exactly 1 × and 3 × unit, the stop at 4 × unit and the end at
        // 8 × unit, so the outcome equals the run binned once per epoch.
        let per_epoch = shaped_run(SimDuration::from_millis(10), 1);
        assert_eq!(shaped_run(SimDuration::from_millis(3), 1), per_epoch);
        assert_eq!(per_epoch.1, 8);
    }

    #[test]
    fn scheduled_joins_and_stops_are_identical_serial_and_partitioned() {
        let bin = SimDuration::from_millis(5);
        assert_eq!(shaped_run(bin, 2), shaped_run(bin, 1));
    }

    #[test]
    fn epoch_means_fold_by_time() {
        // 40 ms bins over 300 ms (the last cut to 20 ms), 100 ms epochs: a
        // bin straddling an epoch boundary counts half in each.
        let (mut sim, _) = setup(1);
        let mut bins = RateBins::new([], SimDuration::from_millis(40));
        bins.run(&mut Driver::new(), &mut sim, SimTime::from_millis(300));
        let rows = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0].map(|x| vec![x, 2.0 * x]);
        let means = bins.epoch_means(SimDuration::from_millis(100), &rows);
        // (10 + 20 + 30/2) / 2.5, (30/2 + 40 + 50) / 2.5, (60 + 70 + 80/2) / 2.5
        assert_eq!(means, [[18.0, 36.0], [42.0, 84.0], [68.0, 136.0]]);
        // Bins that tile the epochs: the plain mean of each epoch's rows.
        let tiled = bins.epoch_means(SimDuration::from_millis(80), &rows);
        assert_eq!(tiled[..3], [[15.0, 30.0], [35.0, 70.0], [55.0, 110.0]]);
        assert_eq!(tiled.len(), 4);
    }

    #[test]
    fn fluid_threshold_offloads_elephants_and_keeps_mice_packet() {
        let mut sim: Sim<Segment, Host> = Sim::new(7);
        sim.set_tuning(xmp_netsim::SimTuning {
            hybrid: true,
            ..Default::default()
        });
        let db = Dumbbell::build(
            &mut sim,
            2,
            Bandwidth::from_mbps(300),
            SimDuration::from_micros(1800),
            QdiscConfig::EcnThreshold { cap: 100, k: 15 },
            |_| stack(),
        );
        let mut d = Driver::new();
        d.set_fluid_threshold(Some(1 << 20));
        let elephant = d.submit(flow(&db, 0, 4 << 20, Scheme::xmp(1), 0));
        let mouse = d.submit(flow(&db, 1, 20_000, Scheme::xmp(1), 0));
        d.run(&mut sim, SimTime::from_secs(2), |_, _, _| {});
        assert!(d.is_fluid(elephant), "4 MiB flow should go fluid");
        assert!(!d.is_fluid(mouse), "20 kB flow should stay packet");
        let er = d.record(elephant).expect("elephant record");
        let mr = d.record(mouse).expect("mouse record");
        assert!(er.completed.is_some(), "fluid elephant did not complete");
        assert!(mr.completed.is_some(), "packet mouse did not complete");
        assert!(
            er.goodput_bps > 0.3 * 300e6 && er.goodput_bps < 310e6,
            "elephant goodput {}",
            er.goodput_bps
        );
        assert_eq!(d.completed_count(), 2);
    }

    #[test]
    fn fluid_threshold_is_inert_without_hybrid() {
        let (mut sim, db) = setup(1);
        let mut d = Driver::new();
        d.set_fluid_threshold(Some(1));
        let conn = d.submit(flow(&db, 0, 200_000, Scheme::Dctcp, 0));
        d.run(&mut sim, SimTime::from_secs(2), |_, _, _| {});
        assert!(!d.is_fluid(conn), "non-hybrid sim must stay packet-level");
        assert!(d.record(conn).expect("record").completed.is_some());
    }

    #[test]
    fn two_xmp_flows_share_fairly_and_keep_queue_near_k() {
        let (mut sim, db) = setup(2);
        let mut d = Driver::new();
        let c1 = d.submit(flow(&db, 0, u64::MAX, Scheme::xmp(1), 0));
        let c2 = d.submit(flow(&db, 1, u64::MAX, Scheme::xmp(1), 0));
        let mut sampler = RateSampler::new();
        d.run(&mut sim, SimTime::from_millis(500), |_, _, _| {});
        sampler.sample(&mut sim, &d, c1, 0);
        sampler.sample(&mut sim, &d, c2, 0);
        d.run(&mut sim, SimTime::from_millis(1500), |_, _, _| {});
        let r1 = sampler.sample(&mut sim, &d, c1, 0);
        let r2 = sampler.sample(&mut sim, &d, c2, 0);
        let jain = crate::metrics::jain_index(&[r1, r2]);
        assert!(jain > 0.95, "jain={jain} r1={r1} r2={r2}");
        assert!((r1 + r2) > 0.85 * 300e6, "under-utilized: {}", r1 + r2);
        // Buffer occupancy stays around K = 15, far below the 100 cap.
        let mean_q = sim.link(db.bottleneck).dir(0).stats.mean_depth(sim.now());
        assert!(mean_q < 25.0, "mean queue {mean_q} pkts");
        d.stop_flow(&mut sim, c1);
        d.stop_flow(&mut sim, c2);
    }
}
