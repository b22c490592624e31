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
    Agent, Ctx, FlowId, FluidFlowStats, FluidId, FluidSpec, FluidSubflowSpec, NodeId, Sim,
};
use xmp_topo::FlowCategory;
use xmp_transport::{
    CcSnapshot, CongestionControl, ConnKey, ConnStats, HostStack, Segment, SubflowSpec, DEFAULT_MSS,
};

/// The host agent the driver manages: a [`HostStack`] whose congestion
/// controllers are the statically dispatched [`CcKind`] enum. Simulations
/// may store hosts either as plain `Host` values (`Sim<Segment, Host>`,
/// the devirtualized fast path) or behind `Box<dyn Agent<Segment>>` (the
/// `Sim` default); the driver's downcasts work identically in both because
/// a `Box`ed agent delegates `as_any_mut` to the inner stack.
pub type Host = HostStack<CcKind>;

/// A simulation the driver can run flows on. Every [`Driver`] method is
/// generic over this handle; [`Sim`] implements it, and so can a wrapper
/// around one (the benchmark times the driver's calls into the simulator
/// that way).
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

/// What a scheduled action does to its flow. A start carries only what the
/// flow's record lacks; the rest is read from the record when it fires.
enum Action {
    Start(Scheme, Box<[SubflowSpec]>),
    Join(SubflowSpec),
    Stop,
}

struct Pending {
    conn: ConnKey,
    at: SimTime,
    action: Action,
}

/// The fewest slots `Driver::pending` gives back capacity down to: more
/// than a closed-loop pattern keeps scheduled at once, so those never
/// re-allocate it.
const PENDING_FLOOR: usize = 64;

/// Records per chunk of [`Records`].
const RECORD_CHUNK: usize = 32;

/// Every flow's record, indexed by `conn - 1` (keys are handed out densely
/// from 1), so iteration is ascending-key order: metrics fold over
/// `records()` (float sums, CDF inputs) and need that order to be
/// deterministic. Fixed chunks rather than one `Vec`: a doubling `Vec`
/// may hold as many spare slots as records, a chunk at most 31.
#[derive(Default)]
struct Records {
    chunks: Vec<Vec<FlowRecord>>,
}

impl Records {
    fn push(&mut self, rec: FlowRecord) {
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < RECORD_CHUNK => chunk.push(rec),
            _ => {
                let mut chunk = Vec::with_capacity(RECORD_CHUNK);
                chunk.push(rec);
                self.chunks.push(chunk);
            }
        }
    }

    fn slot(conn: ConnKey) -> Option<(usize, usize)> {
        let i = usize::try_from(conn.checked_sub(1)?).ok()?;
        Some((i / RECORD_CHUNK, i % RECORD_CHUNK))
    }

    fn get(&self, conn: ConnKey) -> Option<&FlowRecord> {
        let (c, i) = Self::slot(conn)?;
        self.chunks.get(c)?.get(i)
    }

    fn get_mut(&mut self, conn: ConnKey) -> Option<&mut FlowRecord> {
        let (c, i) = Self::slot(conn)?;
        self.chunks.get_mut(c)?.get_mut(i)
    }

    fn iter(&self) -> impl Iterator<Item = &FlowRecord> {
        self.chunks.iter().flatten()
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut FlowRecord> {
        self.chunks.iter_mut().flatten()
    }
}

/// Flow lifecycle manager over a [`Sim`] whose hosts run [`Host`] stacks.
#[derive(Default)]
pub struct Driver {
    next_conn: ConnKey,
    // Scheduled actions in *descending* order (see `schedule`); due ones
    // pop off the back. The tie rule is on `Driver::run`.
    pending: Vec<Pending>,
    records: Records,
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

    /// Reserve a fresh connection key: the next record's index plus one.
    fn alloc_conn(&mut self) -> ConnKey {
        self.next_conn += 1;
        self.next_conn
    }

    /// Queue a flow for its start time. Returns the connection key.
    pub fn submit(&mut self, spec: FlowSpecBuilder) -> ConnKey {
        let conn = self.alloc_conn();
        self.records.push(FlowRecord {
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
        });
        let start = Action::Start(spec.scheme, spec.subflows.into_boxed_slice());
        self.schedule(conn, spec.start, start);
        conn
    }

    /// Declare that `conn` stops at `at`: [`Driver::stop_flow`], fired by
    /// [`Driver::run`] at that instant (a no-op on a completed or unknown
    /// flow, like the immediate form).
    pub fn stop_at(&mut self, conn: ConnKey, at: SimTime) {
        self.schedule(conn, at, Action::Stop);
    }

    /// Declare that `conn` joins the extra subflow `spec` at `at`:
    /// [`Driver::add_subflow`], fired by [`Driver::run`] at that instant.
    /// Panics on an unknown flow, like the immediate form; a join that
    /// comes due when the flow is not sending (not yet started, completed,
    /// stopped) is skipped.
    pub fn add_subflow_at(&mut self, conn: ConnKey, at: SimTime, spec: SubflowSpec) {
        assert!(
            self.records.get(conn).is_some(),
            "add_subflow_at on unknown flow {conn}"
        );
        self.schedule(conn, at, Action::Join(spec));
    }

    fn schedule(&mut self, conn: ConnKey, at: SimTime, action: Action) {
        // Sorted by time, at one instant starts before joins and stops; among
        // equal keys a start goes to the back (popped first), a join or stop
        // to the front (popped last): see the tie rule on `run`.
        let key = |p: &Pending| (p.at, !matches!(p.action, Action::Start(..)));
        let new = Pending { conn, at, action };
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
        self.records.iter()
    }

    /// One record.
    pub fn record(&self, conn: ConnKey) -> Option<&FlowRecord> {
        self.records.get(conn)
    }

    /// Run the simulation until `until`, firing every scheduled action
    /// (flow start, subflow join, stop) at its instant and invoking
    /// `on_complete(sim, driver, conn)` as flows finish (the callback may
    /// submit more flows or stop unbounded ones).
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
            let stop = match self.pending.last().map(|p| p.at) {
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
            if stop >= until && self.pending.last().is_none_or(|p| p.at > sim.now()) {
                break;
            }
        }
    }

    /// Fire every scheduled action whose time has been reached.
    fn fire_due<S: FlowSim>(&mut self, sim: &mut S) {
        while self.pending.last().is_some_and(|p| p.at <= sim.now()) {
            let Pending { conn, action, .. } = self.pending.pop().expect("checked non-empty");
            match action {
                Action::Start(scheme, subflows) => self.start_now(sim, conn, scheme, subflows),
                Action::Join(spec) => {
                    let node = self
                        .records
                        .get(conn)
                        .expect("joins are declared on known flows")
                        .src_node;
                    if sim.with_host(node, |stack, _| stack.sender(conn).is_some()) {
                        self.add_subflow(sim, conn, spec);
                    }
                }
                Action::Stop => self.stop_flow(sim, conn),
            }
        }
        self.shrink_pending();
    }

    /// Give `pending`'s capacity back as it drains: halve it while it is
    /// under a quarter full, down to [`PENDING_FLOOR`] slots. A run that
    /// pre-submits its flows would otherwise hold one slot per flow to
    /// the end, the run's heap peak; halving at a quarter leaves a drained
    /// list room to double before it grows again.
    fn shrink_pending(&mut self) {
        let mut cap = self.pending.capacity();
        while cap > PENDING_FLOOR && self.pending.len() < cap / 4 {
            cap /= 2;
        }
        if cap < self.pending.capacity() {
            self.pending.shrink_to(cap.max(PENDING_FLOOR));
        }
    }

    fn start_now<S: FlowSim>(
        &mut self,
        sim: &mut S,
        conn: ConnKey,
        scheme: Scheme,
        subflows: Box<[SubflowSpec]>,
    ) {
        let rec = self
            .records
            .get_mut(conn)
            .expect("every start has a record");
        rec.start = sim.now().max(rec.start);
        let (src_node, size) = (rec.src_node, rec.size);
        let is_elephant = self.fluid_threshold.is_some_and(|t| size >= t);
        if is_elephant && sim.fluid_supported() {
            // The subflow flow-ids reproduce the packet stack's
            // `(conn << 3) | r` derivation, so each fluid subflow is
            // ECMP-routed over exactly the path its packet twin would take.
            let paths = subflows.iter().enumerate();
            let fspec = FluidSpec {
                src_node,
                code: conn,
                cc: scheme.fluid_cc(),
                size: (size != u64::MAX).then_some(size),
                mss: DEFAULT_MSS,
                subflows: paths
                    .map(|(r, sf)| FluidSubflowSpec {
                        local_port: sf.local_port,
                        dst: sf.dst,
                        flow: FlowId((conn << 3) | r as u64),
                    })
                    .collect(),
            };
            if let Some(id) = sim.fluid_open(&fspec) {
                self.fluid.insert(conn, id);
                return;
            }
        }
        let cc = scheme.make_cc();
        sim.with_host(src_node, |stack, ctx| {
            stack.open(ctx, conn, subflows.into_vec(), size, cc);
        });
    }

    fn harvest<S: FlowSim>(
        records: &mut Records,
        completed: &mut u64,
        fluid: &BTreeMap<ConnKey, FluidId>,
        sim: &mut S,
        node: NodeId,
        conn: ConnKey,
    ) {
        let Some(rec) = records.get_mut(conn) else {
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
        // Retired, so a host holds its running senders, not every one it
        // ever opened (an incast cell completes hundreds per host).
        if let Some(stats) = sim.with_host(node, |stack, _| stack.retire(conn)) {
            rec.completed = stats.completed;
            Self::fill_packet(rec, &stats, now);
        }
        *completed += 1;
    }

    /// Copy a packet sender's stats into a flow record (all but
    /// `completed`).
    fn fill_packet(rec: &mut FlowRecord, stats: &ConnStats, now: SimTime) {
        rec.goodput_bps = stats.goodput_bps(now);
        rec.mean_rtt_ns = stats.mean_rtt().map_or(0, |d| d.as_nanos());
        rec.rtos = stats.rtos;
        rec.fast_retransmits = stats.fast_retransmits;
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
        let Some(rec) = self.records.get_mut(conn) else {
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
        let Some(rec) = self.records.get_mut(conn) else {
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
            if let Some(sender) = stack.sender(conn) {
                Self::fill_packet(rec, sender.stats(), now);
            }
            stack.close(ctx, conn);
        });
    }

    /// Finalize records of still-running flows without closing them
    /// (end-of-run accounting).
    pub fn finalize_running<S: FlowSim>(&mut self, sim: &mut S) {
        let now = sim.now();
        for rec in self.records.iter_mut() {
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
                if let Some(sender) = stack.sender(conn) {
                    Self::fill_packet(rec, sender.stats(), now);
                }
            });
        }
    }

    /// Harvest-only drive loop: run in `slice`-long steps until `deadline`
    /// or until `target` flows completed, calling `each_slice` at every
    /// step boundary. The flows still running are left as they are; the
    /// run's end ([`Driver::finalize_running`]) is the caller's. The slice
    /// is an observation grid: where the steps fall changes no simulated
    /// bit, only where the run may stop early.
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
    }

    /// Digest of everything an observer can see of a finished run: final
    /// clock, every flow record, the conservation `audit`, every probe
    /// record and the `deliver`/`timer` event counts. Deliberately absent:
    /// the `fault`/`sample` counts and wall times. The recorded digests
    /// were taken over exactly these inputs.
    pub fn outcome_digest<A: Agent<Segment>>(
        &self,
        sim: &Sim<Segment, A>,
        audit: &impl std::fmt::Debug,
    ) -> u64 {
        let mut h = DefaultHasher::new();
        format!("{:?}", sim.now()).hash(&mut h);
        for r in self.records.iter() {
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
        let Some(src_node) = self.records.get(conn).map(|r| r.src_node) else {
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
        let Some(rec) = self.records.get(conn) else {
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
    use xmp_transport::{Acked, StackConfig, DEFAULT_MSS};

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
        // Harvested means retired: the host keeps the acknowledged byte
        // count, not the sender.
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
    /// binned every `bin` for `8u`.
    fn shaped_run(bin: SimDuration) -> (u64, usize) {
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
        bins.run(&mut d, &mut sim, at(8));
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
        let per_epoch = shaped_run(SimDuration::from_millis(10));
        assert_eq!(shaped_run(SimDuration::from_millis(3)), per_epoch);
        assert_eq!(per_epoch.1, 8);
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
    fn pending_and_records_stay_compact() {
        // A pending slot is paid for each action scheduled and not yet
        // fired: the `Vec` gives its capacity back as it drains
        // (`pending_gives_capacity_back_as_it_drains`).
        assert!(std::mem::size_of::<Pending>() <= 48);
        let mut records = Records::default();
        for conn in 1..=33 {
            records.push(FlowRecord {
                conn,
                ..populated_record()
            });
        }
        let caps: Vec<usize> = records.chunks.iter().map(Vec::capacity).collect();
        assert_eq!(caps, [RECORD_CHUNK, RECORD_CHUNK]);
        assert!(records.iter().map(|r| r.conn).eq(1..=33));
        assert_eq!(records.get(33).map(|r| r.conn), Some(33));
        assert!(records.get(0).is_none() && records.get(34).is_none());
    }

    #[test]
    fn pending_gives_capacity_back_as_it_drains() {
        let mut sim: Sim<Segment, Host> = Sim::new(1);
        let mut d = Driver::new();
        let at = |us: u64| SimTime::ZERO + SimDuration::from_micros(us);
        // Stops of unknown flows: each fires as a no-op.
        for conn in 1..=1000 {
            d.stop_at(conn, at(conn));
        }
        let full = d.pending.capacity();
        assert!(full >= 1000);
        let mut drain_to = |d: &mut Driver, us: u64| {
            sim.advance_to(at(us));
            d.fire_due(&mut sim);
            (d.pending.len(), d.pending.capacity())
        };
        // Above a quarter full, nothing moves.
        assert_eq!(drain_to(&mut d, 700), (300, full));
        // Under it, halved until a quarter full is reached again.
        let (left, cap) = drain_to(&mut d, 950);
        assert_eq!(left, 50);
        assert!((left * 2..=left * 4).contains(&cap), "{cap}");
        // Drained: down to the floor, and no lower.
        assert_eq!(drain_to(&mut d, 1000), (0, PENDING_FLOOR));
        // A closed loop that keeps a few actions scheduled reuses the
        // floor's buffer.
        let buf = d.pending.as_ptr();
        for round in 0..100 {
            for conn in 0..8 {
                d.stop_at(conn, at(1001 + round));
            }
            drain_to(&mut d, 1001 + round);
            assert_eq!(d.pending.as_ptr(), buf);
            assert_eq!(d.pending.capacity(), PENDING_FLOOR);
        }
    }

    fn populated_record() -> FlowRecord {
        FlowRecord {
            conn: 7,
            src_node: NodeId(12),
            scheme: Scheme::xmp(2).label(),
            size: 65_536,
            subflows: 2,
            category: Some(FlowCategory::InterPod),
            tag: 1_000_003,
            start: SimTime::from_micros(1_500),
            completed: Some(SimTime::from_nanos(2_750_250)),
            goodput_bps: 419_430_400.5,
            mean_rtt_ns: 181_234,
            rtos: 1,
            fast_retransmits: 2,
        }
    }

    /// Every outcome digest hashes `format!("{r:?}")` of each record, so
    /// this form is part of what the recorded digests pin.
    #[test]
    fn record_debug_form_is_pinned() {
        assert_eq!(
            format!("{:?}", populated_record()),
            "FlowRecord { conn: 7, src_node: n12, scheme: \"XMP-2\", size: 65536, \
             subflows: 2, category: Some(InterPod), tag: 1000003, start: t=1500us, \
             completed: Some(t=2750250ns), goodput_bps: 419430400.5, mean_rtt_ns: 181234, \
             rtos: 1, fast_retransmits: 2 }"
        );
    }

    /// 240 short flows on a k = 4 fat tree: each harvested flow leaves its
    /// record, with the stats its sender reported, and its acknowledged
    /// byte count on its host, and nothing else. The reference stats come
    /// from a twin run that opens the same flows by hand and never
    /// retires a sender.
    #[test]
    fn a_harvested_flow_leaves_only_its_record() {
        const FLOWS: usize = 240;
        const BYTES: u64 = 20_000;
        let build = || {
            let mut sim: Sim<Segment, Host> = Sim::new(3);
            let cfg = FatTreeConfig {
                k: 4,
                ..FatTreeConfig::paper(QdiscConfig::EcnThreshold { cap: 100, k: 10 })
            };
            let ft = FatTree::build(&mut sim, &cfg, |_| stack());
            (sim, ft)
        };
        // 16 hosts; 4i + 3 is odd, so no flow loops back to its source.
        let ends = |i: usize| (i % 16, (5 * i + 3) % 16);
        let spec = |ft: &FatTree, i: usize| {
            let (src, dst) = ends(i);
            FlowSpecBuilder {
                src_node: ft.host(src),
                subflows: vec![SubflowSpec {
                    local_port: xmp_netsim::PortId(0),
                    src: ft.host_addr(src, 0),
                    dst: ft.host_addr(dst, 0),
                }],
                size: BYTES,
                scheme: Scheme::Dctcp,
                start: SimTime::ZERO,
                category: None,
                tag: i as u64,
            }
        };
        let end = SimTime::from_secs(1);

        let (mut twin, ft) = build();
        // The driver opens starts due at one instant most recent first.
        for i in (0..FLOWS).rev() {
            let f = spec(&ft, i);
            twin.with_host(f.src_node, |st, ctx| {
                st.open(ctx, i as u64 + 1, f.subflows, BYTES, f.scheme.make_cc());
            });
        }
        let mut reported = BTreeMap::new();
        twin.run_until(end, |sim, node, conn| {
            let stats = sim.with_host(node, |st, _| st.sender(conn).map(|s| s.stats().clone()));
            reported.insert(conn, stats.expect("the completed sender is still there"));
        });

        let (mut sim, ft) = build();
        let mut d = Driver::new();
        for i in 0..FLOWS {
            assert_eq!(d.submit(spec(&ft, i)), i as u64 + 1);
        }
        let mut partial = false;
        while sim.now() < end && (d.completed_count() as usize) < FLOWS {
            let step = sim.now() + SimDuration::from_micros(100);
            d.run(&mut sim, step, |_, _, _| {});
            let done = d.completed_count() as usize;
            partial |= 0 < done && done < FLOWS;
            // A host holds its running senders and its receivers, nothing
            // else.
            let mut held = [0; 16];
            for (i, r) in d.records().enumerate() {
                let (src, dst) = ends(i);
                let sending = sim.with_host(ft.host(src), |st, _| st.sender(r.conn).is_some());
                assert_eq!(sending, r.completed.is_none(), "flow {}", r.conn);
                held[src] += usize::from(sending);
                held[dst] +=
                    usize::from(sim.with_host(ft.host(dst), |st, _| st.receiver(r.conn).is_some()));
            }
            for (h, &n) in held.iter().enumerate() {
                assert_eq!(sim.with_host(ft.host(h), |st, _| st.conn_count()), n);
            }
        }
        assert!(partial, "no step saw some flows done and some running");
        assert_eq!(d.completed_count(), FLOWS as u64);
        assert_eq!(reported.len(), FLOWS);
        for r in d.records() {
            let s = &reported[&r.conn];
            let mean_rtt_ns = s.mean_rtt().map_or(0, |t| t.as_nanos());
            assert_eq!(r.completed, s.completed, "flow {}", r.conn);
            assert_eq!(r.goodput_bps, s.goodput_bps(end), "flow {}", r.conn);
            assert_eq!(
                (r.mean_rtt_ns, r.rtos, r.fast_retransmits),
                (mean_rtt_ns, s.rtos, s.fast_retransmits),
                "flow {}",
                r.conn
            );
            sim.with_host(r.src_node, |st, _| {
                assert!(st.sender(r.conn).is_none());
                assert_eq!(st.conn_stats(r.conn), Some(Acked { bytes_acked: BYTES }));
            });
        }
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
