//! The five in-process workloads, composed from `topo` / `workloads` /
//! `netsim` public calls the way `experiments::suite` and
//! `examples/quickstart.rs` compose theirs. Every packet workload runs
//! `SimTuning::default()` on the statically dispatched `Sim<Segment, Host>`,
//! so a change of the library's default engine is measured without touching
//! this file.

use crate::alloc;
use crate::kernels;
use crate::trace::{self, Ev, Timed};
use std::hash::{DefaultHasher, Hash, Hasher};
use xmp_des::{Bandwidth, SimDuration, SimRng, SimTime};
use xmp_netsim::{Agent, PortId, QdiscConfig, Sim, SimTuning};
use xmp_topo::{Dumbbell, FatTree, FatTreeConfig};
use xmp_transport::{ConnKey, HostStack, Segment, StackConfig, SubflowSpec};
use xmp_workloads::{
    Cdf, Driver, FlowSim, FlowSpecBuilder, Host, IncastPattern, PatternConfig, PermutationPattern,
    Scheme,
};

/// How the simulation is held: bare, or behind the timing wrappers.
pub trait Plane {
    type Agent: Agent<Segment>;
    type Sim: FlowSim;
    const TRACED: bool;
    fn host(cfg: StackConfig) -> Self::Agent;
    fn wrap(sim: Sim<Segment, Self::Agent>) -> Self::Sim;
    fn sim(s: &Self::Sim) -> &Sim<Segment, Self::Agent>;
    /// An event span in the traced plane, a plain call in the bare one.
    fn span<R>(ev: Ev, f: impl FnOnce() -> R) -> R;
}

/// The library's default engine, untouched: what the end-to-end metrics
/// are measured on.
pub struct Bare;

impl Plane for Bare {
    type Agent = Host;
    type Sim = Sim<Segment, Host>;
    const TRACED: bool = false;
    fn host(cfg: StackConfig) -> Host {
        HostStack::new(cfg)
    }
    fn wrap(sim: Sim<Segment, Host>) -> Self::Sim {
        sim
    }
    fn sim(s: &Self::Sim) -> &Sim<Segment, Host> {
        s
    }
    fn span<R>(_: Ev, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// The same engine with a [`Timed`] wrapper around the simulation and
/// around every host agent.
pub struct Traced;

impl Plane for Traced {
    type Agent = Timed<Host>;
    type Sim = Timed<Sim<Segment, Timed<Host>>>;
    const TRACED: bool = true;
    fn host(cfg: StackConfig) -> Timed<Host> {
        Timed(HostStack::new(cfg))
    }
    fn wrap(sim: Sim<Segment, Timed<Host>>) -> Self::Sim {
        Timed(sim)
    }
    fn sim(s: &Self::Sim) -> &Sim<Segment, Timed<Host>> {
        &s.0
    }
    fn span<R>(ev: Ev, f: impl FnOnce() -> R) -> R {
        trace::span(ev, f)
    }
}

/// The in-process workloads (the sixth, `cli_all_quick`, is a subprocess
/// and lives in `cli.rs`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InProc {
    Ft8Perm,
    Ft8Incast,
    Ft16Wave,
    DbLong,
    HybridMix,
}

/// Sizing constants. `full()` is sized for a 2-core host so that one
/// repetition lasts 1 to 3 s; `scaled(1/20)` is the self-test.
#[derive(Clone, Debug)]
pub struct Sizes {
    /// `ft8_perm`: stop after this many packet-hops (about 600 flows).
    pub perm_hops: u64,
    /// `ft8_incast`: stop after this many packet-hops (about 250 ms
    /// simulated, some 1700 connections).
    pub incast_hops: u64,
    /// `ft16_wave`: bytes per flow.
    pub wave_bytes: u64,
    /// `db_long`: simulated horizon.
    pub db_horizon: SimDuration,
    /// `hybrid_mix`: bytes per fluid elephant.
    pub elephant_bytes: u64,
    /// `hybrid_mix`: packet-level mice, arriving over `mice_window`.
    pub mice: usize,
    /// `hybrid_mix`: arrival window of the mice.
    pub mice_window: SimDuration,
}

impl Sizes {
    pub fn full() -> Self {
        Sizes {
            perm_hops: 9_000_000,
            incast_hops: 9_000_000,
            wave_bytes: 512 << 10,
            db_horizon: SimDuration::from_secs(30),
            elephant_bytes: 64 << 20,
            mice: 16_384,
            mice_window: SimDuration::from_secs(5),
        }
    }

    pub fn scaled(f: f64) -> Self {
        let full = Sizes::full();
        let dur = |d: SimDuration| SimDuration::from_nanos((d.as_nanos() as f64 * f) as u64);
        Sizes {
            perm_hops: (full.perm_hops as f64 * f) as u64,
            incast_hops: (full.incast_hops as f64 * f) as u64,
            wave_bytes: ((full.wave_bytes as f64 * f) as u64).max(16 << 10),
            db_horizon: dur(full.db_horizon),
            elephant_bytes: ((full.elephant_bytes as f64 * f) as u64).max(2 << 20),
            mice: ((full.mice as f64 * f) as usize).max(64),
            mice_window: dur(full.mice_window),
        }
    }
}

/// The paper's switch queue: capacity 100 packets, marking threshold K=10.
pub const QUEUE_CAP: usize = 100;
pub const K_MARK: usize = 10;
const RTO_MIN: SimDuration = SimDuration::from_millis(200);
/// Hard wall on simulated time for the workloads that stop on completions.
const MAX_SIM: SimDuration = SimDuration::from_secs(120);
/// Incast request/response flows carry tags from here up (see `patterns`).
const JOB_TAG: u64 = 1_000_000;

/// Counts read off the simulation after a repetition. They repeat exactly
/// for one seed; a simulator-only change must leave them identical.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    pub events: u64,
    pub hops: u64,
    pub tx_done: u64,
    pub timers: u64,
    pub fluid_ticks: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub enqueued: u64,
    pub marks: u64,
    pub drops: u64,
    pub nodes: u64,
    pub links: u64,
    pub rtos: u64,
    pub fast_retransmits: u64,
    pub flows_submitted: u64,
    pub flows_completed: u64,
    /// Mean of (scheduled − processed) events over the slice boundaries.
    pub pending_mean: f64,
    /// Allocations and hops in the steady window (last 3/4 of the slices).
    pub steady_allocs: u64,
    pub steady_hops: u64,
    /// Delivery-weighted means over link directions, for the `des` kernel.
    pub mean_pkt_bytes: f64,
    pub mean_serialize_ns: f64,
    pub mean_propagate_ns: f64,
    /// Mean goodput of completed bulk flows (or of all flows when none
    /// complete), and the p99 completion time of completed flows.
    pub goodput_mbps: f64,
    pub fct_p99_ms: f64,
    /// Mean bytes per flow that moved data, for the transport kernel.
    pub mean_flow_bytes: f64,
}

/// What result collection found.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Outcome digest: flow records, conservation audit, final clock.
    pub digest: u64,
    pub audit_ok: bool,
    pub counts: Counts,
    /// Schemes the workload declares, with the share of delivered bytes
    /// each carried (sizes the transport and core kernels).
    pub scheme_mix: Vec<(Scheme, f64)>,
}

/// One repetition.
#[derive(Debug)]
pub struct Rep {
    pub record: trace::Record,
    pub peak_heap_bytes: u64,
    pub outcome: Outcome,
    /// Traced plane only: the FIB kernel, run against this repetition's
    /// own tables before they are dropped.
    pub fib_lookup_ns: Option<f64>,
}

impl Rep {
    pub fn setup_s(&self) -> f64 {
        self.record.phase_secs("setup")
    }
    /// The timed phase: event loop, driver callbacks, result collection.
    pub fn wall_s(&self) -> f64 {
        self.record.phase_secs("workloads.run") + self.record.phase_secs("workloads.collect")
    }
}

/// What a traffic pattern does when a flow completes, and when it is done.
trait Traffic<S: FlowSim, T> {
    fn on_complete(&mut self, _sim: &mut S, _driver: &mut Driver, _topo: &T, _conn: ConnKey) {}
    /// Stop early: the completion target is reached. A workload that never
    /// stops early runs to its horizon, and flows in flight there are
    /// expected; one that does must reach the target before the deadline.
    fn done(&self, driver: &Driver, hops: u64) -> bool;
    fn has_target(&self) -> bool {
        true
    }
}

/// Stop once `target` flows completed (pre-submitted traffic).
struct UntilCompleted(u64);

impl<S: FlowSim, T> Traffic<S, T> for UntilCompleted {
    fn done(&self, driver: &Driver, _: u64) -> bool {
        driver.completed_count() >= self.0
    }
}

/// Run to the horizon regardless of completions.
struct ToHorizon;

impl<S: FlowSim, T> Traffic<S, T> for ToHorizon {
    fn done(&self, _: &Driver, _: u64) -> bool {
        false
    }
    fn has_target(&self) -> bool {
        false
    }
}

/// The two chained patterns stop on a budget of packet-hops, not on a flow
/// count or a horizon: flow sizes and placements are drawn from the seed,
/// so either of those would make the work done differ from seed to seed by
/// several percent, and the host time with it.
struct Perm {
    pattern: PermutationPattern,
    hop_budget: u64,
}

impl<S: FlowSim> Traffic<S, FatTree> for Perm {
    fn on_complete(&mut self, sim: &mut S, driver: &mut Driver, ft: &FatTree, conn: ConnKey) {
        self.pattern.on_complete(sim, driver, ft, conn);
    }
    fn done(&self, _: &Driver, hops: u64) -> bool {
        hops >= self.hop_budget
    }
}

struct Incast {
    pattern: IncastPattern,
    hop_budget: u64,
}

impl<S: FlowSim> Traffic<S, FatTree> for Incast {
    fn on_complete(&mut self, sim: &mut S, driver: &mut Driver, ft: &FatTree, conn: ConnKey) {
        self.pattern.on_complete(sim, driver, ft, conn);
    }
    fn done(&self, _: &Driver, hops: u64) -> bool {
        hops >= self.hop_budget
    }
}

fn stack_cfg() -> StackConfig {
    StackConfig::default().with_rto_min(RTO_MIN)
}

fn paper_queue() -> QdiscConfig {
    QdiscConfig::EcnThreshold {
        cap: QUEUE_CAP,
        k: K_MARK,
    }
}

fn build_fat_tree<P: Plane>(k: usize, tuning: SimTuning, seed: u64) -> (P::Sim, FatTree) {
    let (mut sim, ft) = trace::phase("topo.build", || {
        let mut sim: Sim<Segment, P::Agent> = Sim::new(seed);
        sim.set_tuning(tuning);
        let cfg = FatTreeConfig {
            k,
            ..FatTreeConfig::paper(paper_queue())
        };
        let ft = FatTree::build(&mut sim, &cfg, |_| P::host(stack_cfg()));
        (sim, ft)
    });
    trace::phase("netsim.compile_fibs", || sim.compile_fibs());
    (P::wrap(sim), ft)
}

/// What the slice loop observed.
struct Driven {
    /// The traffic has a completion target and the deadline came first.
    missed_target: bool,
    pending_mean: f64,
    steady_allocs: u64,
    steady_hops: u64,
}

/// The slice loop every workload shares: run the driver one slice at a
/// time until the traffic is done or the deadline is reached, sampling the
/// pending-event population and the allocation count at slice boundaries.
fn drive<P: Plane, T>(
    sim: &mut P::Sim,
    driver: &mut Driver,
    topo: &T,
    traffic: &mut impl Traffic<P::Sim, T>,
    deadline: SimTime,
    slice: SimDuration,
) -> Driven {
    let mut pending_sum = 0u64;
    let mut marks: Vec<(u64, u64)> = Vec::with_capacity(8192);
    while sim.now() < deadline && !traffic.done(driver, P::sim(sim).profile().deliver) {
        let t = (sim.now() + slice).min(deadline);
        P::span(Ev::DriverRun, || {
            driver.run(sim, t, |s, d, conn| traffic.on_complete(s, d, topo, conn));
        });
        let inner = P::sim(sim);
        pending_sum += inner.events_scheduled() - inner.events_processed();
        marks.push((alloc::count(), inner.profile().deliver));
    }
    P::span(Ev::DriverRun, || driver.finalize_running(sim));
    let steady_from = marks.len() / 4;
    let (steady_allocs, steady_hops) = match (marks.get(steady_from), marks.last()) {
        (Some(a), Some(b)) => (b.0 - a.0, b.1 - a.1),
        _ => (0, 0),
    };
    Driven {
        missed_target: traffic.has_target() && !traffic.done(driver, P::sim(sim).profile().deliver),
        pending_mean: pending_sum as f64 / marks.len().max(1) as f64,
        steady_allocs,
        steady_hops,
    }
}

/// Result collection: failure accounting, digest, counters, statistics.
fn collect<P: Plane>(
    sim: &mut P::Sim,
    driver: &Driver,
    driven: &Driven,
    schemes: &[Scheme],
) -> Outcome {
    let now = sim.now();
    let audit = P::sim(sim).try_audit_conservation();

    // A bounded flow fails when it completed with the wrong byte count, or
    // when a workload with a completion target hit the deadline first.
    // Flows still in flight at a target or a horizon are expected and left
    // uncounted; an unbounded flow fails when it never moved a byte.
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut h = DefaultHasher::new();
    format!("{now:?}").hash(&mut h);
    let mut bulk_goodput = Vec::new();
    let mut all_goodput = Vec::new();
    let mut fcts = Vec::new();
    let mut bytes_by_scheme = vec![0f64; schemes.len()];
    let (mut rtos, mut frs, mut completed, mut movers, mut moved) = (0u64, 0u64, 0u64, 0u64, 0f64);
    for r in driver.records() {
        format!("{r:?}").hash(&mut h);
        rtos += r.rtos;
        frs += r.fast_retransmits;
        let lifetime = r.completed.unwrap_or(now).duration_since(r.start.min(now));
        let delivered = r.goodput_bps * lifetime.as_secs_f64() / 8.0;
        if let Some(i) = schemes.iter().position(|s| s.label() == r.scheme) {
            bytes_by_scheme[i] += delivered;
        }
        if delivered > 0.0 {
            movers += 1;
            moved += delivered;
        }
        all_goodput.push(r.goodput_bps);
        let unbounded = r.size == u64::MAX;
        match r.completed {
            Some(done) => {
                attempted += 1;
                completed += 1;
                fcts.push(done.duration_since(r.start).as_secs_f64() * 1e3);
                if r.tag < JOB_TAG {
                    bulk_goodput.push(r.goodput_bps);
                }
                let acked = if driver.is_fluid(r.conn) {
                    r.size
                } else {
                    sim.with_host(r.src_node, |st, _| {
                        st.conn_stats(r.conn).map_or(0, |s| s.bytes_acked)
                    })
                };
                if acked != r.size {
                    failed += 1;
                }
            }
            None if unbounded => {
                attempted += 1;
                if r.goodput_bps <= 0.0 {
                    failed += 1;
                }
            }
            None if driven.missed_target => {
                attempted += 1;
                failed += 1;
            }
            None => {}
        }
    }
    format!("{audit:?}").hash(&mut h);

    let inner = P::sim(sim);
    let p = inner.profile();
    let mut c = Counts {
        events: inner.events_processed(),
        hops: p.deliver,
        tx_done: p.tx_done,
        timers: p.timer,
        fluid_ticks: p.fluid_ticks,
        pool_hits: p.pool_hits,
        pool_misses: p.pool_misses,
        nodes: inner.node_count() as u64,
        rtos,
        fast_retransmits: frs,
        flows_submitted: driver.records().count() as u64,
        flows_completed: completed,
        pending_mean: driven.pending_mean,
        steady_allocs: driven.steady_allocs,
        steady_hops: driven.steady_hops,
        fct_p99_ms: if fcts.is_empty() {
            0.0
        } else {
            Cdf::new(fcts).percentile(99.0)
        },
        mean_flow_bytes: moved / movers.max(1) as f64,
        ..Counts::default()
    };
    let goodput = if bulk_goodput.is_empty() {
        all_goodput
    } else {
        bulk_goodput
    };
    c.goodput_mbps = Cdf::new(goodput).mean() / 1e6;
    let (mut delivered, mut bytes, mut ser, mut prop) = (0u64, 0u64, 0f64, 0f64);
    for (_, link) in inner.links() {
        c.links += 1;
        for d in &link.dirs {
            let s = &d.stats;
            c.enqueued += s.enqueued;
            c.marks += s.marked;
            c.drops += s.dropped;
            delivered += s.delivered;
            bytes += s.delivered_bytes.as_bytes();
            ser += link
                .bandwidth
                .transmission_time(s.delivered_bytes)
                .as_nanos() as f64;
            prop += link.delay.as_nanos() as f64 * s.delivered as f64;
        }
    }
    let n = delivered.max(1) as f64;
    c.mean_pkt_bytes = bytes as f64 / n;
    c.mean_serialize_ns = ser / n;
    c.mean_propagate_ns = prop / n;

    let total: f64 = bytes_by_scheme.iter().sum();
    let scheme_mix = schemes
        .iter()
        .zip(&bytes_by_scheme)
        .map(|(&s, &b)| (s, if total > 0.0 { b / total } else { 0.0 }))
        .collect();
    Outcome {
        attempted,
        failed,
        digest: h.finish(),
        audit_ok: audit.is_ok(),
        counts: c,
        scheme_mix,
    }
}

/// How far a repetition goes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Upto {
    /// Set-up alone: an extra `setup_s` sample.
    Setup,
    /// Set-up, run, collect.
    Collect,
}

/// The parts of a repetition every in-process workload shares: the timed
/// run and collect phases, the heap high-water mark, and (traced) the FIB
/// kernel against the repetition's own tables.
#[allow(clippy::too_many_arguments)]
fn finish<P: Plane, T>(
    upto: Upto,
    heap_base: u64,
    mut sim: P::Sim,
    mut driver: Driver,
    topo: &T,
    mut traffic: impl Traffic<P::Sim, T>,
    deadline: SimTime,
    slice: SimDuration,
    schemes: &[Scheme],
) -> Rep {
    if upto == Upto::Setup {
        return Rep {
            record: trace::take(),
            peak_heap_bytes: alloc::peak_bytes() - heap_base,
            outcome: Outcome::default(),
            fib_lookup_ns: None,
        };
    }
    let driven = trace::phase("workloads.run", || {
        drive::<P, T>(&mut sim, &mut driver, topo, &mut traffic, deadline, slice)
    });
    let outcome = trace::phase("workloads.collect", || {
        collect::<P>(&mut sim, &driver, &driven, schemes)
    });
    let peak_heap_bytes = alloc::peak_bytes() - heap_base;
    let record = trace::take();
    let fib_lookup_ns = P::TRACED.then(|| kernels::fib_lookup(P::sim(&sim), &record.samples));
    Rep {
        record,
        peak_heap_bytes,
        outcome,
        fib_lookup_ns,
    }
}

/// Stop rules are checked, and the pending population sampled, once per
/// slice of simulated time.
const SLICE: SimDuration = SimDuration::from_millis(1);

/// One repetition of `w`: fresh simulation, set-up, run, collect.
pub fn rep<P: Plane>(w: InProc, seed: u64, sz: &Sizes) -> Rep {
    rep_upto::<P>(Upto::Collect, w, seed, sz)
}

/// Set-up alone (build, compile, register), for extra `setup_s` samples.
pub fn setup_only(w: InProc, seed: u64, sz: &Sizes) -> f64 {
    rep_upto::<Bare>(Upto::Setup, w, seed, sz).setup_s()
}

fn rep_upto<P: Plane>(upto: Upto, w: InProc, seed: u64, sz: &Sizes) -> Rep {
    trace::reset();
    let heap_base = alloc::reset_peak();
    match w {
        InProc::Ft8Perm => {
            let scheme = Scheme::xmp(4);
            let (sim, ft, driver, pattern) = trace::phase("setup", || {
                let (mut sim, ft) = build_fat_tree::<P>(8, SimTuning::default(), seed);
                let mut driver = Driver::new();
                let pattern = trace::phase("workloads.submit", || {
                    let mut p =
                        PermutationPattern::new(PatternConfig::new(scheme, seed, 128, usize::MAX));
                    p.start(&mut sim, &mut driver, &ft);
                    p
                });
                (sim, ft, driver, pattern)
            });
            let traffic = Perm {
                pattern,
                hop_budget: sz.perm_hops,
            };
            let deadline = SimTime::ZERO + MAX_SIM;
            finish::<P, _>(
                upto,
                heap_base,
                sim,
                driver,
                &ft,
                traffic,
                deadline,
                SLICE,
                &[scheme],
            )
        }
        InProc::Ft8Incast => {
            let scheme = Scheme::xmp(2);
            let (sim, ft, driver, pattern) = trace::phase("setup", || {
                let (mut sim, ft) = build_fat_tree::<P>(8, SimTuning::default(), seed);
                let mut driver = Driver::new();
                let pattern = trace::phase("workloads.submit", || {
                    let mut p =
                        IncastPattern::new(PatternConfig::new(scheme, seed, 128, usize::MAX));
                    p.start(&mut sim, &mut driver, &ft, 8);
                    p
                });
                (sim, ft, driver, pattern)
            });
            let traffic = Incast {
                pattern,
                hop_budget: sz.incast_hops,
            };
            let deadline = SimTime::ZERO + MAX_SIM;
            let schemes = [scheme, Scheme::Tcp];
            finish::<P, _>(
                upto, heap_base, sim, driver, &ft, traffic, deadline, SLICE, &schemes,
            )
        }
        InProc::Ft16Wave => {
            let scheme = Scheme::xmp(2);
            let (sim, ft, driver) = trace::phase("setup", || {
                let (sim, ft) = build_fat_tree::<P>(16, SimTuning::default(), seed);
                let mut driver = Driver::new();
                trace::phase("workloads.submit", || {
                    submit_wave(&mut driver, &ft, scheme, sz.wave_bytes, seed);
                });
                (sim, ft, driver)
            });
            let target = UntilCompleted(ft.hosts.len() as u64);
            let deadline = SimTime::ZERO + MAX_SIM;
            finish::<P, _>(
                upto,
                heap_base,
                sim,
                driver,
                &ft,
                target,
                deadline,
                SLICE,
                &[scheme],
            )
        }
        InProc::DbLong => {
            let schemes = [Scheme::xmp(1), Scheme::Dctcp];
            let (sim, db, driver) = trace::phase("setup", || {
                let (sim, db) = build_dumbbell::<P>(seed);
                let mut driver = Driver::new();
                trace::phase("workloads.submit", || {
                    submit_pairs(&mut driver, &db, &schemes, seed);
                });
                (sim, db, driver)
            });
            let deadline = SimTime::ZERO + sz.db_horizon;
            let slice = SimDuration::from_millis(100);
            finish::<P, _>(
                upto, heap_base, sim, driver, &db, ToHorizon, deadline, slice, &schemes,
            )
        }
        InProc::HybridMix => {
            let schemes = [Scheme::xmp(2), Scheme::Dctcp];
            let (sim, ft, driver) = trace::phase("setup", || {
                let tuning = SimTuning {
                    hybrid: true,
                    ..SimTuning::default()
                };
                let (sim, ft) = build_fat_tree::<P>(8, tuning, seed);
                let mut driver = Driver::new();
                driver.set_fluid_threshold(Some(1 << 20));
                trace::phase("workloads.submit", || {
                    submit_mix(&mut driver, &ft, sz, seed);
                });
                (sim, ft, driver)
            });
            let target = UntilCompleted((HYBRID_ELEPHANTS + sz.mice) as u64);
            let deadline = SimTime::ZERO + MAX_SIM;
            finish::<P, _>(
                upto, heap_base, sim, driver, &ft, target, deadline, SLICE, &schemes,
            )
        }
    }
}

/// `ft16_wave`: host `i` sends one flow to the host half a tree away
/// (always inter-pod), on two seeded distinct path tags, starting at a
/// seeded offset within the first `n` microseconds. Everything is
/// registered before the first event, so nothing chains on completion.
fn submit_wave(driver: &mut Driver, ft: &FatTree, scheme: Scheme, bytes: u64, seed: u64) {
    let n = ft.hosts.len();
    let mut rng = SimRng::new(seed).derive(0x3a7e);
    for i in 0..n {
        let dst = (i + n / 2) % n;
        let subflows = xmp_workloads::patterns::fat_tree_subflows(
            ft,
            i,
            dst,
            scheme.subflow_count(),
            &mut rng,
        );
        driver.submit(FlowSpecBuilder {
            src_node: ft.host(i),
            subflows,
            size: bytes,
            scheme,
            start: SimTime::ZERO + SimDuration::from_micros(rng.uniform_u64(0, n as u64)),
            category: Some(ft.category(i, dst)),
            tag: i as u64,
        });
    }
}

const DB_PAIRS: usize = 16;

fn build_dumbbell<P: Plane>(seed: u64) -> (P::Sim, Dumbbell) {
    let (mut sim, db) = trace::phase("topo.build", || {
        let mut sim: Sim<Segment, P::Agent> = Sim::new(seed);
        let db = Dumbbell::build(
            &mut sim,
            DB_PAIRS,
            Bandwidth::from_gbps(1),
            SimDuration::from_micros(400),
            paper_queue(),
            |_| P::host(stack_cfg()),
        );
        (sim, db)
    });
    trace::phase("netsim.compile_fibs", || sim.compile_fibs());
    (P::wrap(sim), db)
}

/// `db_long`: one unbounded flow per pair, schemes alternating, starting
/// at seeded offsets within the first 10 ms.
fn submit_pairs(driver: &mut Driver, db: &Dumbbell, schemes: &[Scheme], seed: u64) {
    let mut rng = SimRng::new(seed).derive(0xdb10);
    for i in 0..DB_PAIRS {
        driver.submit(FlowSpecBuilder {
            src_node: db.sources[i],
            subflows: vec![SubflowSpec {
                local_port: PortId(0),
                src: Dumbbell::src_addr(i),
                dst: Dumbbell::dst_addr(i),
            }],
            size: u64::MAX,
            scheme: schemes[i % schemes.len()],
            start: SimTime::ZERO + SimDuration::from_micros(rng.uniform_u64(0, 10_000)),
            category: None,
            tag: i as u64,
        });
    }
}

const HYBRID_ELEPHANTS: usize = 256;
const ELEPHANT_STAGGER: SimDuration = SimDuration::from_millis(100);
const MOUSE_BYTES: u64 = 16 << 10;

/// `hybrid_mix`: 256 XMP-2 elephants (two per host, to the host half a
/// tree away, staggered over 100 ms) that the driver offloads to the fluid
/// plane, plus `mice` DCTCP mice on seeded random pairs arriving uniformly
/// over the mice window. With `sz.mice == 0` the fluid plane runs alone,
/// which is the `netsim.fluid_tick_ns` kernel.
fn submit_mix(driver: &mut Driver, ft: &FatTree, sz: &Sizes, seed: u64) {
    let n = ft.hosts.len();
    let tags = [0, ft.tag_count() - 1];
    let step_ns = ELEPHANT_STAGGER.as_nanos() / HYBRID_ELEPHANTS as u64;
    for i in 0..HYBRID_ELEPHANTS {
        let src = i % n;
        let dst = (src + n / 2) % n;
        driver.submit(FlowSpecBuilder {
            src_node: ft.host(src),
            subflows: tags
                .iter()
                .map(|&t| SubflowSpec {
                    local_port: PortId(0),
                    src: ft.host_addr(src, t),
                    dst: ft.host_addr(dst, t),
                })
                .collect(),
            size: sz.elephant_bytes,
            scheme: Scheme::xmp(2),
            start: SimTime::ZERO + SimDuration::from_nanos(i as u64 * (step_ns + 1)),
            category: Some(ft.category(src, dst)),
            tag: 0,
        });
    }
    let mut rng = SimRng::new(seed).derive(0x41ce);
    let window_us = sz.mice_window.as_micros().max(1);
    // Registered latest first: the driver keeps its pending list sorted by
    // descending start, so each insert is a scan without a shift.
    let mut mice_flows: Vec<(u64, usize, usize, usize)> = (0..sz.mice)
        .map(|_| {
            let src = rng.index(n);
            let mut dst = rng.index(n);
            while dst == src {
                dst = rng.index(n);
            }
            (
                rng.uniform_u64(0, window_us),
                src,
                dst,
                rng.index(ft.tag_count()),
            )
        })
        .collect();
    mice_flows.sort_unstable();
    for (start_us, src, dst, t) in mice_flows.into_iter().rev() {
        driver.submit(FlowSpecBuilder {
            src_node: ft.host(src),
            subflows: vec![SubflowSpec {
                local_port: PortId(0),
                src: ft.host_addr(src, t),
                dst: ft.host_addr(dst, t),
            }],
            size: MOUSE_BYTES,
            scheme: Scheme::Dctcp,
            start: SimTime::ZERO + SimDuration::from_micros(start_us),
            category: Some(ft.category(src, dst)),
            tag: JOB_TAG,
        });
    }
}
