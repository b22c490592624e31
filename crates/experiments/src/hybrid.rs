//! Hybrid fluid/packet validation: the same mice + elephants workload run
//! twice — packet-only and hybrid — and compared per traffic class.
//!
//! In hybrid mode the driver offloads every flow at or above the fluid
//! threshold to the analytic fluid plane (`SimTuning::hybrid`,
//! DESIGN.md §18) while the mice stay packet-level on the same queues and
//! see the fluid-contributed occupancy in their ECN marking and drop
//! decisions. The fluid plane is an *approximation* — windows follow the
//! paper's round recurrences instead of per-packet bookkeeping — so this
//! experiment quantifies the fidelity loss on the two numbers the mode
//! trades on:
//!
//! * **Elephant goodput**: per-class mean, hybrid vs packet, within
//!   [`GOODPUT_TOL`].
//! * **Mice FCT**: p50/p99 flow-completion times, hybrid vs packet, within
//!   [`FCT_TOL`]. Mice FCTs are the sensitive output: they inherit queueing
//!   delay from backlogs the elephants only contribute analytically in
//!   hybrid mode.
//!
//! The wall-clock ratio of the two runs is the mode's raw payoff; the
//! benchmark's `hybrid_mix` workload measures it at scale.
//!
//! [`run_million`] is the scale half: it registers a configurable number
//! of concurrent fluid elephants (a million in the default cell) on one
//! fat tree and drives them to a steady state, reporting wall clock,
//! fluid ticks and the aggregate rate — the "million-flow scenarios at
//! packet-mode fidelity" claim, made measurable.

use crate::common::TextTable;
use crate::runner::{self, Cell, Net, Outcome};
use crate::scenario::Scenario;
use std::fmt;
use xmp_des::{SimDuration, SimRng, SimTime};
use xmp_netsim::{FlowId, FluidCc, FluidSpec, FluidSubflowSpec, PortId};
use xmp_topo::FatTree;
use xmp_transport::{SubflowSpec, DEFAULT_MSS};
use xmp_workloads::{Cdf, Driver, FlowSpecBuilder, Scheme};

/// Accepted relative error on the per-class elephant goodput mean.
///
/// Both bands are calibrated empirically (see EXPERIMENTS.md): the fluid
/// plane models elephants at round granularity without slow-start packet
/// bursts or retransmission timeouts, so per-class goodput agrees to well
/// within 25% and mice FCT percentiles to within 50%.
pub const GOODPUT_TOL: f64 = 0.25;
/// Accepted relative error on mice FCT p50/p99.
pub const FCT_TOL: f64 = 0.50;

/// Window over which elephant starts are spread (evenly, in submission
/// order). A synchronized elephant wave is an incast artifact, not a
/// data-center arrival process: every queue fills during the joint
/// slow-start before any congestion signal lands, and the handful of mice
/// born into that instant eat a 200→400→800 ms RTO backoff chain in *both*
/// modes' tails — the percentile then measures the collision, not the
/// steady state the cell is about.
const ELEPHANT_STAGGER: SimDuration = SimDuration::from_millis(100);

/// Configuration for one hybrid-vs-packet comparison.
#[derive(Clone, Debug)]
pub struct HybridConfig {
    /// Fat-tree port count.
    pub k: usize,
    /// Number of elephant flows (host `i` → host `i + n/2`, XMP-2).
    pub elephants: usize,
    /// Bytes per elephant.
    pub elephant_bytes: u64,
    /// Number of mice (random pairs, DCTCP, staggered starts).
    pub mice: usize,
    /// Bytes per mouse.
    pub mice_bytes: u64,
    /// RNG seed (mice placement).
    pub seed: u64,
    /// Hard wall on simulated time; mice arrive uniformly over its first
    /// half.
    pub max_sim: SimDuration,
    /// Fluid tick floor for the hybrid run (`ZERO` = every base RTT).
    pub tick_floor: SimDuration,
}

impl HybridConfig {
    /// The validation cell: k = 8 (128 hosts), 64 elephants, 256 mice.
    pub fn default_cfg() -> Self {
        HybridConfig {
            k: 8,
            elephants: 64,
            elephant_bytes: 4 << 20,
            mice: 256,
            mice_bytes: 16 << 10,
            seed: 42,
            max_sim: SimDuration::from_secs(2),
            tick_floor: SimDuration::ZERO,
        }
    }

    /// CI-sized cell: k = 4 (16 hosts), fast enough for `scripts/check.sh`.
    pub fn quick() -> Self {
        HybridConfig {
            k: 4,
            elephants: 8,
            elephant_bytes: 1 << 20,
            mice: 48,
            max_sim: SimDuration::from_secs(1),
            ..HybridConfig::default_cfg()
        }
    }
}

/// One mode's outcome (packet or hybrid).
#[derive(Clone, Debug)]
pub struct HybridCell {
    /// Whether the fluid plane was on.
    pub hybrid: bool,
    /// Completed elephants.
    pub elephants_done: usize,
    /// Mean elephant goodput (bits/s) over completed + finalized records.
    pub elephant_goodput_bps: f64,
    /// Completed mice.
    pub mice_done: usize,
    /// Mice flow-completion-time p50 (seconds).
    pub mice_fct_p50: f64,
    /// Mice flow-completion-time p99 (seconds).
    pub mice_fct_p99: f64,
    /// Wall-clock milliseconds in the event loop.
    pub wall_ms: f64,
    /// How the cell finished: audit failures and the profile, fluid
    /// rate-update ticks included (0 for the packet run).
    pub outcome: Outcome,
}

/// Both cells plus the per-class comparison verdict.
#[derive(Clone, Debug)]
pub struct HybridResult {
    /// Topology summary.
    pub k: usize,
    /// Hosts in the cell.
    pub hosts: usize,
    /// Packet-only baseline.
    pub packet: HybridCell,
    /// Hybrid run on the identical workload.
    pub hybrid: HybridCell,
}

impl HybridResult {
    /// Relative error of the hybrid elephant goodput mean vs packet.
    pub fn goodput_err(&self) -> f64 {
        rel_err(
            self.hybrid.elephant_goodput_bps,
            self.packet.elephant_goodput_bps,
        )
    }

    /// Relative error of the hybrid mice FCT p50 vs packet.
    pub fn fct_p50_err(&self) -> f64 {
        rel_err(self.hybrid.mice_fct_p50, self.packet.mice_fct_p50)
    }

    /// Relative error of the hybrid mice FCT p99 vs packet.
    pub fn fct_p99_err(&self) -> f64 {
        rel_err(self.hybrid.mice_fct_p99, self.packet.mice_fct_p99)
    }

    /// Wall-clock speedup of the hybrid run over the packet run.
    pub fn speedup(&self) -> f64 {
        if self.hybrid.wall_ms > 0.0 {
            self.packet.wall_ms / self.hybrid.wall_ms
        } else {
            0.0
        }
    }

    /// Both cells' end-of-run audit failures, each after its mode's name.
    pub fn audit_failures(&self) -> Vec<String> {
        let cells = [("packet", &self.packet), ("hybrid", &self.hybrid)];
        let each = cells.map(|(mode, c)| c.outcome.named(mode));
        each.into_iter().flatten().collect()
    }

    /// Every per-class number within its documented tolerance band, and
    /// both runs completed their full flow population.
    pub fn within_tolerance(&self) -> bool {
        self.packet.elephants_done == self.hybrid.elephants_done
            && self.packet.mice_done == self.hybrid.mice_done
            && self.goodput_err() <= GOODPUT_TOL
            && self.fct_p50_err() <= FCT_TOL
            && self.fct_p99_err() <= FCT_TOL
    }
}

fn rel_err(got: f64, want: f64) -> f64 {
    if want == 0.0 {
        if got == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (got - want).abs() / want
    }
}

/// Submit the workload: `elephants` XMP-2 permutation flows plus `mice`
/// DCTCP flows on seeded random pairs. Identical across modes — the fluid
/// threshold decides *where* each flow runs, not *what* is submitted.
fn submit(driver: &mut Driver, ft: &FatTree, cfg: &HybridConfig) {
    let n = ft.hosts.len();
    let tags = [0, ft.tag_count() - 1];
    let subflow = |src, dst, t| SubflowSpec {
        local_port: PortId(0),
        src: ft.host_addr(src, t),
        dst: ft.host_addr(dst, t),
    };
    // Even spread over the stagger window; +i ns keeps starts strictly
    // ordered even with a zero window.
    let step_ns = ELEPHANT_STAGGER.as_nanos() / cfg.elephants.max(1) as u64;
    for i in 0..cfg.elephants {
        let src = i % n;
        let dst = (src + n / 2) % n;
        driver.submit(FlowSpecBuilder {
            src_node: ft.host(src),
            subflows: tags.map(|t| subflow(src, dst, t)).into(),
            size: cfg.elephant_bytes,
            scheme: Scheme::xmp(2),
            start: SimTime::ZERO + SimDuration::from_nanos(i as u64 * step_ns + i as u64),
            category: Some(ft.category(src, dst)),
            tag: 0,
        });
    }
    let mut rng = SimRng::new(cfg.seed);
    // Mice arrive uniformly over [0, max_sim/2].
    let window_us = (cfg.max_sim.as_nanos() / 2_000).max(1);
    for _ in 0..cfg.mice {
        let src = rng.index(n);
        let mut dst = rng.index(n);
        while dst == src {
            dst = rng.index(n);
        }
        let t = rng.index(ft.tag_count());
        driver.submit(FlowSpecBuilder {
            src_node: ft.host(src),
            subflows: vec![subflow(src, dst, t)],
            size: cfg.mice_bytes,
            scheme: Scheme::Dctcp,
            start: SimTime::ZERO + SimDuration::from_micros(rng.uniform_u64(0, window_us)),
            category: Some(ft.category(src, dst)),
            tag: 1,
        });
    }
}

/// A flowless `k`-ary fat tree from [`runner::build`], seeded `seed`, with
/// the fluid plane on when `hybrid`. Panics on a `k` the tree cannot take
/// (odd, or below 4).
fn fat_tree(k: usize, seed: u64, hybrid: bool) -> Cell {
    let mut sc = Scenario {
        seed,
        k,
        ..Scenario::default()
    };
    sc.tuning.hybrid = hybrid;
    runner::build(&sc, None).unwrap_or_else(|e| panic!("{e}"))
}

/// The fat tree of a cell from [`fat_tree`].
fn tree(net: &Net) -> &FatTree {
    net.tree()
        .expect("a scenario's default topology is the fat tree")
}

/// Run the workload in one mode and fold the per-class outcome.
pub fn run_cell(cfg: &HybridConfig, hybrid: bool) -> HybridCell {
    let mut cell = fat_tree(cfg.k, cfg.seed, hybrid);
    let (sim, driver) = (&mut cell.sim, &mut cell.driver);
    if hybrid {
        sim.set_fluid_tick_floor(cfg.tick_floor);
    }

    // Anything elephant-sized goes fluid when the backend supports it;
    // inert on the packet baseline by construction.
    driver.set_fluid_threshold(Some(cfg.elephant_bytes.min(1 << 20)));
    submit(driver, tree(&cell.net), cfg);

    let deadline = SimTime::ZERO + cfg.max_sim;
    let target = cfg.elephants + cfg.mice;
    let wall = std::time::Instant::now();
    let slice = SimDuration::from_millis(10);
    driver.drive(sim, deadline, slice, target, |_, _| {});
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;

    let outcome = cell.finish();
    let mut elephant_goodputs = Vec::new();
    let mut elephants_done = 0usize;
    let mut mice_fcts = Vec::new();
    for r in cell.driver.records() {
        if r.tag == 0 {
            if r.completed.is_some() {
                elephants_done += 1;
            }
            if r.goodput_bps > 0.0 {
                elephant_goodputs.push(r.goodput_bps);
            }
        } else if let Some(done) = r.completed {
            mice_fcts.push(done.duration_since(r.start).as_secs_f64());
        }
    }
    let mice_done = mice_fcts.len();
    let fct = Cdf::new(mice_fcts);
    let goodput = Cdf::new(elephant_goodputs);
    HybridCell {
        hybrid,
        elephants_done,
        elephant_goodput_bps: goodput.mean(),
        mice_done,
        mice_fct_p50: fct.percentile(50.0),
        mice_fct_p99: fct.percentile(99.0),
        wall_ms,
        outcome,
    }
}

/// Run both modes on the identical workload and compare per class.
pub fn run(cfg: &HybridConfig) -> HybridResult {
    let h = cfg.k / 2;
    let hosts = cfg.k * h * h;
    let packet = run_cell(cfg, false);
    let hybrid = run_cell(cfg, true);
    HybridResult {
        k: cfg.k,
        hosts,
        packet,
        hybrid,
    }
}

impl fmt::Display for HybridResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(format!(
            "Hybrid fluid/packet — k={} fat tree ({} hosts), {} elephants + mice",
            self.k,
            self.hosts,
            self.packet.elephants_done.max(self.hybrid.elephants_done),
        ))
        .header([
            "mode",
            "eleph done",
            "eleph Mbps",
            "mice done",
            "FCT p50 ms",
            "FCT p99 ms",
            "wall ms",
            "fluid ticks",
        ]);
        for c in [&self.packet, &self.hybrid] {
            t.row([
                if c.hybrid { "hybrid" } else { "packet" }.into(),
                format!("{}", c.elephants_done),
                format!("{:.1}", c.elephant_goodput_bps / 1e6),
                format!("{}", c.mice_done),
                format!("{:.2}", c.mice_fct_p50 * 1e3),
                format!("{:.2}", c.mice_fct_p99 * 1e3),
                format!("{:.0}", c.wall_ms),
                format!("{}", c.outcome.profile.fluid_ticks),
            ]);
        }
        writeln!(f, "{t}")?;
        writeln!(
            f,
            "goodput err {:.1}% (tol {:.0}%) | FCT p50 err {:.1}% / p99 err {:.1}% (tol {:.0}%) \
             | speedup {:.1}x | {}",
            self.goodput_err() * 100.0,
            GOODPUT_TOL * 100.0,
            self.fct_p50_err() * 100.0,
            self.fct_p99_err() * 100.0,
            FCT_TOL * 100.0,
            self.speedup(),
            if self.within_tolerance() {
                "WITHIN tolerance"
            } else {
                "OUT OF tolerance"
            }
        )
    }
}

/// Configuration of the million-flow scale cell.
#[derive(Clone, Debug)]
pub struct MillionConfig {
    /// Fat-tree port count (the default cell uses 16 → 1024 hosts).
    pub k: usize,
    /// Concurrent unbounded fluid elephants to register.
    pub flows: usize,
    /// RNG seed (pair/tag placement).
    pub seed: u64,
    /// Simulated time to drive the rate processes for.
    pub sim_time: SimDuration,
    /// Fluid tick floor — the fidelity/speed lever; the million-flow cell
    /// amortizes rate updates over many RTTs.
    pub tick_floor: SimDuration,
}

impl MillionConfig {
    /// The default cell: k = 16, one million flows, 10 ms tick floor.
    pub fn default_cfg() -> Self {
        MillionConfig {
            k: 16,
            flows: 1_000_000,
            seed: 42,
            sim_time: SimDuration::from_millis(200),
            tick_floor: SimDuration::from_millis(10),
        }
    }

    /// CI-sized variant.
    pub fn quick() -> Self {
        MillionConfig {
            k: 8,
            flows: 20_000,
            sim_time: SimDuration::from_millis(100),
            ..MillionConfig::default_cfg()
        }
    }
}

/// Outcome of the million-flow cell.
#[derive(Clone, Debug)]
pub struct MillionResult {
    /// Flows registered.
    pub flows: usize,
    /// Flows still actively sending at the end (unbounded ⇒ all of them).
    pub active: usize,
    /// Wall-clock milliseconds: registration + event loop.
    pub wall_ms: f64,
    /// Aggregate steady-state sending rate (Gbit/s) across all flows.
    pub agg_rate_gbps: f64,
    /// How the cell finished: audit failures and the profile, fluid
    /// rate-update ticks included.
    pub outcome: Outcome,
}

/// Register `cfg.flows` unbounded fluid elephants on one fat tree and
/// drive them to `cfg.sim_time`. Goes through `Sim::fluid_open` directly —
/// at this scale there is no per-flow driver bookkeeping to pay for.
pub fn run_million(cfg: &MillionConfig) -> MillionResult {
    let mut cell = fat_tree(cfg.k, cfg.seed, true);
    let (sim, ft) = (&mut cell.sim, tree(&cell.net));
    sim.set_fluid_tick_floor(cfg.tick_floor);
    let n = ft.hosts.len();
    let tag_count = ft.tag_count();

    let wall = std::time::Instant::now();
    let mut rng = SimRng::new(cfg.seed);
    for i in 0..cfg.flows {
        let src = rng.index(n);
        let mut dst = rng.index(n);
        while dst == src {
            dst = rng.index(n);
        }
        let tag = rng.index(tag_count);
        let spec = FluidSpec {
            src_node: ft.host(src),
            code: i as u64,
            cc: FluidCc::Bos {
                beta: 4.0,
                coupled: true,
            },
            size: None,
            mss: DEFAULT_MSS,
            subflows: vec![FluidSubflowSpec {
                local_port: PortId(0),
                dst: ft.host_addr(dst, tag),
                flow: FlowId((i as u64) << 3),
            }],
        };
        sim.fluid_open(&spec).expect("hybrid is on");
    }
    let deadline = SimTime::ZERO + cfg.sim_time;
    sim.run_until(deadline, |_, _, _| {});
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;

    let agg_rate_bps: f64 = (0..cfg.flows)
        .map(|i| {
            sim.fluid_stats(xmp_netsim::FluidId(i as u32))
                .map_or(0.0, |s| s.rate_bps)
        })
        .sum();
    MillionResult {
        flows: cfg.flows,
        active: sim.fluid_active(),
        wall_ms,
        agg_rate_gbps: agg_rate_bps / 1e9,
        outcome: cell.finish(),
    }
}

impl fmt::Display for MillionResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ticks = self.outcome.profile.fluid_ticks;
        writeln!(
            f,
            "million-flow cell: {} fluid flows, {} active at end | wall {:.0} ms | \
             {} fluid ticks | aggregate {:.1} Gbit/s",
            self.flows, self.active, self.wall_ms, ticks, self.agg_rate_gbps,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_cell_is_within_tolerance() {
        let r = run(&HybridConfig::quick());
        let ticks = |c: &HybridCell| c.outcome.profile.fluid_ticks;
        assert!(ticks(&r.hybrid) > 0, "hybrid run never ticked");
        assert_eq!(ticks(&r.packet), 0, "packet run must not tick");
        assert!(r.within_tolerance(), "{r}");
    }

    #[test]
    fn small_million_cell_reaches_steady_state() {
        let cfg = MillionConfig {
            k: 4,
            flows: 2_000,
            sim_time: SimDuration::from_millis(50),
            tick_floor: SimDuration::from_millis(5),
            ..MillionConfig::default_cfg()
        };
        let r = run_million(&cfg);
        assert_eq!(r.active, cfg.flows, "unbounded flows must stay active");
        assert!(r.outcome.profile.fluid_ticks > 0);
        assert!(r.agg_rate_gbps > 0.0, "{r}");
        assert!(r.outcome.failures.is_empty(), "{:?}", r.outcome.failures);
    }
}
