//! Ablations and extensions beyond the paper's evaluation.
//!
//! 1. **β/K sweep** — the paper's future-work item ("a deeper
//!    understanding on these impacts should be based on further
//!    theoretical analysis"): `scenarios/paper/sweep.scn` sweeps the
//!    window-reduction divisor β and the marking threshold K on a shared
//!    bottleneck, one variant per (β, K), and this module reports
//!    utilization, mean queue depth (≈ latency) and fairness. Eq. 1
//!    predicts the utilization cliff at `K < BDP/(β−1)`.
//! 2. **Coupling ablation** — XMP with TraSh disabled (`uXMP`): an
//!    n-subflow flow competing against single-path flows takes roughly n
//!    shares, violating the fairness goal that motivates coupling
//!    (paper Section 2.2). `scenarios/paper/coupling.scn` is the cell, one
//!    variant coupled and one not; this module reports the 3-subflow
//!    flow's share of the bottleneck in its second epoch.
//! 3. **OLIA comparison** — the Pareto-optimality fix the paper's
//!    Section 7 points to, run through the same fat-tree suite. It and the
//!    routing and RTO legs are edits of `fattree.scn`'s quick cell
//!    ([`quick_cell`]).
//!
//! Every cell is built by [`runner::build`].

use crate::common::{frac, mbps, TextTable};
use crate::runner;
use crate::scenario::{LinkRef, QdiscSpec, Scenario, Topology, Variant};
use crate::suite::{quick_cell, run_suite, Pattern, SuiteResult};
use std::fmt;
use xmp_core::XmpParams;
use xmp_des::{Bandwidth, ByteSize, SimDuration, SimTime};
use xmp_topo::RoutingMode;
use xmp_workloads::{jain_index, RateBins, Scheme};

/// The β/K sweep, built in so that `ablation` runs from any directory.
pub const SWEEP: &str = include_str!("../../../scenarios/paper/sweep.scn");

/// The coupling ablation, built in likewise.
pub const COUPLING: &str = include_str!("../../../scenarios/paper/coupling.scn");

/// One β/K sweep point.
#[derive(Debug)]
pub struct SweepPoint {
    /// β.
    pub beta: u32,
    /// K (packets).
    pub k: usize,
    /// Bottleneck utilization over the window.
    pub utilization: f64,
    /// Time-weighted mean queue depth (packets).
    pub mean_queue: f64,
    /// Jain index over the four flows.
    pub jain: f64,
    /// Whether Eq. 1 predicts full utilization at this point.
    pub eq1_satisfied: bool,
}

/// Full ablation result.
#[derive(Debug)]
pub struct AblationResult {
    /// The β/K sweep grid, by (β, K).
    pub sweep: Vec<SweepPoint>,
    /// (coupled share, uncoupled share) of a 3-subflow flow against three
    /// single-path competitors.
    pub coupling: (f64, f64),
    /// (scheme label, avg goodput bps) for XMP-2 / LIA-2 / OLIA-2 on the
    /// permutation suite.
    pub olia_rows: Vec<(String, f64)>,
    /// (routing label, avg goodput bps) for XMP-2 under two-level lookup
    /// vs per-flow ECMP.
    pub routing_rows: Vec<(String, f64)>,
    /// (label, avg goodput bps, median JCT ms) for LIA-2 and XMP-2 under
    /// RTOmin 200 ms vs 10 ms on the Incast pattern — the paper's
    /// related-work conjecture that fine-grained RTO would help MPTCP.
    pub rto_rows: Vec<(String, f64, f64)>,
    /// Every end-of-run audit failure of a cell, after the cell's name or
    /// row label; empty when every cell is sound.
    pub audit: Vec<String>,
}

/// Variant `v` of the sweep `sc`: its flows warm up until the last window
/// (`unit_us`) and are measured over it, on the dumbbell's bottleneck.
fn sweep_point(sc: &Scenario, v: &Variant, audit: &mut Vec<String>) -> Result<SweepPoint, String> {
    let Topology::Dumbbell(_, mbps, rtt_us) = sc.paper.topology else {
        return Err(format!(
            "the sweep runs on a dumbbell, not {}",
            sc.paper.topology
        ));
    };
    let QdiscSpec::Ecn { k, .. } = sc.qdisc_of(Some(v))? else {
        return Err(format!("`{}` marks by no threshold K", v.title));
    };
    let mut cell = runner::build(sc, Some(v))?;
    let link = cell.net.link(LinkRef::Bottleneck(0));
    let link = link.ok_or("the sweep's dumbbell has no bottleneck")?;
    let (sim, d) = (&mut cell.sim, &mut cell.driver);
    let window = SimDuration::from_micros(sc.paper.unit_us);
    let mut bins = RateBins::new(cell.conns.iter().map(|&c| (c, 0)), window);
    let warm = SimTime::ZERO + window * sc.paper.epochs.saturating_sub(1);
    bins.run(d, sim, warm);
    let bytes_before = sim.link(link).dir(0).stats.delivered_bytes;
    let t0 = sim.now();
    bins.run(d, sim, t0 + window);
    let rates = bins.rows().last().ok_or("the sweep ran no window")?;
    let s = &sim.link(link).dir(0).stats;
    let dt = sim.now().duration_since(t0).as_secs_f64();
    let bits = (s.delivered_bytes - bytes_before).as_bytes() as f64 * 8.0;
    let (rate, rtt) = (Bandwidth::from_mbps(mbps), SimDuration::from_micros(rtt_us));
    let bdp = XmpParams::bdp_packets(rate, rtt, ByteSize::from_bytes(1500));
    let beta = v.beta;
    let point = SweepPoint {
        beta,
        k,
        utilization: bits / (mbps as f64 * 1e6 * dt),
        mean_queue: s.mean_depth(sim.now()),
        jain: jain_index(rates),
        eq1_satisfied: XmpParams { beta, k }.full_utilization(bdp),
    };
    audit.extend(cell.finish().named(&v.title));
    Ok(point)
}

/// Run `sc`, the coupling cell: each variant's share of the bottleneck in
/// the second epoch, coupled first. Its audit failures go onto `audit`,
/// after their variant.
fn coupling_shares(sc: &Scenario, audit: &mut Vec<String>) -> Result<(f64, f64), String> {
    let r = runner::run("coupling", sc)?;
    audit.extend(r.audit_failures());
    let share = |i: usize| r.runs.get(i)?.epochs.get(1)?.first().copied();
    let why = "coupling.scn runs no two variants over two epochs";
    share(0).zip(share(1)).ok_or(why.into())
}

/// One suite leg, named `label`: `fattree.scn`'s quick cell of `kind`
/// under `scheme` at `seed` (`None`: the file's), grown unless `quick` to
/// the k = 8 tree and 150 flows (30 Incast jobs) within 30 s, then
/// `edit`ed. Its audit failures go onto `audit`, after `label`.
fn leg(
    (quick, seed): (bool, Option<u64>),
    (kind, scheme): (Pattern, Scheme),
    label: &str,
    edit: impl FnOnce(&mut Scenario),
    audit: &mut Vec<String>,
) -> Result<SuiteResult, String> {
    let (mut sc, v) = quick_cell(kind, scheme);
    sc.seed = seed.unwrap_or(sc.seed);
    if let Some(p) = sc.paper.pattern.as_mut().filter(|_| !quick) {
        (sc.k, p.flows, p.min_jobs, p.max_sim_us) = (8, 150, 30, 30_000_000);
    }
    edit(&mut sc);
    let run = run_suite(&sc, &v)?;
    audit.extend(run.outcome.named(label));
    Ok(run.result)
}

/// The built-in `file`, `text`, in its `--quick` form if `quick`, at `seed`
/// (`None`: the file's).
fn committed(file: &str, text: &str, quick: bool, seed: Option<u64>) -> Result<Scenario, String> {
    let sc = runner::load(text).map_err(|e| format!("{file}: {e}"))?;
    let mut sc = if quick { sc.quick() } else { sc };
    sc.seed = seed.unwrap_or(sc.seed);
    Ok(sc)
}

/// Run all three ablations, `quick`ly or not, every cell at `seed`
/// (`None`: its file's). An `Err` is a cell that does not build.
pub fn run(quick: bool, seed: Option<u64>) -> Result<AblationResult, String> {
    let sc = committed("sweep.scn", SWEEP, quick, seed)?;
    let mut audit = Vec::new();
    let points = sc
        .paper
        .variants
        .iter()
        .map(|v| sweep_point(&sc, v, &mut audit));
    let mut sweep = points.collect::<Result<Vec<_>, _>>()?;
    sweep.sort_by_key(|p| (p.beta, p.k));
    let coupled = committed("coupling.scn", COUPLING, quick, seed)?;
    let coupling = coupling_shares(&coupled, &mut audit)?;
    let legs = (quick, seed);
    let perm = |s| (Pattern::Permutation, s);
    let mut olia_rows = Vec::new();
    for s in [Scheme::xmp(2), Scheme::lia(2), Scheme::Olia { subflows: 2 }] {
        let r = leg(legs, perm(s), &s.label(), |_| {}, &mut audit)?;
        olia_rows.push((s.label(), r.avg_goodput_bps));
    }
    // The two-level row is the XMP-2 cell above (same scenario, seed and
    // routing), so only the ECMP leg runs.
    let mut routing_rows = vec![("two-level (paper)".to_string(), olia_rows[0].1)];
    let ecmp = |sc: &mut Scenario| sc.routing = RoutingMode::EcmpPerFlow;
    let r = leg(
        legs,
        perm(Scheme::xmp(2)),
        "per-flow ECMP",
        ecmp,
        &mut audit,
    )?;
    routing_rows.push(("per-flow ECMP".to_string(), r.avg_goodput_bps));
    let mut rto_rows = Vec::new();
    for (scheme, ms) in [
        (Scheme::lia(2), 200u64),
        (Scheme::lia(2), 10),
        (Scheme::xmp(2), 200),
        (Scheme::xmp(2), 10),
    ] {
        let label = format!("{} @ RTOmin {ms}ms", scheme.label());
        let rto = |sc: &mut Scenario| sc.rto_min_us = ms * 1000;
        let r = leg(legs, (Pattern::Incast, scheme), &label, rto, &mut audit)?;
        let jct = r.job_times_ms.as_ref().map_or(0.0, |c| c.median());
        rto_rows.push((label, r.avg_goodput_bps, jct));
    }
    Ok(AblationResult {
        sweep,
        coupling,
        olia_rows,
        routing_rows,
        rto_rows,
        audit,
    })
}

impl fmt::Display for AblationResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new("Ablation — beta/K sweep (4 XMP flows, 1 Gbps, BDP ~33 pkts)")
            .header(["beta", "K", "Eq.1 ok", "utilization", "mean queue", "jain"]);
        for p in &self.sweep {
            t.row([
                p.beta.to_string(),
                p.k.to_string(),
                if p.eq1_satisfied { "yes" } else { "no" }.into(),
                frac(p.utilization),
                format!("{:.1}", p.mean_queue),
                frac(p.jain),
            ]);
        }
        writeln!(f, "{t}")?;
        let mut t = TextTable::new("Ablation — TraSh coupling (3-subflow flow vs 3 single flows)")
            .header(["variant", "share of bottleneck", "fair share"]);
        t.row([
            "XMP (coupled)".to_string(),
            frac(self.coupling.0),
            frac(0.25),
        ]);
        t.row([
            "uXMP (uncoupled)".to_string(),
            frac(self.coupling.1),
            frac(0.25),
        ]);
        writeln!(f, "{t}")?;
        let mut t = TextTable::new("Extension — OLIA vs LIA vs XMP (Permutation)")
            .header(["scheme", "avg goodput (Mbps)"]);
        for (label, bps) in &self.olia_rows {
            t.row([label.clone(), mbps(*bps)]);
        }
        writeln!(f, "{t}")?;
        let mut t = TextTable::new("Ablation — uplink routing (XMP-2, Permutation)")
            .header(["routing", "avg goodput (Mbps)"]);
        for (label, bps) in &self.routing_rows {
            t.row([label.clone(), mbps(*bps)]);
        }
        writeln!(f, "{t}")?;
        let mut t =
            TextTable::new("Extension — fine-grained RTO (Incast; Vasudevan et al. conjecture)")
                .header(["variant", "avg goodput (Mbps)", "median JCT (ms)"]);
        for (label, bps, jct) in &self.rto_rows {
            t.row([label.clone(), mbps(*bps), format!("{jct:.1}")]);
        }
        writeln!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `sweep.scn` at the tests' 600 ms window and seed 3.
    fn tiny() -> Scenario {
        let mut sc = runner::load(SWEEP).expect("sweep.scn loads");
        (sc.paper.unit_us, sc.seed) = (600_000, 3);
        sc
    }

    /// The sweep's (β, K) point at the tests' window and seed.
    fn point(beta: u32, k: usize, audit: &mut Vec<String>) -> SweepPoint {
        let sc = tiny();
        let v = sc
            .paper
            .variants
            .iter()
            .find(|v| (v.beta, v.k) == (beta, Some(k)));
        sweep_point(&sc, v.expect("a point of the grid"), audit).expect("the point builds")
    }

    /// A suite leg's audit reaches the result's list, named by its row,
    /// instead of panicking; a sound leg adds nothing to it.
    #[test]
    fn a_suite_leg_reports_its_audit() {
        let mut audit = Vec::new();
        let small = |sc: &mut Scenario| {
            let p = sc
                .paper
                .pattern
                .as_mut()
                .expect("fattree.scn has a [pattern]");
            (p.flows, p.max_sim_us) = (6, 2_000_000);
        };
        let xmp = (Pattern::Permutation, Scheme::xmp(2));
        let r = leg((true, Some(3)), xmp, "XMP-2", small, &mut audit).expect("the leg builds");
        assert!(r.completed_flows >= 6, "{r}");
        assert_eq!(audit, Vec::<String>::new());
    }

    #[test]
    fn eq1_predicts_the_utilization_cliff() {
        let mut audit = Vec::new();
        // beta=2 needs K >= 33.3: K=5 under-utilizes, K=30 nearly does not.
        let low = point(2, 5, &mut audit);
        let high = point(2, 30, &mut audit);
        assert!(!low.eq1_satisfied && low.utilization < 0.85, "{low:?}");
        assert!(
            high.utilization > low.utilization + 0.1,
            "K=30 {high:?} vs K=5 {low:?}"
        );
        // Larger beta tolerates small K: beta=6 with K=30 >= 33.3/5.
        let b6 = point(6, 30, &mut audit);
        assert!(b6.eq1_satisfied && b6.utilization > 0.85, "{b6:?}");
        assert!(audit.is_empty(), "{audit:?}");
    }

    #[test]
    fn queue_depth_tracks_k() {
        let small = point(4, 5, &mut Vec::new());
        let large = point(4, 30, &mut Vec::new());
        assert!(
            large.mean_queue > small.mean_queue,
            "queue should grow with K: {} vs {}",
            small.mean_queue,
            large.mean_queue
        );
    }

    /// `coupling.scn` at the tests' 1.2 s epochs and seed 3.
    #[test]
    fn coupling_restores_fairness() {
        let mut sc = runner::load(COUPLING).expect("coupling.scn loads");
        (sc.paper.unit_us, sc.seed) = (1_200_000, 3);
        let mut audit = Vec::new();
        let (coupled, uncoupled) = coupling_shares(&sc, &mut audit).expect("builds");
        assert!(audit.is_empty(), "{audit:?}");
        // Fair share is 0.25; uncoupled should grab roughly 3 of 6 "slots".
        assert!(
            uncoupled > coupled + 0.1,
            "uncoupled {uncoupled} should exceed coupled {coupled}"
        );
        assert!(
            (0.15..0.40).contains(&coupled),
            "coupled share {coupled} should be near fair 0.25"
        );
        assert!(uncoupled > 0.38, "uncoupled share {uncoupled}");
    }
}
