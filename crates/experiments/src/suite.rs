//! The fat-tree evaluation suite (paper Section 5.2): one simulation per
//! (scheme × traffic pattern), from which Table 1 (average goodput),
//! Fig. 8 (goodput distributions), Fig. 9 + Table 3 (job completion times),
//! Fig. 10 (RTT distributions) and Fig. 11 (link utilization by layer) are
//! all extracted.
//!
//! The paper runs >2000 large flows moving ~600 GB per pattern; the suite
//! keeps the flow counts and divides flow sizes by `scale`
//! (goodput is a rate, so the distribution shapes survive scaling —
//! EXPERIMENTS.md records the scale used).

use crate::common::{end_of_run_audit, mbps, TextTable};
use std::collections::BTreeMap;
use std::fmt;
use xmp_des::{SimDuration, SimTime};
use xmp_netsim::{QdiscConfig, Sim, SimTuning};
use xmp_topo::{FatTree, FatTreeConfig, FlowCategory, LinkLayer, RoutingMode};
use xmp_transport::{HostStack, Segment, StackConfig};
use xmp_workloads::{
    link_utilization, Cdf, Driver, Host, IncastPattern, PatternConfig, PermutationPattern,
    RandomPattern, Scheme,
};

/// Which of the paper's traffic patterns to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// Every host → one random destination; waves.
    Permutation,
    /// One chained random flow per host, Pareto sizes.
    Random,
    /// 8 concurrent 9-host jobs over TCP + Random background.
    Incast,
}

impl Pattern {
    /// Table label.
    pub fn label(&self) -> &'static str {
        match self {
            Pattern::Permutation => "Permutation",
            Pattern::Random => "Random",
            Pattern::Incast => "Incast",
        }
    }
}

/// One (scheme, pattern) simulation's configuration.
#[derive(Clone, Debug)]
pub struct SuiteConfig {
    /// Fat-tree port count (paper: 8 → 128 hosts, 80 switches).
    pub k: usize,
    /// Scheme for large flows.
    pub scheme: Scheme,
    /// Traffic pattern.
    pub pattern: Pattern,
    /// Stop after this many completed large flows (paper: >2000).
    pub target_flows: usize,
    /// For the Incast pattern, additionally require this many completed
    /// Jobs before stopping (the JCT distributions need the sample size).
    pub min_jobs: usize,
    /// Flow-size divisor.
    pub scale: u64,
    /// Hard wall on simulated time.
    pub max_sim: SimDuration,
    /// Queue capacity in packets (paper: 100).
    pub queue_cap: usize,
    /// RNG seed.
    pub seed: u64,
    /// Optional per-host scheme split (Table 2): even hosts get `scheme`,
    /// odd hosts get this one.
    pub coexist_with: Option<Scheme>,
    /// Uplink routing mode (ablation; the paper uses two-level lookup).
    pub routing: RoutingMode,
    /// Minimum RTO for every host stack (paper: 200 ms; the fine-grained
    /// RTO ablation follows Vasudevan et al., discussed in the paper's
    /// related work).
    pub rto_min: SimDuration,
    /// Simulator mode switches (graceful no-route, hybrid).
    pub tuning: SimTuning,
    /// Install probes sampling every core link at this interval (`None`,
    /// the default, schedules nothing; probes observe without perturbing,
    /// so either way the flow outcomes are the same).
    pub probe_interval: Option<SimDuration>,
}

impl SuiteConfig {
    /// Paper-shaped defaults at a tractable scale.
    pub fn new(scheme: Scheme, pattern: Pattern) -> Self {
        SuiteConfig {
            k: 8,
            scheme,
            pattern,
            target_flows: 2000,
            min_jobs: 400,
            scale: 128,
            max_sim: SimDuration::from_secs(120),
            queue_cap: 100,
            seed: 42,
            coexist_with: None,
            routing: RoutingMode::TwoLevel,
            rto_min: SimDuration::from_millis(200),
            tuning: SimTuning::default(),
            probe_interval: None,
        }
    }

    /// Small variant for benches and tests (k = 4 tree, few flows). Flow
    /// sizes stay in the multi-megabyte range — scaling them into the
    /// tens-of-kilobytes regime would turn the paper's *large* flows into
    /// small ones and invert every comparison.
    pub fn quick(scheme: Scheme, pattern: Pattern) -> Self {
        SuiteConfig {
            k: 4,
            target_flows: 40,
            min_jobs: 8,
            scale: 128,
            max_sim: SimDuration::from_secs(20),
            ..SuiteConfig::new(scheme, pattern)
        }
    }

    /// Bench/test variant on the full k = 8 tree (XMP needs the path
    /// diversity of the real topology for the comparative claims).
    pub fn quick_k8(scheme: Scheme, pattern: Pattern) -> Self {
        SuiteConfig {
            k: 8,
            target_flows: 150,
            min_jobs: 30,
            scale: 128,
            max_sim: SimDuration::from_secs(30),
            ..SuiteConfig::new(scheme, pattern)
        }
    }
}

/// Everything measured in one run.
#[derive(Debug)]
pub struct SuiteResult {
    /// Scheme label.
    pub scheme: String,
    /// Pattern run.
    pub pattern: Pattern,
    /// Mean goodput over completed large flows (bits/s).
    pub avg_goodput_bps: f64,
    /// Goodput distribution, normalized to the 1 Gbps access capacity.
    pub goodput_cdf: Cdf,
    /// Normalized goodput by locality class.
    pub goodput_by_category: BTreeMap<&'static str, Cdf>,
    /// Mean per-flow RTT (ms) by locality class.
    pub rtt_by_category: BTreeMap<&'static str, Cdf>,
    /// Link utilization distribution by layer.
    pub util_by_layer: BTreeMap<&'static str, Cdf>,
    /// Job completion times in ms (Incast only).
    pub job_times_ms: Option<Cdf>,
    /// Mean goodput (bits/s) per scheme label (coexistence runs).
    pub goodput_by_scheme: BTreeMap<String, f64>,
    /// Per layer: mean (over links, busier direction) fraction of time the
    /// instantaneous queue sat at or above the marking threshold K — the
    /// paper's buffer-occupancy story in one number.
    pub occupancy_above_k: BTreeMap<&'static str, f64>,
    /// Completed large flows.
    pub completed_flows: usize,
    /// Simulated time used.
    pub sim_time: SimTime,
}

fn category_name(c: FlowCategory) -> &'static str {
    match c {
        FlowCategory::InterPod => "Inter-Pod",
        FlowCategory::InterRack => "Inter-Rack",
        FlowCategory::InnerRack => "Inner-Rack",
    }
}

fn layer_name(l: LinkLayer) -> &'static str {
    match l {
        LinkLayer::Core => "Core",
        LinkLayer::Aggregation => "Aggregation",
        LinkLayer::Rack => "Rack",
    }
}

/// Switch marking threshold K, packets (paper: 10; the β/K ablation sweeps
/// K on its own dumbbell).
const K_MARK: usize = 10;

enum PatternState {
    Perm(PermutationPattern),
    Rand(RandomPattern),
    Incast(IncastPattern),
}

/// Run one (scheme, pattern) simulation.
///
/// # Panics
/// Panics naming the failures if the cell's end-of-run audit fails;
/// [`run_suite_profiled`] returns them instead.
pub fn run_suite(cfg: &SuiteConfig) -> SuiteResult {
    let (r, _, audit) = run_suite_profiled(cfg);
    assert!(
        audit.is_empty(),
        "{} / {}: end-of-run audit failed: {audit:?}",
        r.scheme,
        r.pattern.label()
    );
    r
}

/// [`run_suite`], also returning the simulator's profiling counters (event
/// mix, pool hit rate, wall time in the event loop) and every failure of
/// the cell's end-of-run audit ([`end_of_run_audit`]; empty when the run
/// is sound). The counters are costs and the audit a verdict, not
/// outcomes, so both stay out of [`SuiteResult`] and its determinism
/// digests.
pub fn run_suite_profiled(cfg: &SuiteConfig) -> (SuiteResult, xmp_netsim::SimProfile, Vec<String>) {
    let mut sim: Sim<Segment, Host> = Sim::new(cfg.seed);
    sim.set_tuning(cfg.tuning);
    let qdisc = QdiscConfig::EcnThreshold {
        cap: cfg.queue_cap,
        k: K_MARK,
    };
    let ft_cfg = FatTreeConfig {
        k: cfg.k,
        routing: cfg.routing,
        ..FatTreeConfig::paper(qdisc)
    };
    let stack_cfg = StackConfig::default().with_rto_min(cfg.rto_min);
    let ft = FatTree::build(&mut sim, &ft_cfg, |_| HostStack::new(stack_cfg.clone()));
    let mut driver = Driver::new();

    if let Some(interval) = cfg.probe_interval {
        let mut pc = xmp_netsim::ProbeConfig::every(interval).until(SimTime::ZERO + cfg.max_sim);
        for (_, id) in ft.links_by_layer().filter(|&(l, _)| l == LinkLayer::Core) {
            pc = pc.watch_queue(id, 0).watch_queue(id, 1);
        }
        sim.install_probes(pc);
    }

    let pcfg = PatternConfig::new(cfg.scheme, cfg.seed, cfg.scale, usize::MAX);
    let mut pattern = match cfg.pattern {
        Pattern::Permutation => {
            let mut p = PermutationPattern::new(pcfg);
            p.start(&mut sim, &mut driver, &ft);
            PatternState::Perm(p)
        }
        Pattern::Random => {
            let mut p = RandomPattern::new(pcfg);
            if let Some(other) = cfg.coexist_with {
                p.host_schemes = Some(
                    (0..ft.hosts.len())
                        .map(|h| if h % 2 == 0 { cfg.scheme } else { other })
                        .collect(),
                );
            }
            p.start(&mut sim, &mut driver, &ft);
            PatternState::Rand(p)
        }
        Pattern::Incast => {
            let mut p = IncastPattern::new(pcfg);
            p.start(&mut sim, &mut driver, &ft, 8);
            PatternState::Incast(p)
        }
    };

    // Run in short slices until enough large flows completed.
    let slice = SimDuration::from_millis(100);
    let mut large_done = 0usize;
    let deadline = SimTime::ZERO + cfg.max_sim;
    let done = |large_done: usize, pattern: &PatternState| {
        large_done >= cfg.target_flows
            && match pattern {
                PatternState::Incast(p) => p.jobs_completed() >= cfg.min_jobs,
                _ => true,
            }
    };
    while sim.now() < deadline && !done(large_done, &pattern) {
        let t = (sim.now() + slice).min(deadline);
        driver.run(&mut sim, t, |sim, d, conn| {
            let is_large = d.record(conn).is_some_and(|r| r.tag < 1_000_000);
            if is_large {
                large_done += 1;
            }
            match &mut pattern {
                PatternState::Perm(p) => p.on_complete(sim, d, &ft, conn),
                PatternState::Rand(p) => p.on_complete(sim, d, &ft, conn),
                PatternState::Incast(p) => p.on_complete(sim, d, &ft, conn),
            }
        });
    }
    driver.finalize_running(&mut sim);
    let audit = end_of_run_audit(&sim);
    let now = sim.now();

    // Collect per-flow metrics over completed large flows.
    const ACCESS_BPS: f64 = 1e9;
    let large = || {
        driver
            .records()
            .filter(|r| r.tag < 1_000_000 && r.completed.is_some())
    };
    let avg_goodput_bps = {
        let (sum, n) = large().fold((0.0, 0usize), |(s, n), r| (s + r.goodput_bps, n + 1));
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    };
    let goodput_cdf = Cdf::new(large().map(|r| r.goodput_bps / ACCESS_BPS));
    let mut by_cat: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut rtt_cat: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for r in large() {
        if let Some(c) = r.category {
            by_cat
                .entry(category_name(c))
                .or_default()
                .push(r.goodput_bps / ACCESS_BPS);
            if r.mean_rtt_ns > 0 {
                rtt_cat
                    .entry(category_name(c))
                    .or_default()
                    .push(r.mean_rtt_ns as f64 / 1e6);
            }
        }
    }
    let mut goodput_by_scheme: BTreeMap<String, f64> = BTreeMap::new();
    if cfg.coexist_with.is_some() {
        let mut sums: BTreeMap<String, (f64, usize)> = BTreeMap::new();
        for r in large() {
            let e = sums.entry(r.scheme.clone()).or_default();
            e.0 += r.goodput_bps;
            e.1 += 1;
        }
        for (k, (s, n)) in sums {
            goodput_by_scheme.insert(k, s / n.max(1) as f64);
        }
    }

    // Link utilization and buffer occupancy by layer.
    let mut util_by_layer = BTreeMap::new();
    let mut occupancy_above_k = BTreeMap::new();
    for layer in [LinkLayer::Core, LinkLayer::Aggregation, LinkLayer::Rack] {
        let ids: Vec<_> = ft
            .links_by_layer()
            .filter(|&(l, _)| l == layer)
            .map(|(_, id)| id)
            .collect();
        util_by_layer.insert(
            layer_name(layer),
            Cdf::new(link_utilization(&sim, ids.iter().copied(), now)),
        );
        let mean_occ = if ids.is_empty() {
            0.0
        } else {
            ids.iter()
                .map(|&id| {
                    let l = sim.link(id);
                    l.dirs[0]
                        .stats
                        .occupancy_at_least(K_MARK)
                        .max(l.dirs[1].stats.occupancy_at_least(K_MARK))
                })
                .sum::<f64>()
                / ids.len() as f64
        };
        occupancy_above_k.insert(layer_name(layer), mean_occ);
    }

    let job_times_ms = match &pattern {
        PatternState::Incast(p) if !p.job_times_ms.is_empty() => {
            Some(Cdf::new(p.job_times_ms.iter().copied()))
        }
        _ => None,
    };

    let result = SuiteResult {
        scheme: cfg.scheme.label(),
        pattern: cfg.pattern,
        avg_goodput_bps,
        goodput_cdf,
        goodput_by_category: by_cat.into_iter().map(|(k, v)| (k, Cdf::new(v))).collect(),
        rtt_by_category: rtt_cat.into_iter().map(|(k, v)| (k, Cdf::new(v))).collect(),
        util_by_layer,
        job_times_ms,
        goodput_by_scheme,
        occupancy_above_k,
        completed_flows: large_done,
        sim_time: now,
    };
    (result, *sim.profile(), audit)
}

/// Run a batch of suite cells across OS threads.
///
/// Each `(scheme, pattern, seed)` cell is a fully self-contained
/// simulation — it owns its engine, RNG, topology and flow driver — so the
/// batch is embarrassingly parallel. Workers pull cell indices from a
/// shared atomic counter and stream results back over a channel; the batch
/// returns in **input order** and is byte-identical to calling
/// [`run_suite`] on each config serially (asserted by the determinism
/// regression tests), because no simulation state crosses a thread
/// boundary and thread scheduling only affects *when* a cell runs, never
/// what it computes.
///
/// Worker count is `min(available_parallelism, cells)`; a single-core host
/// degenerates to the serial loop with no thread overhead.
pub fn run_suite_parallel(cfgs: &[SuiteConfig]) -> Vec<SuiteResult> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(cfgs.len());
    if workers <= 1 {
        return cfgs.iter().map(run_suite).collect();
    }

    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= cfgs.len() {
                    break;
                }
                let r = run_suite(&cfgs[i]);
                if tx.send((i, r)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut slots: Vec<Option<SuiteResult>> = (0..cfgs.len()).map(|_| None).collect();
        for (i, r) in rx {
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every cell produces a result"))
            .collect()
    })
}

/// Render Table 1 from a set of suite results.
pub fn render_table1(results: &[SuiteResult]) -> TextTable {
    let mut patterns: Vec<Pattern> = Vec::new();
    let mut schemes: Vec<String> = Vec::new();
    for r in results {
        if !patterns.contains(&r.pattern) {
            patterns.push(r.pattern);
        }
        if !schemes.contains(&r.scheme) {
            schemes.push(r.scheme.clone());
        }
    }
    let mut t = TextTable::new("Table 1 — Average Goodput (Mbps)").header(
        std::iter::once("scheme".to_string()).chain(patterns.iter().map(|p| p.label().into())),
    );
    for s in &schemes {
        let mut row = vec![s.clone()];
        for p in &patterns {
            let cell = results
                .iter()
                .find(|r| &r.scheme == s && r.pattern == *p)
                .map_or("-".into(), |r| mbps(r.avg_goodput_bps));
            row.push(cell);
        }
        t.row(row);
    }
    t
}

/// Render Fig. 8 (goodput distributions: CDF quantiles + per-category
/// percentiles) for one pattern.
pub fn render_fig8(results: &[SuiteResult], pattern: Pattern) -> Vec<TextTable> {
    let mut out = Vec::new();
    let mut cdf_t = TextTable::new(format!(
        "Fig.8 — normalized goodput CDF quantiles ({})",
        pattern.label()
    ))
    .header(["scheme", "p10", "p25", "p50", "p75", "p90", "max"]);
    for r in results.iter().filter(|r| r.pattern == pattern) {
        if r.goodput_cdf.is_empty() {
            continue;
        }
        cdf_t.row([
            r.scheme.clone(),
            format!("{:.3}", r.goodput_cdf.percentile(10.0)),
            format!("{:.3}", r.goodput_cdf.percentile(25.0)),
            format!("{:.3}", r.goodput_cdf.percentile(50.0)),
            format!("{:.3}", r.goodput_cdf.percentile(75.0)),
            format!("{:.3}", r.goodput_cdf.percentile(90.0)),
            format!("{:.3}", r.goodput_cdf.max()),
        ]);
    }
    out.push(cdf_t);
    let mut cat_t = TextTable::new(format!(
        "Fig.8 — goodput by locality: min/p10/p50/p90/max ({})",
        pattern.label()
    ))
    .header(["scheme", "category", "min", "p10", "p50", "p90", "max"]);
    for r in results.iter().filter(|r| r.pattern == pattern) {
        for (cat, cdf) in &r.goodput_by_category {
            if cdf.is_empty() {
                continue;
            }
            cat_t.row([
                r.scheme.clone(),
                (*cat).into(),
                format!("{:.3}", cdf.min()),
                format!("{:.3}", cdf.percentile(10.0)),
                format!("{:.3}", cdf.percentile(50.0)),
                format!("{:.3}", cdf.percentile(90.0)),
                format!("{:.3}", cdf.max()),
            ]);
        }
    }
    out.push(cat_t);
    out
}

/// Render Fig. 10 (RTT distributions by locality) for one pattern.
pub fn render_fig10(results: &[SuiteResult], pattern: Pattern) -> TextTable {
    let mut t = TextTable::new(format!(
        "Fig.10 — per-flow mean RTT in ms: p10/p50/p90 ({})",
        pattern.label()
    ))
    .header(["scheme", "category", "p10", "p50", "p90"]);
    for r in results.iter().filter(|r| r.pattern == pattern) {
        for (cat, cdf) in &r.rtt_by_category {
            if cdf.is_empty() {
                continue;
            }
            t.row([
                r.scheme.clone(),
                (*cat).into(),
                format!("{:.2}", cdf.percentile(10.0)),
                format!("{:.2}", cdf.percentile(50.0)),
                format!("{:.2}", cdf.percentile(90.0)),
            ]);
        }
    }
    t
}

/// Render Fig. 11 (link utilization by layer) for one pattern.
pub fn render_fig11(results: &[SuiteResult], pattern: Pattern) -> TextTable {
    let mut t = TextTable::new(format!(
        "Fig.11 — link utilization by layer: min/mean/max ({})",
        pattern.label()
    ))
    .header(["scheme", "layer", "min", "mean", "max"]);
    for r in results.iter().filter(|r| r.pattern == pattern) {
        for (layer, cdf) in &r.util_by_layer {
            if cdf.is_empty() {
                continue;
            }
            t.row([
                r.scheme.clone(),
                (*layer).into(),
                format!("{:.3}", cdf.min()),
                format!("{:.3}", cdf.mean()),
                format!("{:.3}", cdf.max()),
            ]);
        }
    }
    t
}

/// Render the buffer-occupancy summary for one pattern: fraction of time
/// queues sit at or above the marking threshold K (per layer, mean over
/// links). XMP/DCTCP should be near the marking boundary only briefly;
/// loss-driven schemes camp above it.
pub fn render_occupancy(results: &[SuiteResult], pattern: Pattern) -> TextTable {
    let mut t = TextTable::new(format!(
        "Buffer occupancy — mean fraction of time queue >= K ({})",
        pattern.label()
    ))
    .header(["scheme", "Core", "Aggregation", "Rack"]);
    for r in results.iter().filter(|r| r.pattern == pattern) {
        t.row([
            r.scheme.clone(),
            format!(
                "{:.3}",
                r.occupancy_above_k.get("Core").copied().unwrap_or(0.0)
            ),
            format!(
                "{:.3}",
                r.occupancy_above_k
                    .get("Aggregation")
                    .copied()
                    .unwrap_or(0.0)
            ),
            format!(
                "{:.3}",
                r.occupancy_above_k.get("Rack").copied().unwrap_or(0.0)
            ),
        ]);
    }
    t
}

/// Render Fig. 9 + Table 3 (job completion times) from the Incast runs.
pub fn render_jobs(results: &[SuiteResult]) -> Vec<TextTable> {
    let mut t3 = TextTable::new("Table 3 — Average Job Completion Time").header([
        "scheme",
        "jobs",
        "mean (ms)",
        "p50 (ms)",
        "> 300 ms",
        "<= 20 ms",  // deadline-style view: the paper's motivating
        "<= 100 ms", // "tens of milliseconds" service deadlines
    ]);
    let mut f9 = TextTable::new("Fig.9 — Job completion time CDF quantiles (ms)")
        .header(["scheme", "p10", "p25", "p50", "p75", "p90", "p99", "max"]);
    for r in results.iter().filter(|r| r.pattern == Pattern::Incast) {
        if let Some(jt) = &r.job_times_ms {
            t3.row([
                r.scheme.clone(),
                format!("{}", jt.len()),
                format!("{:.0}", jt.mean()),
                format!("{:.0}", jt.median()),
                format!("{:.1}%", 100.0 * jt.fraction_above(300.0)),
                format!("{:.1}%", 100.0 * (1.0 - jt.fraction_above(20.0))),
                format!("{:.1}%", 100.0 * (1.0 - jt.fraction_above(100.0))),
            ]);
            f9.row([
                r.scheme.clone(),
                format!("{:.1}", jt.percentile(10.0)),
                format!("{:.1}", jt.percentile(25.0)),
                format!("{:.1}", jt.percentile(50.0)),
                format!("{:.1}", jt.percentile(75.0)),
                format!("{:.1}", jt.percentile(90.0)),
                format!("{:.1}", jt.percentile(99.0)),
                format!("{:.1}", jt.max()),
            ]);
        }
    }
    vec![t3, f9]
}

impl fmt::Display for SuiteResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} / {}: {} large flows, avg goodput {} Mbps, simulated {}",
            self.scheme,
            self.pattern.label(),
            self.completed_flows,
            mbps(self.avg_goodput_bps),
            self.sim_time,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_suite_runs_and_measures() {
        let cfg = SuiteConfig::quick(Scheme::xmp(2), Pattern::Permutation);
        let r = run_suite(&cfg);
        assert!(r.completed_flows >= 50, "{} flows", r.completed_flows);
        assert!(
            r.avg_goodput_bps > 50e6,
            "avg goodput {} too low",
            r.avg_goodput_bps
        );
        assert!(!r.goodput_cdf.is_empty());
        assert!(!r.util_by_layer["Core"].is_empty());
    }

    #[test]
    fn xmp2_beats_dctcp_on_permutation() {
        // Table 1's headline: XMP-2 > DCTCP by exploiting path diversity.
        let x = run_suite(&SuiteConfig {
            seed: 9,
            ..SuiteConfig::quick_k8(Scheme::xmp(2), Pattern::Permutation)
        });
        let d = run_suite(&SuiteConfig {
            seed: 9,
            ..SuiteConfig::quick_k8(Scheme::Dctcp, Pattern::Permutation)
        });
        assert!(
            x.avg_goodput_bps > d.avg_goodput_bps,
            "XMP-2 {} <= DCTCP {}",
            x.avg_goodput_bps,
            d.avg_goodput_bps
        );
    }

    #[test]
    fn incast_quick_produces_job_times() {
        let cfg = SuiteConfig {
            target_flows: 30,
            ..SuiteConfig::quick(Scheme::xmp(2), Pattern::Incast)
        };
        let r = run_suite(&cfg);
        let jt = r.job_times_ms.expect("job times recorded");
        assert!(jt.len() >= 8, "{} jobs", jt.len());
        assert!(jt.min() > 0.0);
    }

    #[test]
    fn parallel_batch_matches_serial_in_input_order() {
        let tiny = |scheme, seed| SuiteConfig {
            target_flows: 6,
            max_sim: SimDuration::from_secs(2),
            seed,
            ..SuiteConfig::quick(scheme, Pattern::Permutation)
        };
        let cfgs = [tiny(Scheme::xmp(2), 1), tiny(Scheme::Dctcp, 2)];
        let serial: Vec<String> = cfgs.iter().map(|c| format!("{:?}", run_suite(c))).collect();
        let parallel: Vec<String> = run_suite_parallel(&cfgs)
            .iter()
            .map(|r| format!("{r:?}"))
            .collect();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn renderers_produce_rows() {
        let r = run_suite(&SuiteConfig::quick(Scheme::xmp(2), Pattern::Permutation));
        let t1 = render_table1(std::slice::from_ref(&r));
        assert_eq!(t1.row_count(), 1);
        let f8 = render_fig8(std::slice::from_ref(&r), Pattern::Permutation);
        assert!(f8[0].row_count() >= 1);
        let f11 = render_fig11(std::slice::from_ref(&r), Pattern::Permutation);
        assert_eq!(f11.row_count(), 3);
    }
}
