//! The fat-tree evaluation suite (paper Section 5.2): one simulation per
//! (traffic pattern × variant) of a `[pattern]` scenario, from which Table 1
//! (average goodput), Fig. 8 (goodput distributions), Fig. 9 + Table 3 (job
//! completion times), Fig. 10 (RTT distributions), Fig. 11 (link
//! utilization by layer) and Table 2 (coexistence) are all extracted. The
//! committed runs are `scenarios/paper/fattree.scn` and `table2.scn`;
//! [`runner::build`] builds each cell and starts its [`Traffic`].
//!
//! The paper runs >2000 large flows moving ~600 GB per pattern; the suite
//! keeps the flow counts and divides flow sizes by `scale`
//! (goodput is a rate, so the distribution shapes survive scaling —
//! EXPERIMENTS.md records the scale used).

use crate::common::{audit_windows, end_of_run_audit, mbps, TextTable};
use crate::runner::{self, PAPER_RUNS};
use crate::scenario::{QdiscSpec, Scenario, Variant};
use std::collections::BTreeMap;
use std::fmt;
use std::iter::once;
use xmp_des::{SimDuration, SimTime};
use xmp_netsim::SimProfile;
use xmp_topo::{FatTree, FlowCategory, LinkLayer};
use xmp_transport::ConnKey;
use xmp_workloads::{
    link_utilization, Cdf, Driver, FlowRecord, FlowSim, IncastPattern, PatternConfig,
    PermutationPattern, RandomPattern, Scheme,
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

/// Every pattern, in the paper's order.
pub const KINDS: [Pattern; 3] = [Pattern::Permutation, Pattern::Random, Pattern::Incast];

impl Pattern {
    /// Table label.
    pub fn label(&self) -> &'static str {
        match self {
            Pattern::Permutation => "Permutation",
            Pattern::Random => "Random",
            Pattern::Incast => "Incast",
        }
    }

    /// The label in lower case: the pattern's name in a `[pattern]`, and
    /// what `--pattern` matches a prefix of.
    pub fn name(&self) -> String {
        self.label().to_lowercase()
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

/// A pattern running on a cell's driver: what [`runner::build`] starts for
/// a `[pattern]` scenario.
pub enum Traffic {
    Perm(PermutationPattern),
    Rand(RandomPattern),
    Incast(IncastPattern),
}

impl Traffic {
    /// Start `kind` on `ft`: `cfg`'s flows, or, with `coexist`, theirs from
    /// even hosts and `coexist`'s from odd ones (Random only).
    pub(crate) fn start<S: FlowSim>(
        kind: Pattern,
        cfg: PatternConfig,
        coexist: Option<Scheme>,
        (sim, driver, ft): (&mut S, &mut Driver, &FatTree),
    ) -> Result<Traffic, String> {
        if coexist.is_some() && kind != Pattern::Random {
            return Err(format!(
                "coexist needs the Random pattern, not {}",
                kind.label()
            ));
        }
        Ok(match kind {
            Pattern::Permutation => {
                let mut p = PermutationPattern::new(cfg);
                p.start(sim, driver, ft);
                Traffic::Perm(p)
            }
            Pattern::Random => {
                let scheme = cfg.scheme;
                let mut p = RandomPattern::new(cfg);
                p.host_schemes = coexist.map(|other| {
                    let each = |h| if h % 2 == 0 { scheme } else { other };
                    (0..ft.hosts.len()).map(each).collect()
                });
                p.start(sim, driver, ft);
                Traffic::Rand(p)
            }
            Pattern::Incast => {
                let mut p = IncastPattern::new(cfg);
                p.start(sim, driver, ft, 8);
                Traffic::Incast(p)
            }
        })
    }

    fn on_complete<S: FlowSim>(&mut self, sim: &mut S, d: &mut Driver, ft: &FatTree, c: ConnKey) {
        match self {
            Traffic::Perm(p) => p.on_complete(sim, d, ft, c),
            Traffic::Rand(p) => p.on_complete(sim, d, ft, c),
            Traffic::Incast(p) => p.on_complete(sim, d, ft, c),
        }
    }
}

/// One cell run: what it measured, and — costs and a verdict, not
/// outcomes, so they stay out of [`SuiteResult`] and its digests — the
/// simulator's profiling counters (event mix, pool hit rate, wall time in
/// the event loop) and every failure of its end-of-run audit
/// ([`end_of_run_audit`]; empty when the run is sound).
#[derive(Debug)]
pub struct SuiteRun {
    pub result: SuiteResult,
    pub profile: SimProfile,
    pub audit: Vec<String>,
}

/// Run one cell: `sc`'s first pattern kind under variant `v`, built by
/// [`runner::build`] and run in 100 ms slices until `flows` large flows
/// (and, for Incast, `min_jobs` jobs) have completed or `max_sim_us` has
/// passed. An `Err` is a scenario that does not build.
pub fn run_suite(sc: &Scenario, v: &Variant) -> Result<SuiteRun, String> {
    let spec = sc.paper.pattern.as_ref();
    let spec = spec.ok_or("no [pattern]: not a suite cell")?;
    // Occupancy counts time at or above the marking threshold (a queue
    // that marks otherwise: the paper's K).
    let k_mark = match sc.qdisc_of(Some(v))? {
        QdiscSpec::Ecn { k, .. } => k,
        _ => 10,
    };
    let mut cell = runner::build(sc, Some(v))?;
    let (sim, driver) = (&mut cell.sim, &mut cell.driver);
    let (Some(traffic), Some(ft), Some(scheme)) = (&mut cell.traffic, cell.net.tree(), v.scheme)
    else {
        unreachable!("`build` starts a [pattern] on the fat tree with the variant's scheme")
    };

    // Run in short slices until enough large flows completed.
    let slice = SimDuration::from_millis(100);
    let mut large_done = 0usize;
    let deadline = SimTime::ZERO + SimDuration::from_micros(spec.max_sim_us);
    let done = |large_done: usize, t: &Traffic| match t {
        Traffic::Incast(p) if (p.jobs_completed() as u64) < spec.min_jobs => false,
        _ => large_done as u64 >= spec.flows,
    };
    while sim.now() < deadline && !done(large_done, traffic) {
        let t = (sim.now() + slice).min(deadline);
        driver.run(sim, t, |sim, d, conn| {
            let is_large = d.record(conn).is_some_and(|r| r.tag < 1_000_000);
            if is_large {
                large_done += 1;
            }
            traffic.on_complete(sim, d, ft, conn);
        });
    }
    driver.finalize_running(sim);
    let mut audit = end_of_run_audit(sim);
    audit_windows(sim, driver, &mut audit);
    let now = sim.now();

    // Collect per-flow metrics over completed large flows.
    const ACCESS_BPS: f64 = 1e9;
    let completed = |r: &&FlowRecord| r.tag < 1_000_000 && r.completed.is_some();
    let large = || driver.records().filter(completed);
    let (sum, n) = large().fold((0.0, 0usize), |(s, n), r| (s + r.goodput_bps, n + 1));
    let avg_goodput_bps = if n == 0 { 0.0 } else { sum / n as f64 };
    let goodput_cdf = Cdf::new(large().map(|r| r.goodput_bps / ACCESS_BPS));
    let mut by_cat: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut rtt_cat: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for r in large() {
        if let Some(c) = r.category.map(category_name) {
            let (goodput, rtt) = (r.goodput_bps / ACCESS_BPS, r.mean_rtt_ns as f64 / 1e6);
            by_cat.entry(c).or_default().push(goodput);
            if r.mean_rtt_ns > 0 {
                rtt_cat.entry(c).or_default().push(rtt);
            }
        }
    }
    let mut sums: BTreeMap<String, (f64, usize)> = BTreeMap::new();
    for r in large().filter(|_| v.coexist.is_some()) {
        let e = sums.entry(r.scheme.clone()).or_default();
        (e.0, e.1) = (e.0 + r.goodput_bps, e.1 + 1);
    }
    let mean = |(k, (s, n)): (String, (f64, usize))| (k, s / n.max(1) as f64);
    let goodput_by_scheme = sums.into_iter().map(mean).collect();

    // Link utilization and buffer occupancy by layer.
    let mut util_by_layer = BTreeMap::new();
    let mut occupancy_above_k = BTreeMap::new();
    for layer in [LinkLayer::Core, LinkLayer::Aggregation, LinkLayer::Rack] {
        let ids = ft.links_by_layer().filter(|&(l, _)| l == layer);
        let ids: Vec<_> = ids.map(|(_, id)| id).collect();
        let util = link_utilization(sim, ids.iter().copied(), now);
        util_by_layer.insert(layer_name(layer), Cdf::new(util));
        let busier = |id| {
            let dirs = &sim.link(id).dirs;
            let at = |d: usize| dirs[d].stats.occupancy_at_least(k_mark);
            at(0).max(at(1))
        };
        let sum = ids.iter().map(|&id| busier(id)).sum::<f64>();
        let mean_occ = sum / ids.len().max(1) as f64;
        occupancy_above_k.insert(layer_name(layer), mean_occ);
    }

    let job_times_ms = match traffic {
        Traffic::Incast(p) if !p.job_times_ms.is_empty() => Some(Cdf::new(p.job_times_ms.clone())),
        _ => None,
    };

    let result = SuiteResult {
        scheme: scheme.label(),
        pattern: spec.kinds[0],
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
    let profile = *sim.profile();
    Ok(SuiteRun {
        result,
        profile,
        audit,
    })
}

/// Run a batch of suite cells, each a `(scenario, variant)` for
/// [`run_suite`], across OS threads.
///
/// Each cell is a fully self-contained simulation — it owns its engine,
/// RNG, topology and flow driver — so the batch is embarrassingly
/// parallel. Scoped worker threads pull cell indices from a shared atomic
/// counter and each returns its runs as a `Vec` when it joins; the batch
/// returns in **input order**, each cell with its audit failures, and is
/// byte-identical to calling [`run_suite`] on each cell serially
/// (asserted by the determinism regression tests), because no simulation
/// state crosses a thread boundary and thread scheduling only affects
/// *when* a cell runs, never what it computes.
///
/// Worker count is `min(available_parallelism, cells)`.
pub fn run_suite_parallel(cells: &[(Scenario, Variant)]) -> Vec<Result<SuiteRun, String>> {
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
    let n = std::thread::available_parallelism().map_or(1, |n| n.get());
    let next = AtomicUsize::new(0);
    let claim = || Some(next.fetch_add(1, Relaxed)).filter(|&i| i < cells.len());
    let worker = || {
        let run = |i: usize| (i, run_suite(&cells[i].0, &cells[i].1));
        std::iter::from_fn(claim).map(run).collect::<Vec<_>>()
    };
    let mut runs: Vec<_> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..n.min(cells.len())).map(|_| s.spawn(worker)).collect();
        let joined = workers.into_iter().map(|w| w.join());
        joined.flat_map(|r| r.expect("a cell panicked")).collect()
    });
    runs.sort_by_key(|r| r.0);
    runs.into_iter().map(|r| r.1).collect()
}

/// The committed `fattree.scn` at `--quick` (k = 4, 40 flows, 20 s),
/// narrowed to one cell: pattern `kind` under a variant titled and running
/// `scheme`. Ablation's legs and the tests are edits of it.
pub fn quick_cell(kind: Pattern, scheme: Scheme) -> (Scenario, Variant) {
    let text = PAPER_RUNS.iter().find(|r| r.0 == "fattree").map(|r| r.1);
    let sc = runner::load(text.unwrap_or_default()).expect("the committed fattree.scn loads");
    let mut sc = sc.quick();
    if let Some(p) = sc.paper.pattern.as_mut() {
        p.kinds = vec![kind];
    }
    // The file's first variant, retitled and rescheduled.
    let (title, scheme) = (scheme.label(), Some(scheme));
    let v = Variant {
        title,
        scheme,
        ..sc.paper.variants.swap_remove(0)
    };
    sc.paper.variants = vec![v.clone()];
    (sc, v)
}

/// `cdf` at each percentile of `ps` (0: its least sample, 100: its
/// largest), to `digits` decimals.
fn at(cdf: &Cdf, ps: &[f64], digits: usize) -> Vec<String> {
    ps.iter()
        .map(|&p| format!("{:.digits$}", cdf.percentile(p)))
        .collect()
}

/// A table titled `title` over the `pattern` results: per result and each
/// non-empty distribution `of` it names, the scheme, the name and `stats`
/// of the distribution under `head`.
fn per_class<'a>(
    title: &str,
    head: &[&str],
    results: &[&'a SuiteResult],
    pattern: Pattern,
    of: impl Fn(&'a SuiteResult) -> &'a BTreeMap<&'static str, Cdf>,
    stats: impl Fn(&Cdf) -> Vec<String>,
) -> TextTable {
    let title = format!("{title} ({})", pattern.label());
    let mut t = TextTable::new(title).header(once(&"scheme").chain(head).copied());
    for &r in results.iter().filter(|r| r.pattern == pattern) {
        for (class, cdf) in of(r).iter().filter(|c| !c.1.is_empty()) {
            t.row(
                [r.scheme.clone(), class.to_string()]
                    .into_iter()
                    .chain(stats(cdf)),
            );
        }
    }
    t
}

/// The fat-tree suite's tables from its cells' results: Table 1 (one row
/// per scheme, one column per pattern); per pattern Fig. 8's goodput CDF
/// and locality percentiles; Table 3 and Fig. 9 for Incast; then per
/// pattern Fig. 10's RTTs, Fig. 11's link utilization and the fraction of
/// time queues sit at or above K (XMP/DCTCP should reach it only briefly;
/// loss-driven schemes camp above it).
pub fn render(results: Vec<&SuiteResult>) -> Vec<TextTable> {
    let results = &results[..];
    let (mut patterns, mut schemes) = (Vec::new(), Vec::new());
    for r in results {
        if !patterns.contains(&r.pattern) {
            patterns.push(r.pattern);
        }
        if !schemes.contains(&&r.scheme) {
            schemes.push(&r.scheme);
        }
    }
    let of = |p: Pattern| results.iter().filter(move |r| r.pattern == p);
    let labels = patterns.iter().map(|p| p.label());
    let mut t1 =
        TextTable::new("Table 1 — Average Goodput (Mbps)").header(once("scheme").chain(labels));
    for &s in &schemes {
        let cell = |&p: &Pattern| {
            of(p)
                .find(|r| &r.scheme == s)
                .map_or("-".into(), |r| mbps(r.avg_goodput_bps))
        };
        t1.row(once(s.clone()).chain(patterns.iter().map(cell)));
    }
    let mut out = vec![t1];
    for &p in &patterns {
        let title = format!("Fig.8 — normalized goodput CDF quantiles ({})", p.label());
        let mut t =
            TextTable::new(title).header(["scheme", "p10", "p25", "p50", "p75", "p90", "max"]);
        for r in of(p).filter(|r| !r.goodput_cdf.is_empty()) {
            let cells = at(&r.goodput_cdf, &[10.0, 25.0, 50.0, 75.0, 90.0, 100.0], 3);
            t.row(once(r.scheme.clone()).chain(cells));
        }
        let title = "Fig.8 — goodput by locality: min/p10/p50/p90/max";
        let head = ["category", "min", "p10", "p50", "p90", "max"];
        let locality = |c: &Cdf| at(c, &[0.0, 10.0, 50.0, 90.0, 100.0], 3);
        out.extend([
            t,
            per_class(
                title,
                &head,
                results,
                p,
                |r| &r.goodput_by_category,
                locality,
            ),
        ]);
    }
    out.extend(render_jobs(results));
    for &p in &patterns {
        let title = "Fig.10 — per-flow mean RTT in ms: p10/p50/p90";
        let rtt = |c: &Cdf| at(c, &[10.0, 50.0, 90.0], 2);
        out.push(per_class(
            title,
            &["category", "p10", "p50", "p90"],
            results,
            p,
            |r| &r.rtt_by_category,
            rtt,
        ));
    }
    for &p in &patterns {
        let title = "Fig.11 — link utilization by layer: min/mean/max";
        let util = |c: &Cdf| {
            [c.min(), c.mean(), c.max()]
                .map(|x| format!("{x:.3}"))
                .into()
        };
        out.push(per_class(
            title,
            &["layer", "min", "mean", "max"],
            results,
            p,
            |r| &r.util_by_layer,
            util,
        ));
    }
    for &p in &patterns {
        let title = format!(
            "Buffer occupancy — mean fraction of time queue >= K ({})",
            p.label()
        );
        let layers = ["Core", "Aggregation", "Rack"];
        let mut t = TextTable::new(title).header(once("scheme").chain(layers));
        for r in of(p) {
            let occ = layers
                .map(|l| format!("{:.3}", r.occupancy_above_k.get(l).copied().unwrap_or(0.0)));
            t.row(once(r.scheme.clone()).chain(occ));
        }
        out.push(t);
    }
    out
}

/// Render Fig. 9 + Table 3 (job completion times) from the Incast runs.
fn render_jobs(results: &[&SuiteResult]) -> [TextTable; 2] {
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
            let pct = |x: f64| format!("{x:.1}%");
            t3.row([
                r.scheme.clone(),
                format!("{}", jt.len()),
                format!("{:.0}", jt.mean()),
                format!("{:.0}", jt.median()),
                pct(100.0 * jt.fraction_above(300.0)),
                pct(100.0 * (1.0 - jt.fraction_above(20.0))),
                pct(100.0 * (1.0 - jt.fraction_above(100.0))),
            ]);
            let cells = at(jt, &[10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0], 1);
            f9.row(once(r.scheme.clone()).chain(cells));
        }
    }
    [t3, f9]
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

    /// [`quick_cell`] at `flows` flows, within `max_sim_us` and from
    /// `seed`.
    fn cell(
        kind: Pattern,
        scheme: Scheme,
        flows: u64,
        max_sim_us: u64,
        seed: u64,
    ) -> (Scenario, Variant) {
        let (mut sc, v) = quick_cell(kind, scheme);
        let p = sc
            .paper
            .pattern
            .as_mut()
            .expect("fattree.scn has a [pattern]");
        (p.flows, p.max_sim_us, sc.seed) = (flows, max_sim_us, seed);
        (sc, v)
    }

    /// `sc` on the k = 8 tree to 150 flows (30 Incast jobs) within 30 s.
    fn on_k8(mut sc: Scenario) -> Scenario {
        let p = sc.paper.pattern.as_mut().expect("a [pattern] run");
        (sc.k, p.flows, p.min_jobs, p.max_sim_us) = (8, 150, 30, 30_000_000);
        sc
    }

    /// The cell's result; its audit is clean.
    fn sound(sc: &Scenario, v: &Variant) -> SuiteResult {
        let run = run_suite(sc, v).expect("the cell builds");
        assert!(run.audit.is_empty(), "{:?}", run.audit);
        run.result
    }

    #[test]
    fn quick_suite_runs_and_measures() {
        let (sc, v) = quick_cell(Pattern::Permutation, Scheme::xmp(2));
        let r = sound(&sc, &v);
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
        let run = |scheme| {
            let (sc, v) = quick_cell(Pattern::Permutation, scheme);
            sound(&on_k8(Scenario { seed: 9, ..sc }), &v)
        };
        let (x, d) = (run(Scheme::xmp(2)), run(Scheme::Dctcp));
        assert!(
            x.avg_goodput_bps > d.avg_goodput_bps,
            "XMP-2 {} <= DCTCP {}",
            x.avg_goodput_bps,
            d.avg_goodput_bps
        );
    }

    #[test]
    fn incast_quick_produces_job_times() {
        let (sc, v) = cell(Pattern::Incast, Scheme::xmp(2), 30, 20_000_000, 42);
        let jt = sound(&sc, &v).job_times_ms.expect("job times recorded");
        assert!(jt.len() >= 8, "{} jobs", jt.len());
        assert!(jt.min() > 0.0);
    }

    #[test]
    fn parallel_batch_matches_serial_in_input_order() {
        let tiny = |scheme, seed| cell(Pattern::Permutation, scheme, 6, 2_000_000, seed);
        let cells = [tiny(Scheme::xmp(2), 1), tiny(Scheme::Dctcp, 2)];
        let serial: Vec<String> = cells
            .iter()
            .map(|(sc, v)| format!("{:?}", sound(sc, v)))
            .collect();
        let parallel: Vec<String> = run_suite_parallel(&cells)
            .into_iter()
            .map(|r| {
                let r = r.expect("the cell builds");
                assert!(r.audit.is_empty(), "{:?}", r.audit);
                format!("{:?}", r.result)
            })
            .collect();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn renderers_produce_rows() {
        let (sc, v) = quick_cell(Pattern::Permutation, Scheme::xmp(2));
        let r = sound(&sc, &v);
        // Table 1, Fig. 8 (two), Table 3, Fig. 9, Figs. 10 and 11, occupancy.
        let tables = render(vec![&r]);
        assert_eq!(tables.len(), 8);
        assert_eq!(tables[0].row_count(), 1);
        assert!(tables[1].row_count() >= 1);
        assert_eq!(tables[6].row_count(), 3);
    }

    /// Table 2's `--quick` cell, on the k = 8 tree the coexistence story
    /// needs (XMP shifts away from loss-driven flows across its paths)
    /// rather than the file's quick k = 4.
    #[test]
    fn xmp_coexists_and_beats_tcp_at_small_queue() {
        let text = PAPER_RUNS
            .iter()
            .find(|r| r.0 == "table2")
            .expect("committed")
            .1;
        let sc = on_k8(runner::load(text).expect("table2.scn loads").quick());
        let r = runner::run("table2", &sc).expect("the run builds");
        assert_eq!(r.cells.len(), 1);
        assert_eq!(r.audit_failures(), Vec::<String>::new());
        let (v, bps) = (&sc.paper.variants[0], &r.cells[0].result.goodput_by_scheme);
        let label = |s: Option<Scheme>| s.expect("set").label();
        let (xmp, other) = (bps[&label(v.scheme)], bps[&label(v.coexist)]);
        assert_eq!(
            (label(v.coexist).as_str(), sc.qdisc_of(Some(v))),
            ("TCP", Ok(QdiscSpec::Ecn { cap: 50, k: 10 }))
        );
        assert!(xmp > 0.0 && other > 0.0);
        // The paper's Table 2 shape: XMP well above TCP at queue 50.
        assert!(xmp > other, "XMP {xmp} <= TCP {other}");
    }
}
