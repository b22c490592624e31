//! Ablations and extensions beyond the paper's evaluation.
//!
//! 1. **β/K sweep** — the paper's future-work item ("a deeper
//!    understanding on these impacts should be based on further
//!    theoretical analysis"): sweep the window-reduction divisor β and the
//!    marking threshold K on a shared bottleneck and report utilization,
//!    mean queue depth (≈ latency) and fairness. Eq. 1 predicts the
//!    utilization cliff at `K < BDP/(β−1)`.
//! 2. **Coupling ablation** — XMP with TraSh disabled (`uXMP`): an
//!    n-subflow flow competing against single-path flows takes roughly n
//!    shares, violating the fairness goal that motivates coupling
//!    (paper Section 2.2).
//! 3. **OLIA comparison** — the Pareto-optimality fix the paper's
//!    Section 7 points to, run through the same fat-tree suite.

use crate::common::{frac, host_stack, mbps, TextTable};
use crate::suite::{run_suite, Pattern, SuiteConfig};
use std::fmt;
use xmp_des::{Bandwidth, SimDuration, SimTime};
use xmp_netsim::{PortId, QdiscConfig, Sim};
use xmp_topo::Dumbbell;
use xmp_transport::{Segment, SubflowSpec};
use xmp_workloads::{jain_index, Driver, FlowSpecBuilder, Host, RateBins, Scheme};

/// Configuration for the ablation suite.
#[derive(Clone, Debug)]
pub struct AblationConfig {
    /// β values for the sweep.
    pub betas: Vec<u32>,
    /// K values for the sweep (packets).
    pub ks: Vec<usize>,
    /// Measurement window per sweep point.
    pub window: SimDuration,
    /// Seed.
    pub seed: u64,
    /// Base config for the OLIA suite comparison.
    pub suite: SuiteConfig,
}

impl Default for AblationConfig {
    fn default() -> Self {
        AblationConfig {
            betas: vec![2, 3, 4, 5, 6, 8],
            ks: vec![5, 10, 15, 20, 30],
            window: SimDuration::from_secs(2),
            seed: 1,
            suite: SuiteConfig::quick_k8(Scheme::xmp(2), Pattern::Permutation),
        }
    }
}

impl AblationConfig {
    /// Bench-scale variant.
    pub fn quick() -> Self {
        AblationConfig {
            betas: vec![2, 4, 6],
            ks: vec![5, 10, 20],
            window: SimDuration::from_millis(400),
            suite: SuiteConfig::quick(Scheme::xmp(2), Pattern::Permutation),
            ..AblationConfig::default()
        }
    }
}

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
    /// The β/K sweep grid.
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
}

/// Four single-path XMP flows on a 1 Gbps / 400 µs dumbbell at (β, K).
fn sweep_point(cfg: &AblationConfig, beta: u32, k: usize) -> SweepPoint {
    let bdp_packets = 33.0; // 1 Gbps x 400 us / 1500 B
    let mut sim: Sim<Segment, Host> = Sim::new(cfg.seed);
    let db = Dumbbell::build(
        &mut sim,
        4,
        Bandwidth::from_gbps(1),
        SimDuration::from_micros(400),
        QdiscConfig::EcnThreshold { cap: 100, k },
        |_| host_stack(),
    );
    let mut d = Driver::new();
    let conns: Vec<_> = (0..4)
        .map(|i| {
            d.submit(FlowSpecBuilder {
                src_node: db.sources[i],
                subflows: vec![SubflowSpec {
                    local_port: PortId(0),
                    src: Dumbbell::src_addr(i),
                    dst: Dumbbell::dst_addr(i),
                }],
                size: u64::MAX,
                scheme: Scheme::Xmp { beta, subflows: 1 },
                start: SimTime::ZERO,
                category: None,
                tag: i as u64,
            })
        })
        .collect();
    // Warm up one window, measure over the next: the second bin.
    let mut bins = RateBins::new(conns.iter().map(|&c| (c, 0)), cfg.window);
    bins.run(&mut d, &mut sim, SimTime::ZERO + cfg.window);
    let bytes_before = sim.link(db.bottleneck).dir(0).stats.delivered_bytes;
    let t0 = sim.now();
    bins.run(&mut d, &mut sim, t0 + cfg.window);
    let rates = &bins.rows()[1];
    let s = &sim.link(db.bottleneck).dir(0).stats;
    let dt = sim.now().duration_since(t0).as_secs_f64();
    let bits = (s.delivered_bytes - bytes_before).as_bytes() as f64 * 8.0;
    sim.audit_conservation();
    SweepPoint {
        beta,
        k,
        utilization: bits / (1e9 * dt),
        mean_queue: s.mean_depth(sim.now()),
        jain: jain_index(rates),
        eq1_satisfied: k as f64 >= bdp_packets / (f64::from(beta) - 1.0),
    }
}

/// The coupling ablation on a 300 Mbps bottleneck: a 3-subflow flow vs
/// three single-path XMP flows; returns the multi-subflow flow's share.
fn coupling_share(cfg: &AblationConfig, coupled: bool) -> f64 {
    let mut sim: Sim<Segment, Host> = Sim::new(cfg.seed);
    let db = Dumbbell::build(
        &mut sim,
        4,
        Bandwidth::from_mbps(300),
        SimDuration::from_micros(1800),
        QdiscConfig::EcnThreshold { cap: 100, k: 15 },
        |_| host_stack(),
    );
    let mut d = Driver::new();
    let spec = |i: usize| SubflowSpec {
        local_port: PortId(0),
        src: Dumbbell::src_addr(i),
        dst: Dumbbell::dst_addr(i),
    };
    let scheme = if coupled {
        Scheme::Xmp {
            beta: 4,
            subflows: 3,
        }
    } else {
        Scheme::XmpUncoupled {
            beta: 4,
            subflows: 3,
        }
    };
    let multi = d.submit(FlowSpecBuilder {
        src_node: db.sources[0],
        subflows: vec![spec(0); 3],
        size: u64::MAX,
        scheme,
        start: SimTime::ZERO,
        category: None,
        tag: 0,
    });
    for i in 1..4 {
        d.submit(FlowSpecBuilder {
            src_node: db.sources[i],
            subflows: vec![spec(i)],
            size: u64::MAX,
            scheme: Scheme::xmp(1),
            start: SimTime::ZERO,
            category: None,
            tag: i as u64,
        });
    }
    // Warm up two windows, measure over the next two: the second bin.
    let mut bins = RateBins::new((0..3).map(|r| (multi, r)), cfg.window * 2);
    bins.run(&mut d, &mut sim, SimTime::ZERO + cfg.window * 4);
    let rate: f64 = bins.rows()[1].iter().sum();
    rate / 300e6
}

/// Run all three ablations.
pub fn run(cfg: &AblationConfig) -> AblationResult {
    let mut sweep = Vec::new();
    for &beta in &cfg.betas {
        for &k in &cfg.ks {
            sweep.push(sweep_point(cfg, beta, k));
        }
    }
    let coupling = (coupling_share(cfg, true), coupling_share(cfg, false));
    let olia_rows = [Scheme::xmp(2), Scheme::lia(2), Scheme::Olia { subflows: 2 }]
        .iter()
        .map(|&s| {
            let r = run_suite(&SuiteConfig {
                scheme: s,
                ..cfg.suite.clone()
            });
            (s.label(), r.avg_goodput_bps)
        })
        .collect();
    let routing_rows = [
        ("two-level (paper)", xmp_topo::RoutingMode::TwoLevel),
        ("per-flow ECMP", xmp_topo::RoutingMode::EcmpPerFlow),
    ]
    .iter()
    .map(|&(label, mode)| {
        let r = run_suite(&SuiteConfig {
            routing: mode,
            ..cfg.suite.clone()
        });
        (label.to_string(), r.avg_goodput_bps)
    })
    .collect();
    let rto_rows = [
        (Scheme::lia(2), 200u64),
        (Scheme::lia(2), 10),
        (Scheme::xmp(2), 200),
        (Scheme::xmp(2), 10),
    ]
    .iter()
    .map(|&(scheme, ms)| {
        let r = run_suite(&SuiteConfig {
            scheme,
            pattern: Pattern::Incast,
            rto_min: SimDuration::from_millis(ms),
            ..cfg.suite.clone()
        });
        let jct = r.job_times_ms.as_ref().map_or(0.0, |c| c.median());
        (
            format!("{} @ RTOmin {ms}ms", scheme.label()),
            r.avg_goodput_bps,
            jct,
        )
    })
    .collect();
    AblationResult {
        sweep,
        coupling,
        olia_rows,
        routing_rows,
        rto_rows,
    }
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

    fn tiny() -> AblationConfig {
        AblationConfig {
            betas: vec![2, 6],
            ks: vec![5, 30],
            window: SimDuration::from_millis(600),
            seed: 3,
            suite: SuiteConfig::quick(Scheme::xmp(2), Pattern::Permutation),
        }
    }

    #[test]
    fn eq1_predicts_the_utilization_cliff() {
        let cfg = tiny();
        // beta=2 needs K >= 33: K=5 under-utilizes, K=30 nearly does not.
        let low = sweep_point(&cfg, 2, 5);
        let high = sweep_point(&cfg, 2, 30);
        assert!(!low.eq1_satisfied && low.utilization < 0.85, "{low:?}");
        assert!(
            high.utilization > low.utilization + 0.1,
            "K=30 {high:?} vs K=5 {low:?}"
        );
        // Larger beta tolerates small K: beta=6 with K=10 >= 33/5.
        let b6 = sweep_point(&cfg, 6, 30);
        assert!(b6.utilization > 0.85, "{b6:?}");
    }

    #[test]
    fn queue_depth_tracks_k() {
        let cfg = tiny();
        let small = sweep_point(&cfg, 4, 5);
        let large = sweep_point(&cfg, 4, 30);
        assert!(
            large.mean_queue > small.mean_queue,
            "queue should grow with K: {} vs {}",
            small.mean_queue,
            large.mean_queue
        );
    }

    #[test]
    fn coupling_restores_fairness() {
        let cfg = tiny();
        let coupled = coupling_share(&cfg, true);
        let uncoupled = coupling_share(&cfg, false);
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
