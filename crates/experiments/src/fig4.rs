//! Figure 4 — traffic shifting on the Fig. 3a testbed.
//!
//! Flows 1–3 start at 0 s (Flow 2 is XMP with one subflow through DN1 and
//! one through DN2). A background flow runs on DN1 from 10–20 s and on DN2
//! from 20–30 s. With β = 4 Flow 2 shifts its traffic cleanly away from the
//! congested bottleneck and back (rate compensation); β = 6 relinquishes
//! less bandwidth per mark, converges slower, and can stall under global
//! synchronization.

use crate::common::{frac, host_stack, TextTable};
use std::fmt;
use xmp_des::{SimDuration, SimTime};
use xmp_netsim::Sim;
use xmp_topo::testbed::{Path, ShiftTestbed, TestbedConfig};
use xmp_transport::{ConnKey, Segment, SubflowSpec};
use xmp_workloads::{Driver, FlowSpecBuilder, Host, RateSampler, Scheme};

/// Experiment configuration.
#[derive(Clone, Debug)]
pub struct Fig4Config {
    /// Epoch length (paper: 5 s; 8 epochs → 40 s).
    pub unit: SimDuration,
    /// Sampling bin.
    pub bin: SimDuration,
    /// β values to run (paper: 4 and 6).
    pub betas: Vec<u32>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fig4Config {
    fn default() -> Self {
        Fig4Config {
            unit: SimDuration::from_secs(5),
            bin: SimDuration::from_millis(250),
            betas: vec![4, 6],
            seed: 1,
        }
    }
}

impl Fig4Config {
    /// Scaled-down variant for `--quick` runs.
    pub fn quick() -> Self {
        Fig4Config {
            unit: SimDuration::from_millis(500),
            bin: SimDuration::from_millis(50),
            betas: vec![4],
            seed: 1,
        }
    }
}

/// One β's series.
#[derive(Debug)]
pub struct Fig4Series {
    /// The β used.
    pub beta: u32,
    /// Normalized rates of Flow 2's two subflows per bin.
    pub bins: Vec<[f64; 2]>,
    /// Per-epoch means of (subflow 1, subflow 2, their sum).
    pub epoch_means: Vec<[f64; 3]>,
}

/// The full figure.
#[derive(Debug)]
pub struct Fig4Result {
    /// One series per β.
    pub series: Vec<Fig4Series>,
}

fn to_spec(p: Path) -> SubflowSpec {
    SubflowSpec {
        local_port: p.port,
        src: p.src,
        dst: p.dst,
    }
}

fn run_beta(cfg: &Fig4Config, beta: u32) -> Fig4Series {
    let mut sim: Sim<Segment, Host> = Sim::new(cfg.seed);
    let tcfg = TestbedConfig::default();
    let tb = ShiftTestbed::build(&mut sim, &tcfg, |_| host_stack());
    let capacity = tcfg.bandwidth.as_bps() as f64;
    let mut driver = Driver::new();
    let unit = cfg.unit;
    let total = SimTime::ZERO + unit * 8;

    let single = |path: Path| vec![to_spec(path)];
    let xmp1 = Scheme::Xmp { beta, subflows: 1 };
    let xmp2 = Scheme::Xmp { beta, subflows: 2 };
    let mk = |node, subflows, scheme, start, tag| FlowSpecBuilder {
        src_node: node,
        subflows,
        size: u64::MAX,
        scheme,
        start,
        category: None,
        tag,
    };

    driver.submit(mk(tb.s[0], single(tb.flow1_path()), xmp1, SimTime::ZERO, 1));
    let flow2: ConnKey = driver.submit(mk(
        tb.s[1],
        tb.flow2_paths().into_iter().map(to_spec).collect(),
        xmp2,
        SimTime::ZERO,
        2,
    ));
    driver.submit(mk(tb.s[2], single(tb.flow3_path()), xmp1, SimTime::ZERO, 3));
    // Background epochs: DN1 during [2u, 4u), DN2 during [4u, 6u).
    let bg1 = driver.submit(mk(
        tb.bg_src[0],
        single(tb.bg_path(0)),
        xmp1,
        SimTime::ZERO + unit * 2,
        10,
    ));
    let bg2 = driver.submit(mk(
        tb.bg_src[1],
        single(tb.bg_path(1)),
        xmp1,
        SimTime::ZERO + unit * 4,
        11,
    ));

    let mut sampler = RateSampler::new();
    let mut bins = Vec::new();
    let mut stopped = [false; 2];
    let mut t = SimTime::ZERO;
    while t < total {
        t += cfg.bin;
        driver.run(&mut sim, t, |_, _, _| {});
        if !stopped[0] && t >= SimTime::ZERO + unit * 4 {
            driver.stop_flow(&mut sim, bg1);
            stopped[0] = true;
        }
        if !stopped[1] && t >= SimTime::ZERO + unit * 6 {
            driver.stop_flow(&mut sim, bg2);
            stopped[1] = true;
        }
        let r0 = sampler.sample(&mut sim, &driver, flow2, 0) / capacity;
        let r1 = sampler.sample(&mut sim, &driver, flow2, 1) / capacity;
        bins.push([r0, r1]);
    }

    let per_epoch = (unit.as_nanos() / cfg.bin.as_nanos()).max(1) as usize;
    let mut epoch_means = Vec::new();
    for e in 0..8 {
        let lo = e * per_epoch;
        let hi = ((e + 1) * per_epoch).min(bins.len());
        if lo >= hi {
            break;
        }
        let n = (hi - lo) as f64;
        let s0: f64 = bins[lo..hi].iter().map(|b| b[0]).sum::<f64>() / n;
        let s1: f64 = bins[lo..hi].iter().map(|b| b[1]).sum::<f64>() / n;
        epoch_means.push([s0, s1, s0 + s1]);
    }

    Fig4Series {
        beta,
        bins,
        epoch_means,
    }
}

/// Run the experiment for every configured β.
pub fn run(cfg: &Fig4Config) -> Fig4Result {
    Fig4Result {
        series: cfg.betas.iter().map(|&b| run_beta(cfg, b)).collect(),
    }
}

impl fmt::Display for Fig4Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.series {
            let mut t = TextTable::new(format!("Fig.4 — Flow 2 subflow rates, beta={}", s.beta))
                .header(["epoch", "bg state", "flow2-1 (DN1)", "flow2-2 (DN2)", "sum"]);
            let bg = [
                "-",
                "-",
                "bg on DN1",
                "bg on DN1",
                "bg on DN2",
                "bg on DN2",
                "-",
                "-",
            ];
            for (e, m) in s.epoch_means.iter().enumerate() {
                t.row([
                    format!("{}", e + 1),
                    bg.get(e).copied().unwrap_or("-").to_string(),
                    frac(m[0]),
                    frac(m[1]),
                    frac(m[2]),
                ]);
            }
            writeln!(f, "{t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beta4_shifts_traffic_and_compensates() {
        let cfg = Fig4Config {
            unit: SimDuration::from_millis(1500),
            bin: SimDuration::from_millis(100),
            betas: vec![4],
            seed: 2,
        };
        let s = run_beta(&cfg, 4);
        // Epoch 2 (no bg): subflows roughly split the two bottlenecks
        // against flows 1 and 3 — each gets a decent share.
        let before = s.epoch_means[1];
        assert!(before[0] > 0.15 && before[1] > 0.15, "{before:?}");
        // Epoch 4 (bg on DN1 converged): subflow 1 gives way, subflow 2
        // compensates above its pre-bg level.
        let during = s.epoch_means[3];
        assert!(
            during[0] < before[0] * 0.85,
            "subflow1 should shrink: {before:?} -> {during:?}"
        );
        assert!(
            during[1] > before[1] * 1.05,
            "subflow2 should compensate: {before:?} -> {during:?}"
        );
        // Epoch 6 (bg moved to DN2): the shift reverses.
        let reversed = s.epoch_means[5];
        assert!(
            reversed[0] > during[0] && reversed[1] < during[1],
            "shift should reverse: {during:?} -> {reversed:?}"
        );
        // Final epoch (no bg): aggregate recovers.
        let end = s.epoch_means[7];
        assert!(end[2] > 0.5 * before[2], "end={end:?} before={before:?}");
    }
}
