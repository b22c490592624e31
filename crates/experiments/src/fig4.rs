//! Figure 4 — traffic shifting on the Fig. 3a testbed.
//!
//! Flows 1–3 start at 0 s (Flow 2 is XMP with one subflow through DN1 and
//! one through DN2). A background flow runs on DN1 from 10–20 s and on DN2
//! from 20–30 s. With β = 4 Flow 2 shifts its traffic cleanly away from the
//! congested bottleneck and back (rate compensation); β = 6 relinquishes
//! less bandwidth per mark, converges slower, and can stall under global
//! synchronization.

use crate::common::{covers, frac, host_stack, long_flow, Life, TextTable};
use std::fmt;
use xmp_des::{SimDuration, SimTime};
use xmp_netsim::Sim;
use xmp_topo::testbed::{ShiftTestbed, TestbedConfig};
use xmp_transport::Segment;
use xmp_workloads::{path_spec, Driver, Host, RateBins, Scheme};

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

/// The schedule: Flows 1–3 run throughout; the background flow on DN1
/// lives over epochs 2–3, the one on DN2 over epochs 4–5.
const FOREGROUND: Life = (0, None);
const BACKGROUND: [(&str, Life); 2] = [("bg on DN1", (2, Some(4))), ("bg on DN2", (4, Some(6)))];
const EPOCHS: u64 = 8;

fn run_beta(cfg: &Fig4Config, beta: u32) -> Fig4Series {
    let mut sim: Sim<Segment, Host> = Sim::new(cfg.seed);
    let tcfg = TestbedConfig::default();
    let tb = ShiftTestbed::build(&mut sim, &tcfg, |_| host_stack());
    let capacity = tcfg.bandwidth.as_bps() as f64;
    let mut driver = Driver::new();
    let unit = cfg.unit;

    let xmp = |n: usize| Scheme::Xmp { beta, subflows: n };
    let flows = [
        (FOREGROUND, tb.s[0], vec![tb.flow1_path()], 1),
        (FOREGROUND, tb.s[1], tb.flow2_paths().to_vec(), 2),
        (FOREGROUND, tb.s[2], vec![tb.flow3_path()], 3),
        (BACKGROUND[0].1, tb.bg_src[0], vec![tb.bg_path(0)], 10),
        (BACKGROUND[1].1, tb.bg_src[1], vec![tb.bg_path(1)], 11),
    ];
    let conns = flows.map(|(life, node, paths, tag)| {
        let scheme = xmp(paths.len());
        let subflows = paths.into_iter().map(path_spec).collect();
        long_flow(&mut driver, unit, life, node, subflows, scheme, tag)
    });
    let flow2 = conns[1];

    let mut rates = RateBins::new([(flow2, 0), (flow2, 1)], cfg.bin);
    rates.run(&mut driver, &mut sim, SimTime::ZERO + unit * EPOCHS);
    sim.audit_conservation();

    let bins: Vec<[f64; 2]> = rates
        .rows()
        .iter()
        .map(|r| [r[0] / capacity, r[1] / capacity])
        .collect();
    let epoch_means = rates
        .epoch_means(unit, &bins)
        .into_iter()
        .map(|[s0, s1]| [s0, s1, s0 + s1])
        .collect();

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
            for (e, m) in s.epoch_means.iter().enumerate() {
                t.row([
                    format!("{}", e + 1),
                    BACKGROUND
                        .iter()
                        .find(|(_, life)| covers(*life, e as u64))
                        .map_or("-", |(label, _)| label)
                        .to_string(),
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
