//! Figure 6 — fairness on the Fig. 3b testbed.
//!
//! Four flows share one 300 Mbps bottleneck. Flow 1 grows to three subflows
//! (established at 0 s, 5 s, 15 s), Flow 2 opens two subflows at 20 s,
//! Flows 3 and 4 are single-path (0 s and 10 s) and stop at 25 s. With
//! β = 4 every *flow* converges to an equal share regardless of its subflow
//! count — the point of coupling subflows; β = 6 degrades fairness.

use crate::common::{alive, frac, host_stack, long_flow, Life, TextTable};
use std::fmt;
use xmp_des::{SimDuration, SimTime};
use xmp_netsim::Sim;
use xmp_topo::testbed::{FairnessTestbed, TestbedConfig};
use xmp_transport::Segment;
use xmp_workloads::{jain_index, path_spec, Driver, Host, RateBins, Scheme};

/// Experiment configuration.
#[derive(Clone, Debug)]
pub struct Fig6Config {
    /// Epoch length (paper: 5 s; 6 epochs → 30 s).
    pub unit: SimDuration,
    /// Sampling bin.
    pub bin: SimDuration,
    /// β values (paper: 4 and 6).
    pub betas: Vec<u32>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fig6Config {
    fn default() -> Self {
        Fig6Config {
            unit: SimDuration::from_secs(5),
            bin: SimDuration::from_millis(250),
            betas: vec![4, 6],
            seed: 1,
        }
    }
}

impl Fig6Config {
    /// Scaled-down variant for `--quick` runs.
    pub fn quick() -> Self {
        Fig6Config {
            unit: SimDuration::from_millis(500),
            bin: SimDuration::from_millis(50),
            betas: vec![4],
            seed: 1,
        }
    }
}

/// One β's data.
#[derive(Debug)]
pub struct Fig6Series {
    /// The β used.
    pub beta: u32,
    /// Per-bin normalized *flow* rates (subflows summed).
    pub bins: Vec<[f64; 4]>,
    /// Per-epoch mean flow rates.
    pub epoch_means: Vec<[f64; 4]>,
    /// Jain index over the flows active in each epoch.
    pub epoch_jain: Vec<f64>,
}

/// The figure.
#[derive(Debug)]
pub struct Fig6Result {
    /// One series per β.
    pub series: Vec<Fig6Series>,
}

/// The schedule, per flow: its life, the subflows it opens with, and the
/// epochs at which it joins one more. Flow 1 grows 1 → 2 → 3 subflows at
/// epochs 1 and 3; Flow 2 opens two at epoch 4; Flows 3 and 4 are
/// single-path and stop at epoch 5.
const SCHEDULE: [(Life, usize, &[u64]); 4] = [
    ((0, None), 1, &[1, 3]),
    ((4, None), 2, &[]),
    ((0, Some(5)), 1, &[]),
    ((2, Some(5)), 1, &[]),
];
const EPOCHS: u64 = 6;

fn lives() -> [Life; 4] {
    SCHEDULE.map(|(life, _, _)| life)
}

fn run_beta(cfg: &Fig6Config, beta: u32) -> Fig6Series {
    let mut sim: Sim<Segment, Host> = Sim::new(cfg.seed);
    let tcfg = TestbedConfig::default();
    let tb = FairnessTestbed::build(&mut sim, &tcfg, |_| host_stack());
    let capacity = tcfg.bandwidth.as_bps() as f64;
    let mut driver = Driver::new();
    let unit = cfg.unit;

    // One (conn, subflow) series per subflow a flow ever has; `owner[s]`
    // is the flow series `s` belongs to.
    let mut series = Vec::new();
    let mut owner = Vec::new();
    for (i, (life, opens_with, joins)) in SCHEDULE.into_iter().enumerate() {
        let spec = path_spec(tb.flow_path(i));
        let conn = long_flow(
            &mut driver,
            unit,
            life,
            tb.net.sources[i],
            vec![spec; opens_with],
            Scheme::Xmp {
                beta,
                subflows: opens_with,
            },
            i as u64 + 1,
        );
        for &e in joins {
            driver.add_subflow_at(conn, SimTime::ZERO + unit * e, spec);
        }
        for r in 0..opens_with + joins.len() {
            series.push((conn, r));
            owner.push(i);
        }
    }

    let mut rates = RateBins::new(series, cfg.bin);
    rates.run(&mut driver, &mut sim, SimTime::ZERO + unit * EPOCHS);
    sim.audit_conservation();

    // Per-bin *flow* rates: subflows summed, then normalized.
    let bins: Vec<[f64; 4]> = rates
        .rows()
        .iter()
        .map(|r| {
            let mut row = [0.0; 4];
            for (&i, x) in owner.iter().zip(r) {
                row[i] += x;
            }
            row.map(|x| x / capacity)
        })
        .collect();
    let epoch_means = rates.epoch_means(unit, &bins);
    let epoch_jain = epoch_means
        .iter()
        .enumerate()
        .map(|(e, mean)| {
            let active: Vec<f64> = alive(lives(), e as u64).iter().map(|&i| mean[i]).collect();
            jain_index(&active)
        })
        .collect();

    Fig6Series {
        beta,
        bins,
        epoch_means,
        epoch_jain,
    }
}

/// Run for every configured β.
pub fn run(cfg: &Fig6Config) -> Fig6Result {
    Fig6Result {
        series: cfg.betas.iter().map(|&b| run_beta(cfg, b)).collect(),
    }
}

impl fmt::Display for Fig6Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.series {
            let mut t = TextTable::new(format!(
                "Fig.6 — per-flow rates (subflows summed), beta={}",
                s.beta
            ))
            .header(["epoch", "flow1", "flow2", "flow3", "flow4", "jain(active)"]);
            for (e, m) in s.epoch_means.iter().enumerate() {
                t.row([
                    format!("{}", e + 1),
                    frac(m[0]),
                    frac(m[1]),
                    frac(m[2]),
                    frac(m[3]),
                    frac(s.epoch_jain[e]),
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
    fn active_sets() {
        assert_eq!(alive(lives(), 0), vec![0, 2]);
        assert_eq!(alive(lives(), 2), vec![0, 2, 3]);
        assert_eq!(alive(lives(), 4), vec![0, 1, 2, 3]);
        assert_eq!(alive(lives(), 5), vec![0, 1]);
    }

    #[test]
    fn beta4_is_fair_regardless_of_subflow_count() {
        let cfg = Fig6Config {
            unit: SimDuration::from_millis(1500),
            bin: SimDuration::from_millis(100),
            betas: vec![4],
            seed: 5,
        };
        let s = run_beta(&cfg, 4);
        // Epoch 5: all four flows (with 3/2/1/1 subflows) share the link.
        let j = s.epoch_jain[4];
        assert!(j > 0.85, "jain={j} means={:?}", s.epoch_means[4]);
        // Flow 1 (3 subflows) must not dominate flow 3 (1 subflow).
        let m = s.epoch_means[4];
        assert!(
            m[0] < m[2] * 2.0,
            "flow1 {} vs flow3 {} — coupling failed",
            m[0],
            m[2]
        );
        // Utilization stays high while 2+ flows are active.
        let util: f64 = m.iter().sum();
        assert!(util > 0.8, "util={util}");
        // Final epoch: only flows 1 and 2 remain and pick up the slack.
        let end = s.epoch_means[5];
        assert!(end[0] + end[1] > 0.75, "end={end:?}");
    }
}
