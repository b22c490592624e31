//! Figure 1 — the motivating microbenchmark: four flows share a 1 Gbps
//! bottleneck (RTT 225 µs, no-load), flows starting/stopping every 5 s.
//! DCTCP (K = 10, 20) is compared against a constant-factor window cut
//! ("halving cwnd" = BOS with β = 2) under the same instantaneous-threshold
//! marking.
//!
//! The paper's takeaways this experiment reproduces:
//! * DCTCP can converge slowly and lock into unfair shares under global
//!   synchronization (Figs. 1a/1b),
//! * halving with K ≥ BDP/(β−1) (K = 20 > BDP ≈ 19) keeps the link fully
//!   utilized (Fig. 1d), and even K = 10 loses little because the smaller
//!   RTT speeds up window growth (Fig. 1c).

use crate::common::{alive, frac, host_stack, long_flow, Life, TextTable};
use std::fmt;
use xmp_des::{Bandwidth, SimDuration, SimTime};
use xmp_netsim::{PortId, QdiscConfig, Sim};
use xmp_topo::Dumbbell;
use xmp_transport::{ConnKey, Segment, SubflowSpec};
use xmp_workloads::{jain_index, Driver, Host, RateBins, Scheme};

/// Experiment configuration.
#[derive(Clone, Debug)]
pub struct Fig1Config {
    /// Flow start/stop interval (paper: 5 s → 35 s total).
    pub interval: SimDuration,
    /// Rate-sampling bin.
    pub bin: SimDuration,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fig1Config {
    fn default() -> Self {
        Fig1Config {
            interval: SimDuration::from_secs(5),
            bin: SimDuration::from_millis(100),
            seed: 1,
        }
    }
}

impl Fig1Config {
    /// Scaled-down variant for `--quick` runs (0.5 s epochs).
    pub fn quick() -> Self {
        Fig1Config {
            interval: SimDuration::from_millis(500),
            bin: SimDuration::from_millis(25),
            ..Fig1Config::default()
        }
    }
}

/// One subplot's data.
#[derive(Debug)]
pub struct Fig1Series {
    /// Variant label (e.g. "DCTCP, K=10").
    pub label: String,
    /// Normalized per-flow rates, one row per bin.
    pub bins: Vec<[f64; 4]>,
    /// Per-epoch (5 s) mean normalized rate per flow.
    pub epoch_means: Vec<[f64; 4]>,
    /// Jain index over the *active* flows, per epoch.
    pub epoch_jain: Vec<f64>,
    /// Aggregate normalized utilization per epoch.
    pub epoch_util: Vec<f64>,
}

/// The four subplots.
#[derive(Debug)]
pub struct Fig1Result {
    /// One series per variant, in the paper's order (a)–(d).
    pub series: Vec<Fig1Series>,
}

const CAPACITY_BPS: f64 = 1e9;

/// The schedule: flow `i` starts at epoch `i`; flows 1–3 stop at epochs
/// 4, 5, 6 and flow 4 runs to the end.
const SCHEDULE: [Life; 4] = [(0, Some(4)), (1, Some(5)), (2, Some(6)), (3, None)];
const EPOCHS: u64 = 7;

fn run_variant(cfg: &Fig1Config, label: &str, scheme: Scheme, k: usize) -> Fig1Series {
    let mut sim: Sim<Segment, Host> = Sim::new(cfg.seed);
    let db = Dumbbell::build(
        &mut sim,
        4,
        Bandwidth::from_gbps(1),
        SimDuration::from_micros(225),
        QdiscConfig::EcnThreshold { cap: 100, k },
        |_| host_stack(),
    );
    let mut driver = Driver::new();
    let unit = cfg.interval;
    let conns: Vec<ConnKey> = SCHEDULE
        .iter()
        .enumerate()
        .map(|(i, &life)| {
            let path = SubflowSpec {
                local_port: PortId(0),
                src: Dumbbell::src_addr(i),
                dst: Dumbbell::dst_addr(i),
            };
            long_flow(
                &mut driver,
                unit,
                life,
                db.sources[i],
                vec![path],
                scheme,
                i as u64,
            )
        })
        .collect();
    let mut rates = RateBins::new(conns.iter().map(|&c| (c, 0)), cfg.bin);
    rates.run(&mut driver, &mut sim, SimTime::ZERO + unit * EPOCHS);
    sim.audit_conservation();

    let bins: Vec<[f64; 4]> = rates
        .rows()
        .iter()
        .map(|r| [0, 1, 2, 3].map(|i| r[i] / CAPACITY_BPS))
        .collect();
    let epoch_means = rates.epoch_means(unit, &bins);
    let (epoch_jain, epoch_util) = epoch_means
        .iter()
        .enumerate()
        .map(|(e, mean)| {
            let active: Vec<f64> = alive(SCHEDULE, e as u64).iter().map(|&i| mean[i]).collect();
            (jain_index(&active), active.iter().sum::<f64>())
        })
        .unzip();

    Fig1Series {
        label: label.into(),
        bins,
        epoch_means,
        epoch_jain,
        epoch_util,
    }
}

/// Run all four variants.
pub fn run(cfg: &Fig1Config) -> Fig1Result {
    let variants: [(&str, Scheme, usize); 4] = [
        ("DCTCP, K=10", Scheme::Dctcp, 10),
        ("DCTCP, K=20", Scheme::Dctcp, 20),
        ("Halving cwnd, K=10", Scheme::Bos { beta: 2 }, 10),
        ("Halving cwnd, K=20", Scheme::Bos { beta: 2 }, 20),
    ];
    Fig1Result {
        series: variants
            .iter()
            .map(|(label, scheme, k)| run_variant(cfg, label, *scheme, *k))
            .collect(),
    }
}

impl fmt::Display for Fig1Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.series {
            let mut t = TextTable::new(format!("Fig.1 — {}", s.label))
                .header(["epoch", "flow1", "flow2", "flow3", "flow4", "jain", "util"]);
            for (e, m) in s.epoch_means.iter().enumerate() {
                t.row([
                    format!("{}", e + 1),
                    frac(m[0]),
                    frac(m[1]),
                    frac(m[2]),
                    frac(m[3]),
                    frac(s.epoch_jain[e]),
                    frac(s.epoch_util[e]),
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
    fn active_flow_sets() {
        assert_eq!(alive(SCHEDULE, 0), vec![0]);
        assert_eq!(alive(SCHEDULE, 3), vec![0, 1, 2, 3]);
        assert_eq!(alive(SCHEDULE, 4), vec![1, 2, 3]);
        assert_eq!(alive(SCHEDULE, 6), vec![3]);
    }

    #[test]
    fn halving_k20_is_fair_and_utilized() {
        // The paper's Fig. 1d: with K=20 >= BDP/(beta-1), the constant
        // cut keeps the link busy and the flows fair.
        let cfg = Fig1Config {
            interval: SimDuration::from_millis(1000),
            bin: SimDuration::from_millis(50),
            seed: 3,
        };
        let s = run_variant(&cfg, "halving", Scheme::Bos { beta: 2 }, 20);
        // Epoch 4 (all four flows active): near-fair, near-full.
        assert!(s.epoch_jain[3] > 0.9, "jain={}", s.epoch_jain[3]);
        assert!(s.epoch_util[3] > 0.85, "util={}", s.epoch_util[3]);
        // Epoch 1: single flow saturates the link alone.
        assert!(s.epoch_util[0] > 0.8, "util={}", s.epoch_util[0]);
        // Last epoch: only flow 4 remains and picks the capacity back up.
        assert!(
            s.epoch_means[6][3] > 0.8,
            "flow4 end rate {}",
            s.epoch_means[6][3]
        );
        assert!(s.epoch_means[6][0] < 0.01, "flow1 still sending");
    }

    #[test]
    fn dctcp_variant_runs_and_utilizes() {
        let cfg = Fig1Config {
            interval: SimDuration::from_millis(800),
            bin: SimDuration::from_millis(50),
            seed: 4,
        };
        let s = run_variant(&cfg, "dctcp", Scheme::Dctcp, 20);
        assert!(s.epoch_util[3] > 0.8, "util={}", s.epoch_util[3]);
        assert_eq!(s.epoch_means.len(), 7);
    }
}
