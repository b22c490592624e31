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

use crate::common::{frac, host_stack, TextTable};
use std::fmt;
use xmp_des::{Bandwidth, SimDuration, SimTime};
use xmp_netsim::{PortId, QdiscConfig, Sim};
use xmp_topo::Dumbbell;
use xmp_transport::{ConnKey, Segment, SubflowSpec};
use xmp_workloads::{jain_index, Driver, FlowSpecBuilder, Host, RateSampler, Scheme};

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

/// Which flows are alive during epoch `e` (0-based): starts at 0,1,2,3;
/// stops at 4,5,6 (flows 0,1,2).
fn active_in_epoch(e: usize) -> Vec<usize> {
    (0..4)
        .filter(|&i| e >= i && (i == 3 || e < 4 + i))
        .collect()
}

fn run_variant(cfg: &Fig1Config, label: &str, scheme: Scheme, k: usize) -> (Fig1Series, u64) {
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
    let total = SimTime::ZERO + unit * 7;
    // Flow i starts at i*unit; flows 0..2 stop at (4+i)*unit.
    let conns: Vec<ConnKey> = (0..4)
        .map(|i| {
            driver.submit(FlowSpecBuilder {
                src_node: db.sources[i],
                subflows: vec![SubflowSpec {
                    local_port: PortId(0),
                    src: Dumbbell::src_addr(i),
                    dst: Dumbbell::dst_addr(i),
                }],
                size: u64::MAX,
                scheme,
                start: SimTime::ZERO + unit * i as u64,
                category: None,
                tag: i as u64,
            })
        })
        .collect();

    let mut sampler = RateSampler::new();
    let mut bins = Vec::new();
    let mut stopped = [false; 4];
    let mut t = SimTime::ZERO;
    while t < total {
        t += cfg.bin;
        driver.run(&mut sim, t, |_, _, _| {});
        for i in 0..3 {
            if !stopped[i] && t >= SimTime::ZERO + unit * (4 + i as u64) {
                driver.stop_flow(&mut sim, conns[i]);
                stopped[i] = true;
            }
        }
        let mut row = [0.0; 4];
        for (i, &c) in conns.iter().enumerate() {
            let r = sampler.sample(&mut sim, &driver, c, 0);
            row[i] = r / CAPACITY_BPS;
        }
        bins.push(row);
    }

    // Epoch summaries.
    let per_epoch = (unit.as_nanos() / cfg.bin.as_nanos()).max(1) as usize;
    let mut epoch_means = Vec::new();
    let mut epoch_jain = Vec::new();
    let mut epoch_util = Vec::new();
    for e in 0..7 {
        let lo = e * per_epoch;
        let hi = ((e + 1) * per_epoch).min(bins.len());
        if lo >= hi {
            break;
        }
        let mut mean = [0.0; 4];
        for row in &bins[lo..hi] {
            for i in 0..4 {
                mean[i] += row[i];
            }
        }
        for m in &mut mean {
            *m /= (hi - lo) as f64;
        }
        let active = active_in_epoch(e);
        let rates: Vec<f64> = active.iter().map(|&i| mean[i]).collect();
        epoch_jain.push(jain_index(&rates));
        epoch_util.push(rates.iter().sum());
        epoch_means.push(mean);
    }

    let series = Fig1Series {
        label: label.into(),
        bins,
        epoch_means,
        epoch_jain,
        epoch_util,
    };
    (series, sim.events_processed())
}

/// Run all four variants.
pub fn run(cfg: &Fig1Config) -> Fig1Result {
    run_counting(cfg).0
}

/// [`run`], also returning the total engine events processed across the
/// four variants (a cost, not an outcome, so it lives outside
/// [`Fig1Result`] and its digests).
pub fn run_counting(cfg: &Fig1Config) -> (Fig1Result, u64) {
    let variants: [(&str, Scheme, usize); 4] = [
        ("DCTCP, K=10", Scheme::Dctcp, 10),
        ("DCTCP, K=20", Scheme::Dctcp, 20),
        ("Halving cwnd, K=10", Scheme::Bos { beta: 2 }, 10),
        ("Halving cwnd, K=20", Scheme::Bos { beta: 2 }, 20),
    ];
    let mut events = 0;
    let series = variants
        .iter()
        .map(|(label, scheme, k)| {
            let (s, ev) = run_variant(cfg, label, *scheme, *k);
            events += ev;
            s
        })
        .collect();
    (Fig1Result { series }, events)
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
        assert_eq!(active_in_epoch(0), vec![0]);
        assert_eq!(active_in_epoch(3), vec![0, 1, 2, 3]);
        assert_eq!(active_in_epoch(4), vec![1, 2, 3]);
        assert_eq!(active_in_epoch(6), vec![3]);
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
        let (s, _) = run_variant(&cfg, "halving", Scheme::Bos { beta: 2 }, 20);
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
        assert!(s.epoch_means[6][0] < 0.01, "flow1 stopped");
    }

    #[test]
    fn dctcp_variant_runs_and_utilizes() {
        let cfg = Fig1Config {
            interval: SimDuration::from_millis(800),
            bin: SimDuration::from_millis(50),
            seed: 4,
        };
        let (s, _) = run_variant(&cfg, "dctcp", Scheme::Dctcp, 20);
        assert!(s.epoch_util[3] > 0.8, "util={}", s.epoch_util[3]);
        assert_eq!(s.epoch_means.len(), 7);
    }
}
