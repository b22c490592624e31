//! Figure 6 — fairness on the Fig. 3b testbed.
//!
//! Four flows share one 300 Mbps bottleneck. Flow 1 grows to three subflows
//! (established at 0 s, 5 s, 15 s), Flow 2 opens two subflows at 20 s,
//! Flows 3 and 4 are single-path (0 s and 10 s) and stop at 25 s. With
//! β = 4 every *flow* converges to an equal share regardless of its subflow
//! count — the point of coupling subflows; β = 6 degrades fairness.

use crate::common::{frac, host_stack, TextTable};
use std::fmt;
use xmp_des::{SimDuration, SimTime};
use xmp_netsim::Sim;
use xmp_topo::testbed::{FairnessTestbed, TestbedConfig};
use xmp_transport::{ConnKey, Segment, SubflowSpec};
use xmp_workloads::{jain_index, Driver, FlowSpecBuilder, Host, RateSampler, Scheme};

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

/// Flows active during epoch `e`: flow1 from 0, flow2 from 4u, flow3 0–5u,
/// flow4 2u–5u.
fn active_in_epoch(e: usize) -> Vec<usize> {
    let mut v = vec![0];
    if e >= 4 {
        v.push(1);
    }
    if e < 5 {
        v.push(2);
    }
    if (2..5).contains(&e) {
        v.push(3);
    }
    v.sort_unstable();
    v
}

fn run_beta(cfg: &Fig6Config, beta: u32) -> Fig6Series {
    let mut sim: Sim<Segment, Host> = Sim::new(cfg.seed);
    let tcfg = TestbedConfig::default();
    let tb = FairnessTestbed::build(&mut sim, &tcfg, |_| host_stack());
    let capacity = tcfg.bandwidth.as_bps() as f64;
    let mut driver = Driver::new();
    let unit = cfg.unit;
    let total = SimTime::ZERO + unit * 6;

    let spec = |i: usize| SubflowSpec {
        local_port: tb.flow_path(i).port,
        src: tb.flow_path(i).src,
        dst: tb.flow_path(i).dst,
    };
    let xmp = |n: usize| Scheme::Xmp { beta, subflows: n };
    let mk = |node, subflows, scheme, start, tag| FlowSpecBuilder {
        src_node: node,
        subflows,
        size: u64::MAX,
        scheme,
        start,
        category: None,
        tag,
    };

    // Flow 1: one subflow now, two more joined later.
    let f1: ConnKey = driver.submit(mk(
        tb.net.sources[0],
        vec![spec(0)],
        xmp(1),
        SimTime::ZERO,
        1,
    ));
    let f2: ConnKey = driver.submit(mk(
        tb.net.sources[1],
        vec![spec(1), spec(1)],
        xmp(2),
        SimTime::ZERO + unit * 4,
        2,
    ));
    let f3: ConnKey = driver.submit(mk(
        tb.net.sources[2],
        vec![spec(2)],
        xmp(1),
        SimTime::ZERO,
        3,
    ));
    let f4: ConnKey = driver.submit(mk(
        tb.net.sources[3],
        vec![spec(3)],
        xmp(1),
        SimTime::ZERO + unit * 2,
        4,
    ));
    let conns = [f1, f2, f3, f4];

    let mut sampler = RateSampler::new();
    let mut bins = Vec::new();
    let mut joined = [false; 2];
    let mut stopped = false;
    let mut subflow_counts = [1usize, 2, 1, 1];
    let mut t = SimTime::ZERO;
    while t < total {
        t += cfg.bin;
        driver.run(&mut sim, t, |_, _, _| {});
        // Flow 1 joins its 2nd subflow at 1u and its 3rd at 3u.
        if !joined[0] && t >= SimTime::ZERO + unit {
            driver.add_subflow(&mut sim, f1, spec(0));
            subflow_counts[0] = 2;
            joined[0] = true;
        }
        if !joined[1] && t >= SimTime::ZERO + unit * 3 {
            driver.add_subflow(&mut sim, f1, spec(0));
            subflow_counts[0] = 3;
            joined[1] = true;
        }
        // Flows 3 and 4 shut down at 5u.
        if !stopped && t >= SimTime::ZERO + unit * 5 {
            driver.stop_flow(&mut sim, f3);
            driver.stop_flow(&mut sim, f4);
            stopped = true;
        }
        let mut row = [0.0f64; 4];
        for (i, &c) in conns.iter().enumerate() {
            for r in 0..subflow_counts[i] {
                row[i] += sampler.sample(&mut sim, &driver, c, r);
            }
            row[i] /= capacity;
        }
        bins.push(row);
    }

    let per_epoch = (unit.as_nanos() / cfg.bin.as_nanos()).max(1) as usize;
    let mut epoch_means = Vec::new();
    let mut epoch_jain = Vec::new();
    for e in 0..6 {
        let lo = e * per_epoch;
        let hi = ((e + 1) * per_epoch).min(bins.len());
        if lo >= hi {
            break;
        }
        let n = (hi - lo) as f64;
        let mut mean = [0.0; 4];
        for row in &bins[lo..hi] {
            for i in 0..4 {
                mean[i] += row[i] / n;
            }
        }
        let rates: Vec<f64> = active_in_epoch(e).iter().map(|&i| mean[i]).collect();
        epoch_jain.push(jain_index(&rates));
        epoch_means.push(mean);
    }

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
        assert_eq!(active_in_epoch(0), vec![0, 2]);
        assert_eq!(active_in_epoch(2), vec![0, 2, 3]);
        assert_eq!(active_in_epoch(4), vec![0, 1, 2, 3]);
        assert_eq!(active_in_epoch(5), vec![0, 1]);
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
