//! Figure 7 — rate compensation on the Fig. 5 torus.
//!
//! Five XMP-2 flows around the five-bottleneck ring, started 5 s apart.
//! Four background flows join L3 one by one (25–40 s), leave one by one
//! (45–60 s), and L3 is closed at 60 s. The paper's observations:
//!
//! * the two subflows crossing L3 (Flow 2-2, Flow 3-1) shrink as L3
//!   congests; their siblings (2-1, 3-2) grow to compensate,
//! * the compensation ripples to the neighbours with attenuation
//!   ("attenuated Dominos") — flows two hops away barely move,
//! * when L3 closes, the L3 subflows collapse to ~0 and their siblings
//!   absorb the traffic,
//! * per flow, one subflow's rate curve mirrors the other's.

use crate::common::{frac, host_stack, long_flow, TextTable};
use std::fmt;
use xmp_des::{SimDuration, SimTime};
use xmp_netsim::Sim;
use xmp_topo::torus::{Torus, TorusConfig, CAPACITIES_GBPS, RING};
use xmp_transport::{ConnKey, Segment};
use xmp_workloads::{path_spec, Driver, Host, RateBins, Scheme};

/// Experiment configuration.
#[derive(Clone, Debug)]
pub struct Fig7Config {
    /// Epoch length (paper: 5 s; 14 epochs → 70 s).
    pub unit: SimDuration,
    /// (β, K) pairs to run (paper: (4,20), (5,15), (6,10) per Eq. 1).
    pub variants: Vec<(u32, usize)>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fig7Config {
    fn default() -> Self {
        Fig7Config {
            unit: SimDuration::from_secs(5),
            variants: vec![(4, 20), (5, 15), (6, 10)],
            seed: 1,
        }
    }
}

impl Fig7Config {
    /// Scaled-down variant for `--quick` runs.
    pub fn quick() -> Self {
        Fig7Config {
            unit: SimDuration::from_millis(400),
            variants: vec![(4, 20)],
            seed: 1,
        }
    }
}

/// One (β, K) run.
#[derive(Debug)]
pub struct Fig7Series {
    /// β used.
    pub beta: u32,
    /// K used.
    pub k: usize,
    /// `rates[flow][subflow][epoch]` — mean rate in the epoch, normalized
    /// to the subflow's bottleneck capacity.
    pub rates: Vec<[Vec<f64>; 2]>,
}

/// The figure.
#[derive(Debug)]
pub struct Fig7Result {
    /// One series per (β, K).
    pub series: Vec<Fig7Series>,
}

/// The schedule, in epochs: Flow `i` starts at epoch `i`; background flow
/// `b` lives on L3 over epochs `5 + b .. 9 + b`; L3 closes at epoch 12.
const BACKGROUND_FLOWS: u64 = 4;
const L3_CLOSES: u64 = 12;
const EPOCHS: u64 = 14;

fn run_variant(cfg: &Fig7Config, beta: u32, k: usize) -> Fig7Series {
    let mut sim: Sim<Segment, Host> = Sim::new(cfg.seed);
    let torus = Torus::build(
        &mut sim,
        &TorusConfig {
            k,
            ..TorusConfig::default()
        },
        |_| host_stack(),
    );
    let mut driver = Driver::new();
    let unit = cfg.unit;

    let flows: Vec<ConnKey> = (0..RING)
        .map(|i| {
            long_flow(
                &mut driver,
                unit,
                (i as u64, None),
                torus.src[i],
                torus.flow_paths(i).into_iter().map(path_spec).collect(),
                Scheme::Xmp { beta, subflows: 2 },
                i as u64,
            )
        })
        .collect();
    for b in 0..BACKGROUND_FLOWS {
        long_flow(
            &mut driver,
            unit,
            (5 + b, Some(9 + b)),
            torus.bg_src,
            vec![path_spec(torus.bg_path())],
            Scheme::Xmp { beta, subflows: 1 },
            100 + b,
        );
    }

    // One bin per epoch, so the rows are the epoch means.
    let mut bins = RateBins::new(flows.iter().flat_map(|&c| [(c, 0), (c, 1)]), unit);
    bins.run(&mut driver, &mut sim, SimTime::ZERO + unit * L3_CLOSES);
    sim.set_link_drop_prob(torus.bottlenecks[2], 1.0);
    bins.run(&mut driver, &mut sim, SimTime::ZERO + unit * EPOCHS);
    sim.audit_conservation();

    let rates = (0..RING)
        .map(|i| {
            [0, 1].map(|x| {
                let cap = CAPACITIES_GBPS[(i + x) % RING] * 1e9;
                bins.rows().iter().map(|row| row[2 * i + x] / cap).collect()
            })
        })
        .collect();

    Fig7Series { beta, k, rates }
}

/// Run every configured (β, K).
pub fn run(cfg: &Fig7Config) -> Fig7Result {
    Fig7Result {
        series: cfg
            .variants
            .iter()
            .map(|&(b, k)| run_variant(cfg, b, k))
            .collect(),
    }
}

impl fmt::Display for Fig7Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.series {
            let mut t = TextTable::new(format!(
                "Fig.7 — per-epoch normalized subflow rates, K={} beta={}",
                s.k, s.beta
            ))
            .header(
                std::iter::once("subflow".to_string())
                    .chain((1..=s.rates[0][0].len()).map(|e| format!("e{e}"))),
            );
            for (i, pair) in s.rates.iter().enumerate() {
                for (x, series) in pair.iter().enumerate() {
                    t.row(
                        std::iter::once(format!(
                            "Flow {}-{} (L{})",
                            i + 1,
                            x + 1,
                            (i + x) % RING + 1
                        ))
                        .chain(series.iter().map(|&v| frac(v))),
                    );
                }
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
    fn rate_compensation_on_l3_congestion_and_closure() {
        let cfg = Fig7Config {
            unit: SimDuration::from_millis(800),
            variants: vec![(4, 20)],
            seed: 3,
        };
        let s = run_variant(&cfg, 4, 20);
        // Flow 2 (index 1): subflow 1 (x=1) rides L3; Flow 3 (index 2):
        // subflow 0 rides L3.
        let f2_l3 = &s.rates[1][1];
        let f2_sib = &s.rates[1][0];
        // Quiet epoch (8: all flows up, bg fully loaded at 9..) — compare
        // epoch 8 (bg building) vs epoch 5 (pre-bg, index 4).
        let pre = f2_l3[4];
        let congested = f2_l3[8];
        assert!(
            congested < pre * 0.85,
            "L3 subflow should shrink: {pre} -> {congested}"
        );
        assert!(
            f2_sib[8] > f2_sib[4] * 1.02,
            "sibling should compensate: {} -> {}",
            f2_sib[4],
            f2_sib[8]
        );
        // After closure (epochs 13, 14 → indices 12, 13): L3 subflows die.
        assert!(
            f2_l3[13] < 0.05,
            "L3 subflow should collapse after closure: {}",
            f2_l3[13]
        );
        let f3_l3 = &s.rates[2][0];
        assert!(f3_l3[13] < 0.05, "flow3-1 too: {}", f3_l3[13]);
        // Siblings carry the flow.
        assert!(f2_sib[13] > 0.1, "sibling alive: {}", f2_sib[13]);
    }
}
