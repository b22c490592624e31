//! Seeded scenario generation: one master `u64` reproduces every scenario
//! in a batch, and every scenario is itself a pure function of
//! `(master, index)` via [`SimRng::derive`] — adding scenario 57 never
//! perturbs scenario 12.
//!
//! The generator draws from the whole configuration space the oracles are
//! supposed to agree on: tree size, every `SimTuning` combination, all
//! three qdisc families, every congestion-control scheme the workloads
//! crate knows, three traffic patterns (random permutation, incast,
//! mice + elephants), a random fault storm (flaps, switch kills, seeded
//! loss and corruption), probe placement and the re-sliced oracle legs.

use crate::scenario::{
    FaultLine, FaultSpec, FlowLine, LinkRef, NodeRef, Paper, QdiscSpec, Scenario,
};
use xmp_des::SimRng;
use xmp_topo::FatTree;
use xmp_workloads::Scheme;

/// Master seed of the `--budget quick` batch ("SICNECC" — simcheck).
pub const QUICK_SEED: u64 = 0x51_3C_4E_C4;
/// Scenarios in the `--budget quick` batch.
pub const QUICK_COUNT: u64 = 50;

/// Generate scenario `index` of the batch seeded by `master`.
pub fn generate(master: u64, index: u64) -> Scenario {
    let mut rng = SimRng::new(master).derive(index);

    // Small trees dominate: they run fast and still exercise every layer.
    let k = match rng.index(10) {
        0..=6 => 4,
        7 | 8 => 6,
        _ => 8,
    };
    let hosts = k * k * k / 4;
    let tag_count = FatTree::tag_count_for(k);
    let horizon_us = rng.uniform_u64(20_000, 80_000);

    let mut sc = Scenario {
        seed: rng.next_u64(),
        k,
        horizon_us,
        rto_min_us: *pick(&mut rng, &[100_000, 200_000]),
        tuning: xmp_netsim::SimTuning {
            // Flipped on below whenever the storm can partition the tree.
            drop_unroutable: rng.chance(0.2),
            // Chaos scenarios exercise the packet pipeline; hybrid runs
            // have their own differential harness (`hybrid_differential`).
            hybrid: false,
        },
        qdisc: random_qdisc(&mut rng),
        probe_interval_us: rng.uniform_u64(200, 1000),
        slices: Vec::new(),
        inject_divergence: false,
        flows: Vec::new(),
        faults: Vec::new(),
        loss: Vec::new(),
        corruption: Vec::new(),
        probes: Vec::new(),
        paper: Paper::default(),
    };

    // Re-sliced legs: `slices = 2` always rides along, so every scenario
    // has a differential pair; sometimes also 3 or 4.
    sc.slices.push(2);
    if rng.chance(0.4) {
        sc.slices.push(*pick(&mut rng, &[3, 4]));
    }

    generate_flows(&mut rng, &mut sc, hosts, tag_count);
    if rng.chance(0.6) {
        generate_storm(&mut rng, &mut sc, k);
    }
    if !sc.faults.is_empty() {
        // A storm can sever paths or whole pods; unroutable packets must
        // become counted drops, not panics.
        sc.tuning.drop_unroutable = true;
    }
    if rng.chance(0.7) {
        for _ in 0..=rng.index(2) {
            let link = random_link(&mut rng, &mut sc, k);
            sc.probes.push((link, rng.index(2) as u8));
        }
        sc.probes.dedup();
    }
    sc
}

fn pick<'a, T>(rng: &mut SimRng, xs: &'a [T]) -> &'a T {
    &xs[rng.index(xs.len())]
}

fn random_qdisc(rng: &mut SimRng) -> QdiscSpec {
    let cap = rng.uniform_u64(50, 150) as usize;
    match rng.index(4) {
        0 => QdiscSpec::DropTail { cap },
        1 | 2 => QdiscSpec::Ecn {
            cap,
            k: rng.uniform_u64(5, 20) as usize,
        },
        _ => {
            let min_th = rng.uniform_u64(5, 15) as f64;
            QdiscSpec::Red {
                cap,
                wq: (rng.uniform_u64(1, 10) as f64) / 10.0,
                min_th,
                max_th: min_th + rng.uniform_u64(5, 20) as f64,
                max_p: (rng.uniform_u64(5, 20) as f64) / 100.0,
                drop: rng.chance(0.3),
                seed: rng.next_u64(),
            }
        }
    }
}

fn random_scheme(rng: &mut SimRng, tag_count: usize) -> Scheme {
    let max_sf = tag_count.min(4);
    match rng.index(6) {
        0 | 1 => Scheme::xmp(2.min(max_sf).max(1)),
        2 => Scheme::xmp(rng.index(max_sf) + 1),
        3 => Scheme::lia(rng.index(max_sf) + 1),
        4 => Scheme::Dctcp,
        _ => Scheme::Tcp,
    }
}

fn random_flow(
    rng: &mut SimRng,
    src: usize,
    dst: usize,
    size: u64,
    start_us: u64,
    tag_count: usize,
) -> FlowLine {
    let scheme = random_scheme(rng, tag_count);
    // Prefer distinct tags (disjoint core paths) but allow repeats when the
    // tree has less diversity than the scheme has subflows.
    let mut tags: Vec<usize> = Vec::new();
    for i in 0..scheme.subflow_count() {
        let t = if i < tag_count {
            loop {
                let t = rng.index(tag_count);
                if !tags.contains(&t) {
                    break t;
                }
            }
        } else {
            rng.index(tag_count)
        };
        tags.push(t);
    }
    FlowLine {
        src,
        dst,
        size,
        scheme,
        start_us,
        tags,
    }
}

fn generate_flows(rng: &mut SimRng, sc: &mut Scenario, hosts: usize, tag_count: usize) {
    let start_window = sc.horizon_us / 4;
    match rng.index(3) {
        // Random permutation: distinct sources, derangement-style targets.
        0 => {
            let count = rng.uniform_u64(8, 24) as usize;
            let perm = rng.permutation(hosts);
            for (i, &src) in perm.iter().take(count).enumerate() {
                let dst = perm[(i + count / 2 + 1) % perm.len()];
                if dst == src {
                    continue;
                }
                let size = rng.uniform_u64(16 << 10, 128 << 10);
                let start = rng.uniform_u64(0, start_window);
                sc.flows
                    .push(random_flow(rng, src, dst, size, start, tag_count));
            }
        }
        // Incast: a fan-in of senders firing at one sink near t = 0.
        1 => {
            let sink = rng.index(hosts);
            let fan = rng.uniform_u64(8, 16) as usize;
            let perm = rng.permutation(hosts);
            for &src in perm.iter().filter(|&&s| s != sink).take(fan) {
                let size = rng.uniform_u64(16 << 10, 64 << 10);
                let start = rng.uniform_u64(0, 500);
                sc.flows
                    .push(random_flow(rng, src, sink, size, start, tag_count));
            }
        }
        // Mice + elephants: many short flows over a few long ones.
        _ => {
            let count = rng.uniform_u64(8, 20) as usize;
            for _ in 0..count {
                let src = rng.index(hosts);
                let mut dst = rng.index(hosts);
                while dst == src {
                    dst = rng.index(hosts);
                }
                let size = if rng.chance(0.25) {
                    rng.uniform_u64(128 << 10, 512 << 10) // elephant
                } else {
                    rng.uniform_u64(8 << 10, 32 << 10) // mouse
                };
                let start = rng.uniform_u64(0, start_window);
                sc.flows
                    .push(random_flow(rng, src, dst, size, start, tag_count));
            }
        }
    }
}

fn random_link(rng: &mut SimRng, sc: &mut Scenario, k: usize) -> LinkRef {
    let h = k / 2;
    let hosts = sc.host_count();
    match rng.index(3) {
        0 => LinkRef::Core(rng.index(h), rng.index(h), rng.index(k)),
        // One edge→agg link per (pod, edge, agg) triple: k·(k/2)² of them.
        1 => LinkRef::Agg(rng.index(k * h * h)),
        _ => LinkRef::Rack(rng.index(hosts)),
    }
}

fn generate_storm(rng: &mut SimRng, sc: &mut Scenario, k: usize) {
    let h = k / 2;
    // Flaps: a few links go down mid-run; most come back before the end,
    // some stay dark.
    for _ in 0..=rng.index(3) {
        let link = random_link(rng, sc, k);
        let down = rng.uniform_u64(sc.horizon_us / 10, sc.horizon_us / 2);
        sc.faults.push(FaultLine {
            at_us: down,
            event: FaultSpec::Down(link),
        });
        if rng.chance(0.7) {
            let up = rng.uniform_u64(down + 1_000, sc.horizon_us.max(down + 2_000));
            sc.faults.push(FaultLine {
                at_us: up,
                event: FaultSpec::Up(link),
            });
        }
    }
    // Occasionally kill a whole switch.
    if rng.chance(0.2) {
        let node = match rng.index(2) {
            0 => NodeRef::Agg(rng.index(k * h)),
            _ => NodeRef::Core(rng.index(h * h)),
        };
        sc.faults.push(FaultLine {
            at_us: rng.uniform_u64(sc.horizon_us / 10, sc.horizon_us / 2),
            event: FaultSpec::SwitchDown(node),
        });
    }
    // Seeded random loss / corruption on a couple of links.
    if rng.chance(0.5) {
        for _ in 0..=rng.index(2) {
            let link = random_link(rng, sc, k);
            let p = (rng.uniform_u64(1, 50) as f64) / 1000.0;
            sc.loss.push((link, p));
        }
    }
    if rng.chance(0.3) {
        let link = random_link(rng, sc, k);
        let p = (rng.uniform_u64(1, 10) as f64) / 1000.0;
        sc.corruption.push((link, p));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_a_pure_function_of_seed_and_index() {
        for i in 0..20 {
            let a = generate(0xC0FFEE, i);
            let b = generate(0xC0FFEE, i);
            assert_eq!(a, b, "scenario {i} not reproducible");
        }
        // Different indices give different scenarios (not a constant).
        let distinct = (0..20)
            .map(|i| generate(0xC0FFEE, i).seed)
            .collect::<std::collections::BTreeSet<_>>();
        assert!(distinct.len() > 15);
    }

    #[test]
    fn generated_scenarios_round_trip_and_stay_in_bounds() {
        for i in 0..40 {
            let sc = generate(42, i);
            let hosts = sc.host_count();
            let tags = FatTree::tag_count_for(sc.k);
            assert!(!sc.flows.is_empty(), "scenario {i} has no traffic");
            for f in &sc.flows {
                assert!(f.src < hosts && f.dst < hosts && f.src != f.dst);
                assert!(f.tags.iter().all(|&t| t < tags));
                assert_eq!(f.tags.len(), f.scheme.subflow_count());
            }
            for n in &sc.slices {
                assert!((2..=4).contains(n));
            }
            let text = sc.to_text();
            let back = Scenario::parse(&text).expect("round trip");
            assert_eq!(sc, back);
        }
    }
}
