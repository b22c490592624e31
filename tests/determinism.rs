//! Determinism regression tests for the hot-path overhaul.
//!
//! The timing-wheel scheduler, pooled emission buffers and the parallel
//! suite runner must all be *bit-invisible*: same seed ⇒ identical event
//! counts, identical simulated clock, identical per-flow results — and the
//! parallel runner must return byte-for-byte what the serial loop returns.

use xmp_suite::experiments::runner::{self, PAPER_RUNS};
use xmp_suite::experiments::suite::{quick_cell, run_suite, run_suite_parallel, Pattern};
use xmp_suite::prelude::*;

/// FNV-1a over a string rendering — a cheap digest for comparing whole
/// result structures (f64 Debug formatting round-trips exactly, so equal
/// digests mean bit-equal numbers).
fn digest(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A fig1-style dumbbell scenario, instrumented: returns (events
/// processed, final sim clock, goodput digest over all flows).
fn dumbbell_run(seed: u64) -> (u64, u64, u64) {
    let mut sim: Sim<Segment> = Sim::new(seed);
    let db = Dumbbell::build(
        &mut sim,
        4,
        Bandwidth::from_gbps(1),
        SimDuration::from_micros(400),
        QdiscConfig::EcnThreshold { cap: 100, k: 10 },
        |_| Box::new(HostStack::new(StackConfig::default())),
    );
    // A lossy bottleneck makes the run genuinely seed-dependent (the only
    // network-side randomness is fault injection), so the cross-seed
    // inequality check below is meaningful.
    sim.set_link_drop_prob(db.bottleneck, 0.02);
    let mut d = Driver::new();
    for i in 0..4 {
        d.submit(FlowSpecBuilder {
            src_node: db.sources[i],
            subflows: vec![SubflowSpec {
                local_port: PortId(0),
                src: Dumbbell::src_addr(i),
                dst: Dumbbell::dst_addr(i),
            }],
            size: 2_000_000,
            scheme: if i % 2 == 0 {
                Scheme::xmp(1)
            } else {
                Scheme::Dctcp
            },
            start: SimTime::from_millis(i as u64),
            category: None,
            tag: i as u64,
        });
    }
    d.run(&mut sim, SimTime::from_secs(10), |_, _, _| {});
    let flows: Vec<String> = d
        .records()
        .map(|r| format!("{}:{:?}:{:.6}", r.tag, r.completed, r.goodput_bps))
        .collect();
    (
        sim.events_processed(),
        sim.now().as_nanos(),
        digest(&flows.join(";")),
    )
}

#[test]
fn same_seed_same_run_bit_for_bit() {
    for seed in [1u64, 7, 42] {
        let a = dumbbell_run(seed);
        let b = dumbbell_run(seed);
        assert_eq!(a, b, "seed {seed}: reruns diverged");
        assert!(a.0 > 1000, "seed {seed}: suspiciously few events ({})", a.0);
    }
    // And different seeds genuinely differ (the digest is not degenerate).
    assert_ne!(dumbbell_run(1).2, dumbbell_run(2).2);
}

/// The dumbbell scenario under a full fault plan — a mid-run outage of
/// the bottleneck with Bernoulli loss and corruption on top — returning
/// (events, final clock, flow digest, conservation digest).
fn faulted_dumbbell_run(seed: u64) -> (u64, u64, u64, u64) {
    let mut sim: Sim<Segment> = Sim::new(seed);
    let db = Dumbbell::build(
        &mut sim,
        4,
        Bandwidth::from_gbps(1),
        SimDuration::from_micros(400),
        QdiscConfig::EcnThreshold { cap: 100, k: 10 },
        |_| Box::new(HostStack::new(StackConfig::default())),
    );
    sim.install_fault_plan(
        &FaultPlan::new()
            .drop_rate(db.bottleneck, 0.02)
            .corrupt_rate(db.bottleneck, 0.01)
            .link_down(SimTime::from_millis(50), db.bottleneck)
            .link_up(SimTime::from_millis(120), db.bottleneck),
    );
    let mut d = Driver::new();
    for i in 0..4 {
        d.submit(FlowSpecBuilder {
            src_node: db.sources[i],
            subflows: vec![SubflowSpec {
                local_port: PortId(0),
                src: Dumbbell::src_addr(i),
                dst: Dumbbell::dst_addr(i),
            }],
            size: 2_000_000,
            scheme: if i % 2 == 0 {
                Scheme::xmp(1)
            } else {
                Scheme::Dctcp
            },
            start: SimTime::from_millis(i as u64),
            category: None,
            tag: i as u64,
        });
    }
    d.run(&mut sim, SimTime::from_secs(10), |_, _, _| {});
    let flows: Vec<String> = d
        .records()
        .map(|r| {
            format!(
                "{}:{:?}:{:.6}:{}",
                r.tag, r.completed, r.goodput_bps, r.rtos
            )
        })
        .collect();
    // Panics if any packet is unaccounted for; its digest must be stable.
    let audit = sim.audit_conservation();
    (
        sim.events_processed(),
        sim.now().as_nanos(),
        digest(&flows.join(";")),
        digest(&format!("{audit:?}")),
    )
}

#[test]
fn fault_seeded_runs_are_bit_identical() {
    let a = faulted_dumbbell_run(5);
    let b = faulted_dumbbell_run(5);
    assert_eq!(a, b, "fault-seeded reruns diverged");
    assert!(a.0 > 1000, "suspiciously few events ({})", a.0);
    // Different fault seeds genuinely change the outcome.
    assert_ne!(a.2, faulted_dumbbell_run(6).2);
}

/// The simulated outcome — clock, per-flow results, conservation totals —
/// recorded from the two-event (`TxDone` + `Deliver`) link pipeline at
/// commit ce843ca, the last one that had it. The one-event pipeline must
/// keep reproducing it bit for bit (the event count is not part of the
/// outcome: it halved by design).
#[test]
fn fault_outcome_matches_the_recorded_two_event_engine() {
    let r = faulted_dumbbell_run(5);
    assert_eq!(
        (r.1, r.2, r.3),
        (10_000_000_000, 14937690962974040689, 846601930777279474),
        "faulted dumbbell outcome moved off the recorded digest"
    );
}

#[test]
fn fig1_rerun_is_identical() {
    let text = PAPER_RUNS
        .iter()
        .find(|r| r.0 == "fig1")
        .expect("committed")
        .1;
    let mut sc = runner::load(text).expect("fig1.scn parses");
    (sc.seed, sc.paper.unit_us, sc.paper.bin_us) = (3, 60_000, Some(20_000));
    let bins = || {
        let r = runner::run("fig1", &sc).expect("fig1.scn runs");
        format!("{:?}", r.runs.iter().map(|v| &v.bins).collect::<Vec<_>>())
    };
    assert_eq!(digest(&bins()), digest(&bins()), "fig1 rerun diverged");
}

#[test]
fn parallel_suite_is_byte_identical_to_serial() {
    let cell = |scheme, pattern, seed| {
        let (mut sc, v) = quick_cell(pattern, scheme);
        let p = sc
            .paper
            .pattern
            .as_mut()
            .expect("fattree.scn has a [pattern]");
        (sc.seed, p.flows, p.max_sim_us) = (seed, 8, 3_000_000);
        (sc, v)
    };
    let cells = [
        cell(Scheme::xmp(2), Pattern::Permutation, 11),
        cell(Scheme::Dctcp, Pattern::Random, 12),
        cell(Scheme::lia(2), Pattern::Permutation, 13),
    ];
    let serial: Vec<u64> = cells
        .iter()
        .map(|(sc, v)| digest(&format!("{:?}", run_suite(sc, v).expect("builds").result)))
        .collect();
    let parallel: Vec<u64> = run_suite_parallel(&cells)
        .into_iter()
        .map(|r| digest(&format!("{:?}", r.expect("builds").result)))
        .collect();
    assert_eq!(serial, parallel, "parallel suite diverged from serial");
}
