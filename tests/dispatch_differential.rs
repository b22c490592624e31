//! Dispatch differential: `Sim` is generic over how host agents are
//! stored, and a run over inline agents (`Sim<Segment, Host>`, what every
//! experiment uses) must be **bit identical** to the same run over the
//! generic default (`Sim<Segment, Box<dyn Agent<Segment>>>`) — same clock,
//! same per-flow records, same conservation totals, same probe stream —
//! with faults and probes enabled. Both are also held to the outcome the
//! two-event link pipeline (`TxDone` + `Deliver`) produced before it was
//! removed, as is one suite cell.

use xmp_suite::experiments::scenario::LinkRef;
use xmp_suite::experiments::suite::{quick_cell, run_suite, Pattern};
use xmp_suite::netsim::{Agent, ProbeConfig};
use xmp_suite::prelude::*;
use xmp_suite::workloads::Host;

/// FNV-1a over a string rendering (f64 Debug formatting round-trips
/// exactly, so equal digests mean bit-equal numbers).
fn digest(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// One faulted, probed dumbbell scenario, generic over agent storage.
/// Returns (final clock, flow digest, audit digest, probe JSONL digest).
fn faulted_probed_run<A: Agent<Segment>>(
    seed: u64,
    mut make_host: impl FnMut() -> A,
) -> (u64, u64, u64, u64) {
    let mut sim: Sim<Segment, A> = Sim::new(seed);
    let db = Dumbbell::build(
        &mut sim,
        4,
        Bandwidth::from_gbps(1),
        SimDuration::from_micros(400),
        QdiscConfig::EcnThreshold { cap: 100, k: 10 },
        |_| make_host(),
    );
    sim.install_fault_plan(
        &FaultPlan::new()
            .drop_rate(db.bottleneck, 0.02)
            .corrupt_rate(db.bottleneck, 0.01)
            .link_down(SimTime::from_millis(50), db.bottleneck)
            .link_up(SimTime::from_millis(120), db.bottleneck),
    );
    sim.install_probes(
        ProbeConfig::every(SimDuration::from_millis(5))
            .until(SimTime::from_secs(10))
            .watch_queue(db.bottleneck, 0)
            .watch_queue(db.bottleneck, 1)
            .with_marks(),
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
    let audit = sim.audit_conservation();
    let probes = sim.take_probes().expect("probes were installed");
    assert!(!probes.is_empty(), "probe stream empty");
    (
        sim.now().as_nanos(),
        digest(&flows.join(";")),
        digest(&format!("{audit:?}")),
        digest(&probes.export_jsonl()),
    )
}

#[test]
fn inline_and_boxed_agent_dumbbell_runs_match_the_recorded_outcome() {
    // Recorded from the two-event link pipeline at commit ce843ca.
    const RECORDED: (u64, u64, u64, u64) = (
        10_000_000_000,
        14937690962974040689,
        846601930777279474,
        4753027935023905155,
    );
    let inline = faulted_probed_run::<Host>(5, || HostStack::new(StackConfig::default()));
    let boxed = faulted_probed_run::<Box<dyn Agent<Segment>>>(5, || {
        Box::new(HostStack::new(StackConfig::default()))
    });
    assert_eq!(
        inline, RECORDED,
        "inline agents moved off the recorded digest"
    );
    assert_eq!(boxed, RECORDED, "boxed agents diverged from inline agents");
}

#[test]
fn suite_cell_matches_the_recorded_outcome() {
    // Recorded from the two-event link pipeline at commit ce843ca.
    const RECORDED: u64 = 13708578246439681252;
    let (mut sc, v) = quick_cell(Pattern::Permutation, Scheme::xmp(2));
    let p = sc
        .paper
        .pattern
        .as_mut()
        .expect("fattree.scn has a [pattern]");
    (sc.seed, p.flows, p.max_sim_us) = (17, 8, 3_000_000);
    // Both directions of every core link, every 10 ms until the cell's end.
    let h = sc.k / 2;
    let cores = (0..h * h * sc.k).map(|n| LinkRef::Core(n / (h * sc.k), n / sc.k % h, n % sc.k));
    sc.probes = cores.flat_map(|l| [(l, 0), (l, 1)]).collect();
    (sc.probe_interval_us, sc.horizon_us) = (10_000, 3_000_000);
    let r = run_suite(&sc, &v).expect("the cell builds").result;
    assert_eq!(
        digest(&format!("{r:?}")),
        RECORDED,
        "suite outcome moved off the recorded digest"
    );
}
