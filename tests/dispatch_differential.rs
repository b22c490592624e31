//! Dispatch differential: the statically dispatched hot path (inline
//! agents, `QdiscKind` enums, `CcKind` controllers) must be **bit
//! identical** to the historical dynamic path (`Box<dyn Agent>`, boxed
//! qdiscs, `CcKind::Custom` controllers) — same clock, same per-flow
//! records, same conservation totals, same probe stream — with faults and
//! probes enabled. Devirtualization is a pure performance change or it is
//! a bug. Both paths are also held to the outcome the two-event link
//! pipeline (`TxDone` + `Deliver`) produced before it was removed.

use xmp_suite::experiments::suite::{run_suite_profiled, Pattern, SuiteConfig};
use xmp_suite::netsim::{Agent, ProbeConfig, ProbeRecord};
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
    boxed_cc_and_qdisc: bool,
    mut make_host: impl FnMut() -> A,
) -> (u64, u64, u64, u64) {
    let mut sim: Sim<Segment, A> = Sim::new(seed);
    let mut qdisc = QdiscConfig::EcnThreshold { cap: 100, k: 10 };
    if boxed_cc_and_qdisc {
        qdisc = qdisc.boxed();
    }
    let db = Dumbbell::build(
        &mut sim,
        4,
        Bandwidth::from_gbps(1),
        SimDuration::from_micros(400),
        qdisc,
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
    d.set_boxed_cc(boxed_cc_and_qdisc);
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
fn enum_and_boxed_dumbbell_runs_match_the_recorded_outcome() {
    // Recorded from the two-event link pipeline at commit ce843ca.
    const RECORDED: (u64, u64, u64, u64) = (
        10_000_000_000,
        14937690962974040689,
        846601930777279474,
        4753027935023905155,
    );
    let stat = faulted_probed_run::<Host>(5, false, || HostStack::new(StackConfig::default()));
    let dynam = faulted_probed_run::<Box<dyn Agent<Segment>>>(5, true, || {
        Box::new(HostStack::new(StackConfig::default()))
    });
    assert_eq!(
        stat, RECORDED,
        "static dispatch moved off the recorded digest"
    );
    assert_eq!(
        dynam, RECORDED,
        "boxed dispatch diverged from the static path"
    );
}

#[test]
fn suite_cell_is_bit_identical_across_dispatch_and_matches_the_recorded_outcome() {
    // Recorded from the two-event link pipeline at commit ce843ca.
    const RECORDED: u64 = 13708578246439681252;
    let cell = |boxed| SuiteConfig {
        target_flows: 8,
        max_sim: SimDuration::from_secs(3),
        seed: 17,
        probe_interval: Some(SimDuration::from_millis(10)),
        boxed_dispatch: boxed,
        ..SuiteConfig::quick(Scheme::xmp(2), Pattern::Permutation)
    };
    let (rs, es, _) = run_suite_profiled(&cell(false));
    let (rb, eb, _) = run_suite_profiled(&cell(true));
    assert_eq!(es, eb, "event counts diverged across dispatch");
    assert_eq!(
        digest(&format!("{rs:?}")),
        RECORDED,
        "suite outcome moved off the recorded digest"
    );
    assert_eq!(
        digest(&format!("{rb:?}")),
        RECORDED,
        "suite outcome diverged across dispatch"
    );
}

#[test]
fn probe_records_match_one_for_one_across_dispatch() {
    // Beyond the digest: the probe streams have the same length and every
    // queue-sample record parses back identically from JSONL.
    let collect = |boxed: bool| -> Vec<String> {
        let mut sim: Sim<Segment, Host> = Sim::new(3);
        let mut qdisc = QdiscConfig::EcnThreshold { cap: 100, k: 10 };
        if boxed {
            qdisc = qdisc.boxed();
        }
        let db = Dumbbell::build(
            &mut sim,
            2,
            Bandwidth::from_gbps(1),
            SimDuration::from_micros(400),
            qdisc,
            |_| HostStack::new(StackConfig::default()),
        );
        sim.install_probes(
            ProbeConfig::every(SimDuration::from_millis(2))
                .until(SimTime::from_secs(5))
                .watch_queue(db.bottleneck, 0)
                .with_marks(),
        );
        let mut d = Driver::new();
        d.set_boxed_cc(boxed);
        for i in 0..2 {
            d.submit(FlowSpecBuilder {
                src_node: db.sources[i],
                subflows: vec![SubflowSpec {
                    local_port: PortId(0),
                    src: Dumbbell::src_addr(i),
                    dst: Dumbbell::dst_addr(i),
                }],
                size: 1_000_000,
                scheme: Scheme::xmp(1),
                start: SimTime::ZERO,
                category: None,
                tag: i as u64,
            });
        }
        d.run(&mut sim, SimTime::from_secs(5), |_, _, _| {});
        let probes = sim.take_probes().expect("probes were installed");
        probes
            .records()
            .iter()
            .map(|r| {
                let line = r.to_json();
                let back = ProbeRecord::parse(&line).expect("probe JSONL round-trips");
                assert_eq!(format!("{r:?}"), format!("{back:?}"));
                line
            })
            .collect()
    };
    let a = collect(false);
    let b = collect(true);
    assert!(!a.is_empty());
    assert_eq!(a, b, "probe streams diverged across dispatch");
}
