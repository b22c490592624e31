//! One faulted, probed k = 4 fat-tree scenario held to a recorded
//! outcome: clock, per-flow records, conservation audit and probe JSONL
//! must equal what the two-event link pipeline (`TxDone` + `Deliver`)
//! produced on this scenario before it was removed — with a core link
//! flapping and marked probes sampling it.

use xmp_suite::netsim::ProbeConfig;
use xmp_suite::prelude::*;

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

/// `(final clock, flow digest, audit digest, probe JSONL digest)` of
/// [`faulted_probed_fat_tree`], recorded from the two-event link pipeline
/// at commit ce843ca (identical there with the dynamic router or compiled
/// FIBs).
const RECORDED: (u64, u64, u64, u64) = (
    50_000_000,
    15187593173212376555,
    10959287182318448018,
    4456757872889467366,
);

/// One faulted, probed k = 4 fat-tree scenario: cross-pod XMP-2 and DCTCP
/// flows from every host, a core link flapping down/up mid-run, marked
/// probes watching both its directions. Returns (final clock, flow digest,
/// audit digest, probe JSONL digest).
fn faulted_probed_fat_tree() -> (u64, u64, u64, u64) {
    let mut sim: Sim<Segment, HostStack> = Sim::new(9);
    let ft_cfg = FatTreeConfig {
        k: 4,
        ..FatTreeConfig::paper(QdiscConfig::EcnThreshold { cap: 100, k: 10 })
    };
    let stack_cfg = StackConfig::default().with_rto_min(SimDuration::from_millis(200));
    let ft = FatTree::build(&mut sim, &ft_cfg, |_| HostStack::new(stack_cfg.clone()));
    let end = SimTime::from_millis(50);

    // Fault and probes live on a core link.
    let watched = ft.core_link(0, 0, 0);
    sim.install_fault_plan(
        &FaultPlan::new()
            .link_down(SimTime::from_millis(15), watched)
            .link_up(SimTime::from_millis(25), watched),
    );
    sim.install_probes(
        ProbeConfig::every(SimDuration::from_millis(1))
            .until(end)
            .watch_queue(watched, 0)
            .watch_queue(watched, 1)
            .with_marks(),
    );

    let mut driver = Driver::new();
    let n = ft.hosts.len();
    for i in 0..n {
        let dst = (i + n / 2) % n;
        let scheme = if i % 2 == 0 {
            Scheme::xmp(2)
        } else {
            Scheme::Dctcp
        };
        let tags: Vec<usize> = match scheme.subflow_count() {
            1 => vec![0],
            _ => vec![0, ft.tag_count() - 1],
        };
        driver.submit(FlowSpecBuilder {
            src_node: ft.host(i),
            subflows: tags
                .iter()
                .map(|&t| SubflowSpec {
                    local_port: PortId(0),
                    src: ft.host_addr(i, t),
                    dst: ft.host_addr(dst, t),
                })
                .collect(),
            size: 300_000,
            scheme,
            start: SimTime::ZERO + SimDuration::from_micros(i as u64),
            category: Some(ft.category(i, dst)),
            tag: i as u64,
        });
    }

    let slice = SimDuration::from_millis(5);
    while sim.now() < end {
        let t = (sim.now() + slice).min(end);
        driver.run(&mut sim, t, |_, _, _| {});
    }
    driver.finalize_running(&mut sim);

    let flows: Vec<String> = driver
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
fn serial_run_matches_the_recorded_outcome() {
    assert_eq!(faulted_probed_fat_tree(), RECORDED);
}
