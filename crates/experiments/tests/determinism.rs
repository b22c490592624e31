//! The probe layer's determinism contract, at the experiment level:
//!
//! 1. **Observation never perturbs** — a probed run's simulated clock, flow
//!    outcomes and conservation audit are bit-identical to the unprobed
//!    run (only the engine event count differs, by exactly the sampling
//!    ticks).
//! 2. **Disabled means absent** — installing probes with a zero horizon
//!    schedules nothing and the run is fully identical, event count
//!    included, to one where `install_probes` was never called.
//! 3. **Exports are stable** — the `dynamics` JSONL export's records, and
//!    every digest of a faulted, probed fat-tree cell, equal the values
//!    recorded from the two-event (`TxDone` + `Deliver`) link pipeline at
//!    commit ce843ca, the last one that had it (there they were identical
//!    across the eager/lazy × dynamic/compiled matrix; the sampled queue
//!    depth counts queued + serializing packets after every departure at
//!    or before the tick).

use xmp_des::{Bandwidth, SimDuration, SimTime};
use xmp_experiments::runner::{self, PAPER_RUNS};
use xmp_netsim::{FaultPlan, PortId, ProbeConfig, ProbeRecord, QdiscConfig, Sim};
use xmp_topo::Dumbbell;
use xmp_transport::{HostStack, Segment, StackConfig, SubflowSpec};
use xmp_workloads::{Driver, FlowSpecBuilder, Host, Scheme};

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

enum Probing {
    None,
    ZeroHorizon,
    Full,
}

/// A faulted dumbbell run (two bounded DCTCP+XMP flows through a transient
/// bottleneck outage); returns (final clock, flow records digest, audit
/// digest, events processed, probe records).
fn faulted_run(probing: Probing) -> (u64, String, String, u64, usize) {
    let mut sim: Sim<Segment, Host> = Sim::new(11);
    let db = Dumbbell::build(
        &mut sim,
        2,
        Bandwidth::from_gbps(1),
        SimDuration::from_micros(225),
        QdiscConfig::EcnThreshold { cap: 100, k: 10 },
        |_| HostStack::new(StackConfig::default()),
    );
    sim.install_fault_plan(
        &FaultPlan::new()
            .link_down(SimTime::from_millis(30), db.bottleneck)
            .link_up(SimTime::from_millis(35), db.bottleneck),
    );
    let end = SimTime::from_millis(100);
    match probing {
        Probing::None => {}
        Probing::ZeroHorizon => {
            sim.install_probes(ProbeConfig::every(SimDuration::from_millis(1)));
        }
        Probing::Full => sim.install_probes(
            ProbeConfig::every(SimDuration::from_millis(1))
                .until(end)
                .watch_queue(db.bottleneck, 0)
                .with_marks(),
        ),
    }

    let mut driver = Driver::new();
    for (i, scheme) in [(0usize, Scheme::xmp(2)), (1usize, Scheme::Dctcp)] {
        driver.submit(FlowSpecBuilder {
            src_node: db.sources[i],
            subflows: (0..scheme.subflow_count())
                .map(|_| SubflowSpec {
                    local_port: PortId(0),
                    src: Dumbbell::src_addr(i),
                    dst: Dumbbell::dst_addr(i),
                })
                .collect(),
            size: 2_000_000,
            scheme,
            start: SimTime::ZERO,
            category: None,
            tag: i as u64,
        });
    }
    driver.run(&mut sim, end, |_, _, _| {});
    driver.finalize_running(&mut sim);
    let audit = format!("{:?}", sim.audit_conservation());
    let flows = format!("{:?}", driver.records().collect::<Vec<_>>());
    let probe_records = sim.take_probes().map_or(0, |p| p.len());
    (
        sim.now().as_nanos(),
        flows,
        audit,
        sim.events_processed(),
        probe_records,
    )
}

#[test]
fn probes_observe_without_perturbing() {
    let off = faulted_run(Probing::None);
    let on = faulted_run(Probing::Full);
    assert_eq!(off.0, on.0, "clock diverged under probes");
    assert_eq!(off.1, on.1, "flow outcomes diverged");
    assert_eq!(off.2, on.2, "audit diverged");
    // The only difference is the sampling ticks themselves.
    assert!(on.3 > off.3, "probed run handled no extra events");
    assert!(on.4 > 0, "probed run recorded nothing");
    assert_eq!(off.4, 0);
}

#[test]
fn zero_horizon_probes_are_fully_absent() {
    let never = faulted_run(Probing::None);
    let zero = faulted_run(Probing::ZeroHorizon);
    // Bit-identical *including* the event count: a zero sampling horizon
    // schedules no event at all, the FaultPlan install discipline.
    assert_eq!(never.0, zero.0);
    assert_eq!(never.1, zero.1);
    assert_eq!(never.2, zero.2);
    assert_eq!(never.3, zero.3, "zero-horizon probes scheduled events");
    assert_eq!(zero.4, 0);
}

/// `dynamics.scn` at `--quick`, cut to 60 epochs, at seed 1: the records
/// after each export's meta line are the series `dynamics` exported when
/// it built its run by hand. The meta line's note now names the file's
/// topology, qdisc and epoch grid, so only its run, variant and seed are
/// pinned.
#[test]
fn dynamics_export_matches_the_recorded_series() {
    let text = PAPER_RUNS
        .iter()
        .find(|r| r.0 == "dynamics")
        .expect("built in");
    let mut sc = runner::load(text.1).expect("dynamics.scn loads").quick();
    (sc.paper.epochs, sc.seed) = (60, 1);
    let r = runner::run("dynamics", &sc).expect("the run builds");
    let mut digests = Vec::new();
    for (scheme, (_, export)) in ["XMP-2", "DCTCP"].into_iter().zip(r.exports()) {
        let jsonl = export.to_string();
        let (meta, records) = jsonl.split_once('\n').expect("a meta line");
        let Ok(ProbeRecord::Meta {
            experiment,
            scheme: variant,
            seed,
            ..
        }) = ProbeRecord::parse(meta)
        else {
            panic!("{scheme}: the first line is no meta line: {meta}");
        };
        let run = (experiment.as_str(), variant.as_str(), seed);
        assert_eq!(run, ("dynamics", scheme, 1), "{meta}");
        digests.push(digest(records));
    }
    assert_eq!(
        digests,
        [10347470197286024210, 12476746191656629493],
        "exported dynamics series moved off the recorded digests"
    );
}

/// A faulted, probed k = 4 fat-tree cell with pre-submitted cross-pod
/// XMP-2 + DCTCP flows; returns every digest an observer could take
/// (final clock, flow records, audit, probe records, per-kind event
/// counts).
fn faulted_fat_tree_run() -> (u64, u64, u64, u64, (u64, u64)) {
    use xmp_topo::{FatTree, FatTreeConfig};
    use xmp_transport::{HostStack, StackConfig};

    let mut sim: Sim<Segment, Host> = Sim::new(7);
    let ft_cfg = FatTreeConfig {
        k: 4,
        ..FatTreeConfig::paper(QdiscConfig::EcnThreshold { cap: 100, k: 10 })
    };
    let stack_cfg = StackConfig::default().with_rto_min(SimDuration::from_millis(200));
    let ft = FatTree::build(&mut sim, &ft_cfg, |_| HostStack::new(stack_cfg.clone()));
    let end = SimTime::from_millis(50);

    // Faults and probes both live on a core link.
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

    // Cross-pod flows from every pod, alternating schemes.
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

    let audit = format!("{:?}", sim.audit_conservation());
    let flows = format!("{:?}", driver.records().collect::<Vec<_>>());
    let probes = format!(
        "{:?}",
        sim.take_probes().expect("probes installed").records()
    );
    let p = sim.profile();
    (
        sim.now().as_nanos(),
        digest(&flows),
        digest(&audit),
        digest(&probes),
        (p.deliver, p.timer),
    )
}

#[test]
fn faulted_fat_tree_matches_the_recorded_outcome() {
    // Flow records, conservation audit, probe time series and the
    // `deliver`/`timer` counts, with a core link flapping and probes
    // watching it.
    const RECORDED: (u64, u64, u64, u64, (u64, u64)) = (
        50_000_000,
        3888203045864119240,
        10959287182318448018,
        7161440994302411008,
        (30216, 24),
    );
    assert_eq!(faulted_fat_tree_run(), RECORDED);
}
