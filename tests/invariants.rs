//! Seeded cross-crate invariants: each test drives a whole simulation per
//! case from a `SimRng`-derived parameter draw, 24 cases each (one case is
//! an entire sim, so the counts mirror the old property-test budget). On
//! failure the seed is printed — rerun with that seed to reproduce.

use xmp_suite::prelude::*;

fn stack() -> Box<HostStack> {
    Box::new(HostStack::new(StackConfig::default()))
}

/// Any transfer size over a lossy link completes exactly, for every
/// scheme (the reassembly + retransmission machinery is watertight).
#[test]
fn lossy_transfers_are_exact_seeded() {
    for seed in 0..24u64 {
        let mut rng = SimRng::new(seed);
        let size = 1 + rng.uniform_u64(0, 1_999_998);
        let drop_pct = rng.index(8) as u32;
        let scheme = [Scheme::Tcp, Scheme::Dctcp, Scheme::xmp(1), Scheme::lia(1)][rng.index(4)];
        let mut sim: Sim<Segment> = Sim::new(seed);
        let db = Dumbbell::build(
            &mut sim,
            1,
            Bandwidth::from_gbps(1),
            SimDuration::from_micros(400),
            QdiscConfig::EcnThreshold { cap: 100, k: 10 },
            |_| stack(),
        );
        sim.set_link_drop_prob(db.bottleneck, f64::from(drop_pct) / 100.0);
        let mut d = Driver::new();
        let c = d.submit(FlowSpecBuilder {
            src_node: db.sources[0],
            subflows: vec![SubflowSpec {
                local_port: PortId(0),
                src: Dumbbell::src_addr(0),
                dst: Dumbbell::dst_addr(0),
            }],
            size,
            scheme,
            start: SimTime::ZERO,
            category: None,
            tag: 0,
        });
        d.run(&mut sim, SimTime::from_secs(120), |_, _, _| {});
        let rec = d.record(c).unwrap();
        assert!(
            rec.completed.is_some(),
            "seed {seed}: size={size} drop={drop_pct}% scheme={} never completed",
            scheme.label()
        );
        let delivered = sim.with_agent::<HostStack, _>(db.sinks[0], |st, _| {
            st.receiver(c).map(|r| r.delivered()).unwrap_or(0)
        });
        assert_eq!(delivered, size, "seed {seed}: bytes delivered");
    }
}

/// Multipath transfers across the fat tree deliver exactly, for any
/// (src, dst, subflow-count) combination.
#[test]
fn fat_tree_multipath_exact_seeded() {
    for seed in 0..24u64 {
        let mut rng = SimRng::new(seed);
        let src = rng.index(16);
        let dst = rng.index(16);
        if src == dst {
            continue;
        }
        let n_subflows = 1 + rng.index(3);
        let mut sim: Sim<Segment> = Sim::new(seed);
        let cfg = FatTreeConfig {
            k: 4,
            ..FatTreeConfig::paper(QdiscConfig::EcnThreshold { cap: 100, k: 10 })
        };
        let ft = FatTree::build(&mut sim, &cfg, |_| stack());
        let subflows =
            xmp_suite::workloads::patterns::fat_tree_subflows(&ft, src, dst, n_subflows, &mut rng);
        let size = 500_000u64 + seed * 1000;
        let mut d = Driver::new();
        let c = d.submit(FlowSpecBuilder {
            src_node: ft.host(src),
            subflows,
            size,
            scheme: Scheme::Xmp {
                beta: 4,
                subflows: n_subflows,
            },
            start: SimTime::ZERO,
            category: Some(ft.category(src, dst)),
            tag: 0,
        });
        d.run(&mut sim, SimTime::from_secs(30), |_, _, _| {});
        assert!(
            d.record(c).unwrap().completed.is_some(),
            "seed {seed}: {src}->{dst} x{n_subflows} never completed"
        );
        let delivered = sim.with_agent::<HostStack, _>(ft.host(dst), |st, _| {
            st.receiver(c).map(|r| r.delivered()).unwrap_or(0)
        });
        assert_eq!(delivered, size, "seed {seed}: bytes delivered");
    }
}

/// Network-wide packet conservation: for every link direction,
/// enqueued = delivered + still queued or serializing.
#[test]
fn link_packet_conservation_seeded() {
    for seed in 0..24u64 {
        let mut rng = SimRng::new(seed);
        let drop_pct = rng.index(20) as u32;
        let mut sim: Sim<Segment> = Sim::new(seed);
        let db = Dumbbell::build(
            &mut sim,
            2,
            Bandwidth::from_mbps(100),
            SimDuration::from_micros(400),
            QdiscConfig::DropTail { cap: 20 },
            |_| stack(),
        );
        sim.set_link_drop_prob(db.bottleneck, f64::from(drop_pct) / 100.0);
        let mut d = Driver::new();
        for i in 0..2 {
            d.submit(FlowSpecBuilder {
                src_node: db.sources[i],
                subflows: vec![SubflowSpec {
                    local_port: PortId(0),
                    src: Dumbbell::src_addr(i),
                    dst: Dumbbell::dst_addr(i),
                }],
                size: 300_000,
                scheme: Scheme::Tcp,
                start: SimTime::ZERO,
                category: None,
                tag: 0,
            });
        }
        d.run(&mut sim, SimTime::from_millis(200), |_, _, _| {});
        for (_, link) in sim.links() {
            for dir in &link.dirs {
                let s = &dir.stats;
                let resident = dir.backlog() as u64;
                assert_eq!(
                    s.enqueued,
                    s.delivered + resident,
                    "seed {seed}: enqueued {} != delivered {} + resident {}",
                    s.enqueued,
                    s.delivered,
                    resident
                );
            }
        }
    }
}

/// Determinism holds across every scheme: running twice with the same
/// seed yields identical completion times.
#[test]
fn determinism_all_schemes_seeded() {
    for seed in 0..24u64 {
        let mut rng = SimRng::new(seed);
        let scheme = [
            Scheme::Tcp,
            Scheme::Dctcp,
            Scheme::xmp(1),
            Scheme::xmp(2),
            Scheme::lia(2),
            Scheme::Olia { subflows: 2 },
        ][rng.index(6)];
        let run = || {
            let mut sim: Sim<Segment> = Sim::new(seed);
            let db = Dumbbell::build(
                &mut sim,
                1,
                Bandwidth::from_mbps(500),
                SimDuration::from_micros(400),
                QdiscConfig::EcnThreshold { cap: 100, k: 10 },
                |_| stack(),
            );
            let mut d = Driver::new();
            let specs = vec![
                SubflowSpec {
                    local_port: PortId(0),
                    src: Dumbbell::src_addr(0),
                    dst: Dumbbell::dst_addr(0),
                };
                scheme.subflow_count()
            ];
            let c = d.submit(FlowSpecBuilder {
                src_node: db.sources[0],
                subflows: specs,
                size: 777_777,
                scheme,
                start: SimTime::ZERO,
                category: None,
                tag: 0,
            });
            d.run(&mut sim, SimTime::from_secs(20), |_, _, _| {});
            d.record(c).unwrap().completed.map(|t| t.as_nanos())
        };
        let a = run();
        assert!(
            a.is_some(),
            "seed {seed}: {} never completed",
            scheme.label()
        );
        assert_eq!(a, run(), "seed {seed}: {} nondeterministic", scheme.label());
    }
}
