//! Integration tests of the multipath machinery: coupling, shifting,
//! subflow joins, and scheme coexistence.

use xmp_suite::prelude::*;
use xmp_suite::topo::testbed::{ShiftTestbed, TestbedConfig};

fn stack() -> Box<HostStack> {
    Box::new(HostStack::new(StackConfig::default()))
}

#[test]
fn trash_shifts_towards_the_empty_bottleneck() {
    // Flow 2 spans DN1 and DN2; a competitor saturates only DN1.
    let mut sim: Sim<Segment> = Sim::new(17);
    let cfg = TestbedConfig::default();
    let tb = ShiftTestbed::build(&mut sim, &cfg, |_| stack());
    let mut d = Driver::new();
    let mk = |node, subflows, n| FlowSpecBuilder {
        src_node: node,
        subflows,
        size: u64::MAX,
        scheme: Scheme::Xmp {
            beta: 4,
            subflows: n,
        },
        start: SimTime::ZERO,
        category: None,
        tag: 0,
    };
    let flow2 = d.submit(mk(
        tb.s[1],
        tb.flow2_paths().into_iter().map(path_spec).collect(),
        2,
    ));
    let _competitor = d.submit(mk(tb.bg_src[0], vec![path_spec(tb.bg_path(0))], 1));
    d.run(&mut sim, SimTime::from_secs(2), |_, _, _| {});
    let mut sampler = RateSampler::new();
    sampler.sample(&mut sim, &d, flow2, 0);
    sampler.sample(&mut sim, &d, flow2, 1);
    d.run(&mut sim, SimTime::from_secs(5), |_, _, _| {});
    let r_dn1 = sampler.sample(&mut sim, &d, flow2, 0);
    let r_dn2 = sampler.sample(&mut sim, &d, flow2, 1);
    // DN2 is private to Flow 2; DN1 is shared with the competitor. The
    // Congestion Equality Principle moves the bulk onto DN2.
    assert!(
        r_dn2 > 2.0 * r_dn1,
        "expected shift to the empty path: DN1={r_dn1} DN2={r_dn2}"
    );
    // And DN2 is essentially saturated by subflow 2.
    assert!(r_dn2 > 0.75 * cfg.bandwidth.as_bps() as f64, "DN2={r_dn2}");
}

#[test]
fn aggregate_throughput_exceeds_single_path_under_competition() {
    // The whole point of MPTCP in the paper: a 2-subflow XMP flow gets
    // more than a single-path flow would when one path is busy.
    let total_rate = |two_paths: bool| {
        let mut sim: Sim<Segment> = Sim::new(23);
        let cfg = TestbedConfig::default();
        let tb = ShiftTestbed::build(&mut sim, &cfg, |_| stack());
        let mut d = Driver::new();
        let paths = tb.flow2_paths();
        let subflows = if two_paths {
            paths.into_iter().map(path_spec).collect()
        } else {
            vec![path_spec(paths[0])]
        };
        let n = subflows.len();
        let flow = d.submit(FlowSpecBuilder {
            src_node: tb.s[1],
            subflows,
            size: u64::MAX,
            scheme: Scheme::Xmp {
                beta: 4,
                subflows: n,
            },
            start: SimTime::ZERO,
            category: None,
            tag: 0,
        });
        // Competitor on DN1 only.
        d.submit(FlowSpecBuilder {
            src_node: tb.bg_src[0],
            subflows: vec![path_spec(tb.bg_path(0))],
            size: u64::MAX,
            scheme: Scheme::xmp(1),
            start: SimTime::ZERO,
            category: None,
            tag: 1,
        });
        d.run(&mut sim, SimTime::from_secs(2), |_, _, _| {});
        let mut s = RateSampler::new();
        for r in 0..n {
            s.sample(&mut sim, &d, flow, r);
        }
        d.run(&mut sim, SimTime::from_secs(4), |_, _, _| {});
        (0..n).map(|r| s.sample(&mut sim, &d, flow, r)).sum::<f64>()
    };
    let single = total_rate(false);
    let multi = total_rate(true);
    assert!(
        multi > 1.5 * single,
        "multipath {multi} should far exceed single-path {single}"
    );
}

#[test]
fn joined_subflow_carries_traffic() {
    let mut sim: Sim<Segment> = Sim::new(29);
    let cfg = TestbedConfig::default();
    let tb = ShiftTestbed::build(&mut sim, &cfg, |_| stack());
    let mut d = Driver::new();
    let paths = tb.flow2_paths();
    // Start with one subflow on DN1 only.
    let flow = d.submit(FlowSpecBuilder {
        src_node: tb.s[1],
        subflows: vec![path_spec(paths[0])],
        size: u64::MAX,
        scheme: Scheme::xmp(1),
        start: SimTime::ZERO,
        category: None,
        tag: 0,
    });
    d.run(&mut sim, SimTime::from_secs(1), |_, _, _| {});
    // Join the DN2 subflow mid-flight.
    d.add_subflow(&mut sim, flow, path_spec(paths[1]));
    d.run(&mut sim, SimTime::from_secs(3), |_, _, _| {});
    let acked0 = d.subflow_acked(&mut sim, flow, 0);
    let acked1 = d.subflow_acked(&mut sim, flow, 1);
    assert!(acked1 > 10_000_000, "joined subflow moved data: {acked1}");
    assert!(
        acked0 > 10_000_000,
        "original subflow still alive: {acked0}"
    );
}

#[test]
fn xmp_and_dctcp_coexist_productively_on_one_queue() {
    // Note: the paper's Table 2 parity (485 : 485) is measured across a
    // fat tree where XMP can shift load between paths. On a *single*
    // shared queue the algorithms are asymmetric — DCTCP's proportional
    // cut (alpha/2) concedes less than XMP's fixed 1/beta whenever the
    // queue hovers at K — so the defensible single-bottleneck claims are:
    // no starvation, no losses, full utilization.
    let mut sim: Sim<Segment> = Sim::new(31);
    let db = Dumbbell::build(
        &mut sim,
        2,
        Bandwidth::from_mbps(300),
        SimDuration::from_micros(1800),
        QdiscConfig::EcnThreshold { cap: 100, k: 15 },
        |_| stack(),
    );
    let mut d = Driver::new();
    let flow = |i: usize, scheme| FlowSpecBuilder {
        src_node: db.sources[i],
        subflows: vec![SubflowSpec {
            local_port: PortId(0),
            src: Dumbbell::src_addr(i),
            dst: Dumbbell::dst_addr(i),
        }],
        size: u64::MAX,
        scheme,
        start: SimTime::ZERO,
        category: None,
        tag: 0,
    };
    let cx = d.submit(flow(0, Scheme::xmp(1)));
    let cd = d.submit(flow(1, Scheme::Dctcp));
    d.run(&mut sim, SimTime::from_secs(2), |_, _, _| {});
    let mut s = RateSampler::new();
    s.sample(&mut sim, &d, cx, 0);
    s.sample(&mut sim, &d, cd, 0);
    d.run(&mut sim, SimTime::from_secs(6), |_, _, _| {});
    let rx = s.sample(&mut sim, &d, cx, 0);
    let rd = s.sample(&mut sim, &d, cd, 0);
    assert!(rx > 0.05 * 300e6, "XMP starved: {rx}");
    assert!(rd > 0.05 * 300e6, "DCTCP starved: {rd}");
    assert!(rx + rd > 0.8 * 300e6, "link underused: {}", rx + rd);
    assert_eq!(
        sim.link(db.bottleneck).dir(0).stats.dropped,
        0,
        "two ECN schemes must not overflow the queue"
    );
}

#[test]
fn lia_and_xmp_complete_multipath_transfers_exactly() {
    for scheme in [Scheme::lia(2), Scheme::xmp(2)] {
        let mut sim: Sim<Segment> = Sim::new(37);
        let cfg = TestbedConfig::default();
        let tb = ShiftTestbed::build(&mut sim, &cfg, |_| stack());
        let mut d = Driver::new();
        let size = 7_777_777u64;
        let c = d.submit(FlowSpecBuilder {
            src_node: tb.s[1],
            subflows: tb.flow2_paths().into_iter().map(path_spec).collect(),
            size,
            scheme,
            start: SimTime::ZERO,
            category: None,
            tag: 0,
        });
        d.run(&mut sim, SimTime::from_secs(20), |_, _, _| {});
        let rec = d.record(c).unwrap();
        assert!(rec.completed.is_some(), "{} did not finish", scheme.label());
        let delivered = sim.with_agent::<HostStack, _>(tb.d[1], |st, _| {
            st.receiver(c).map(|r| r.delivered()).unwrap_or(0)
        });
        assert_eq!(delivered, size, "{}", scheme.label());
    }
}
