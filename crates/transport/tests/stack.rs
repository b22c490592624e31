//! HostStack behaviour over a real simulated link: demultiplexing,
//! connection lifecycle, timer hygiene, and ECN end-to-end semantics.

use std::collections::HashSet;
use xmp_core::Xmp;
use xmp_des::{Bandwidth, SimDuration, SimTime};
use xmp_netsim::routing::StaticRouter;
use xmp_netsim::{Addr, LinkParams, NodeId, PortId, QdiscConfig, Sim};
use xmp_transport::{Acked, Dctcp, HostStack, Lia, Reno, Segment, StackConfig, SubflowSpec};

const A: Addr = Addr::new(10, 0, 0, 1);
const B: Addr = Addr::new(10, 0, 0, 2);

/// Boxed-controller stack (the `HostStack` default) — this file pins the
/// dynamic-dispatch escape hatch end to end.
fn host() -> Box<HostStack> {
    Box::new(HostStack::new(StackConfig::default()))
}

fn pair(queue: QdiscConfig) -> (Sim<Segment>, NodeId, NodeId) {
    let mut sim: Sim<Segment> = Sim::new(1);
    let a = sim.add_host("a", host());
    let b = sim.add_host("b", host());
    let sw = sim.add_switch("sw", Box::new(StaticRouter::new()));
    let params = LinkParams::new(
        Bandwidth::from_mbps(100),
        SimDuration::from_micros(100),
        queue,
    );
    sim.connect(a, sw, &params, "a-sw");
    sim.connect(b, sw, &params, "b-sw");
    sim.set_router(
        sw,
        Box::new(StaticRouter::new().to(A, PortId(0)).to(B, PortId(1))),
    );
    sim.bind_addr(A, a);
    sim.bind_addr(B, b);
    (sim, a, b)
}

fn spec() -> SubflowSpec {
    SubflowSpec {
        local_port: PortId(0),
        src: A,
        dst: B,
    }
}

#[test]
fn many_concurrent_connections_demux_cleanly() {
    let (mut sim, a, b) = pair(QdiscConfig::DropTail { cap: 1000 });
    let sizes: Vec<u64> = (1..=12).map(|i| i * 13_337).collect();
    sim.with_agent::<HostStack, _>(a, |st, ctx| {
        for (i, &size) in sizes.iter().enumerate() {
            st.open(
                ctx,
                100 + i as u64,
                vec![spec()],
                size,
                Box::new(Reno::new()),
            );
        }
    });
    let mut completed: HashSet<u64> = HashSet::new();
    sim.run_until(SimTime::from_secs(30), |_, _, conn| {
        assert!(completed.insert(conn), "duplicate completion for {conn}");
    });
    assert_eq!(completed.len(), sizes.len());
    // Every receiver got exactly its bytes.
    sim.with_agent::<HostStack, _>(b, |st, _| {
        for (i, &size) in sizes.iter().enumerate() {
            assert_eq!(st.receiver(100 + i as u64).unwrap().delivered(), size);
        }
    });
    // Sender-side stats agree.
    sim.with_agent::<HostStack, _>(a, |st, _| {
        for (i, &size) in sizes.iter().enumerate() {
            let stats = st.sender(100 + i as u64).unwrap().stats();
            assert_eq!(stats.bytes_acked, size);
            assert!(stats.completed.is_some());
        }
    });
}

#[test]
fn opposite_direction_connections_coexist() {
    let (mut sim, a, b) = pair(QdiscConfig::DropTail { cap: 1000 });
    sim.with_agent::<HostStack, _>(a, |st, ctx| {
        st.open(ctx, 1, vec![spec()], 50_000, Box::new(Reno::new()));
    });
    sim.with_agent::<HostStack, _>(b, |st, ctx| {
        st.open(
            ctx,
            2,
            vec![SubflowSpec {
                local_port: PortId(0),
                src: B,
                dst: A,
            }],
            70_000,
            Box::new(Dctcp::new()),
        );
    });
    let mut done = Vec::new();
    sim.run_until(SimTime::from_secs(10), |_, _, conn| done.push(conn));
    done.sort_unstable();
    assert_eq!(done, vec![1, 2]);
    sim.with_agent::<HostStack, _>(a, |st, _| {
        assert_eq!(st.receiver(2).unwrap().delivered(), 70_000);
        assert_eq!(st.conn_stats(1).unwrap().bytes_acked, 50_000);
        assert_eq!(st.conn_count(), 2);
    });
}

#[test]
#[should_panic(expected = "already exists")]
fn duplicate_open_panics() {
    let (mut sim, a, _) = pair(QdiscConfig::DropTail { cap: 100 });
    sim.with_agent::<HostStack, _>(a, |st, ctx| {
        st.open(ctx, 1, vec![spec()], 1000, Box::new(Reno::new()));
        st.open(ctx, 1, vec![spec()], 1000, Box::new(Reno::new()));
    });
}

#[test]
fn close_quiesces_the_network() {
    let (mut sim, a, _b) = pair(QdiscConfig::EcnThreshold { cap: 100, k: 10 });
    sim.with_agent::<HostStack, _>(a, |st, ctx| {
        st.open(ctx, 1, vec![spec()], u64::MAX, Box::new(Xmp::new(4)));
    });
    sim.run_until_quiet(SimTime::from_millis(500));
    sim.with_agent::<HostStack, _>(a, |st, ctx| {
        st.close(ctx, 1);
        assert_eq!(st.conn_count(), 0);
    });
    // After in-flight traffic drains and every lazily-cancelled timer has
    // expired (stale RTO entries fire — ignored — up to RTOmin after the
    // close), the event count must go flat.
    sim.run_until_quiet(SimTime::from_millis(750));
    let events_then = sim.events_processed();
    sim.run_until_quiet(SimTime::from_secs(5));
    assert_eq!(
        sim.events_processed(),
        events_then,
        "closed connection kept generating events"
    );
}

/// Retiring a completed sender removes it and hands the caller the stats
/// it reported just before; its host keeps only its acknowledged byte
/// count, and the rest of the run is exactly as it was: same events, same
/// other flow.
#[test]
fn retire_keeps_stats_and_changes_nothing_else() {
    let run = |retire: bool| {
        let (mut sim, a, _b) = pair(QdiscConfig::EcnThreshold { cap: 100, k: 10 });
        sim.with_agent::<HostStack, _>(a, |st, ctx| {
            st.open(ctx, 1, vec![spec()], 50_000, Box::new(Dctcp::new()));
            st.open(ctx, 2, vec![spec()], 400_000, Box::new(Dctcp::new()));
            // A running sender and an unknown key are not retired.
            assert!(st.retire(2).is_none() && st.retire(3).is_none());
            assert!(st.sender(2).is_some());
        });
        let mut handed = None;
        sim.run_until(SimTime::from_secs(10), |sim, node, conn| {
            if retire && conn == 1 {
                sim.with_agent::<HostStack, _>(node, |st, _| {
                    let before = st
                        .sender(1)
                        .expect("completed, not retired")
                        .stats()
                        .clone();
                    let stats = st.retire(1).expect("a completed sender retires");
                    assert_eq!(stats, before);
                    assert!(st.sender(1).is_none() && st.retire(1).is_none());
                    assert_eq!(
                        st.conn_stats(1),
                        Some(Acked {
                            bytes_acked: 50_000
                        })
                    );
                    handed = Some(stats);
                });
            }
        });
        let stats = sim.with_agent::<HostStack, _>(a, |st, _| {
            assert_eq!(st.sender(1).is_none(), retire);
            assert_eq!(st.conn_count(), if retire { 1 } else { 2 });
            let first = handed.unwrap_or_else(|| st.sender(1).expect("kept").stats().clone());
            let second = st.sender(2).expect("never retired").stats().clone();
            [first, second].map(|s| (s.bytes_acked, s.completed, s.rtos, s.fast_retransmits))
        });
        (stats, sim.events_processed(), sim.now())
    };
    let kept = run(false);
    assert_eq!(kept.0[0].0, 50_000);
    assert_eq!(kept.0[1].0, 400_000);
    assert_eq!(run(true), kept);
}

#[test]
fn ecn_capable_schemes_mark_ect_and_reno_does_not() {
    for ecn_expected in [true, false] {
        let (mut sim, a, _b) = pair(QdiscConfig::EcnThreshold { cap: 100, k: 0 });
        sim.with_agent::<HostStack, _>(a, |st, ctx| {
            let cc: Box<dyn xmp_transport::CongestionControl> = if ecn_expected {
                Box::new(Xmp::new(4))
            } else {
                Box::new(Lia::new())
            };
            st.open(ctx, 1, vec![spec()], 300_000, cc);
        });
        sim.run_until_quiet(SimTime::from_secs(30));
        // With K = 0 every ECT packet gets marked; count marks on a's
        // uplink (link 0, direction 0).
        let marked = sim
            .links()
            .map(|(_, l)| l.dirs[0].stats.marked + l.dirs[1].stats.marked)
            .sum::<u64>();
        if ecn_expected {
            assert!(marked > 0, "XMP data packets must be ECT (markable)");
        } else {
            assert_eq!(marked, 0, "LIA packets must not be ECT");
        }
    }
}

#[test]
fn stale_timers_after_completion_are_harmless() {
    let (mut sim, a, _b) = pair(QdiscConfig::DropTail { cap: 100 });
    sim.with_agent::<HostStack, _>(a, |st, ctx| {
        st.open(ctx, 1, vec![spec()], 5_000, Box::new(Reno::new()));
    });
    let mut completions = 0;
    sim.run_until(SimTime::from_secs(60), |_, _, _| completions += 1);
    assert_eq!(completions, 1);
    // Nothing pending: the sim is quiet long before the 60 s horizon.
    assert!(sim.now() < SimTime::from_secs(2));
}
