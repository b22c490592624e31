//! The paper's physical testbed, as logical topologies (Fig. 3).
//!
//! The real testbed was a set of CentOS hosts behind FreeBSD/DummyNet
//! bridges that shaped 300 Mbps bottlenecks, marked packets at K = 15 with
//! a 100-packet queue, and gave an average RTT of ≈1.8 ms (BDP ≈ 45
//! packets). A DummyNet box is a rate limiter + marker, which is exactly a
//! bottleneck [`link`](xmp_netsim::link::Link) with an
//! [`EcnThreshold`](xmp_netsim::queue::EcnThreshold) queue, so the logical
//! topologies reproduce the testbed's behaviour directly.
//!
//! * [`ShiftTestbed`] — Fig. 3a: Flow 1 (via DN1), Flow 3 (via DN2), Flow 2
//!   with one subflow through each, plus background-flow host pairs on both
//!   bottlenecks. Drives the Fig. 4 traffic-shifting experiment.
//! * Fig. 3b — four flows with 3/2/1/1 subflows share one bottleneck — is
//!   a 4-pair [`Dumbbell`](crate::Dumbbell) with [`TestbedConfig`]'s bandwidth, RTT and
//!   [`TestbedConfig::bottleneck_queue`]. It drives the Fig. 6 fairness
//!   experiment.

use xmp_des::{Bandwidth, SimDuration};
use xmp_netsim::network::Payload;
use xmp_netsim::routing::{AddrPattern, StaticRouter};
use xmp_netsim::{Addr, Agent, LinkId, LinkParams, NodeId, PortId, QdiscConfig, Sim};

/// One end-to-end path a subflow can bind to: the local port it leaves by
/// and the (src, dst) addresses that pin its route.
#[derive(Clone, Copy, Debug)]
pub struct Path {
    /// Local port on the source host.
    pub port: PortId,
    /// Source address for this path.
    pub src: Addr,
    /// Destination address for this path.
    pub dst: Addr,
}

/// Shared parameters of the testbed topologies.
#[derive(Clone, Debug)]
pub struct TestbedConfig {
    /// Bottleneck bandwidth (paper: 300 Mbps).
    pub bandwidth: Bandwidth,
    /// No-load round-trip time (paper: ≈1.8 ms).
    pub rtt: SimDuration,
    /// Marking threshold K (paper: 15).
    pub k: usize,
    /// Bottleneck queue capacity (paper: 100 packets).
    pub queue_cap: usize,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            bandwidth: Bandwidth::from_mbps(300),
            rtt: SimDuration::from_micros(1800),
            k: 15,
            queue_cap: 100,
        }
    }
}

impl TestbedConfig {
    /// The DummyNet bottleneck's queue: `queue_cap` packets, marking at
    /// `k`.
    pub fn bottleneck_queue(&self) -> QdiscConfig {
        QdiscConfig::EcnThreshold {
            cap: self.queue_cap,
            k: self.k,
        }
    }
}

/// Fig. 3a — the traffic-shifting testbed.
#[derive(Debug)]
pub struct ShiftTestbed {
    /// Sources S1..S3 (S2 is the two-subflow MPTCP sender).
    pub s: [NodeId; 3],
    /// Destinations D1..D3.
    pub d: [NodeId; 3],
    /// Background sources on DN1 and DN2.
    pub bg_src: [NodeId; 2],
    /// Background destinations.
    pub bg_dst: [NodeId; 2],
    /// The bottlenecks DN1, DN2 (direction 0 = left→right).
    pub dn: [LinkId; 2],
}

impl ShiftTestbed {
    /// Build the topology. `host_factory(i)` is called once per host
    /// (10 hosts, in the order S1,D1,S3,D3,S2,D2,B1s,B1d,B2s,B2d).
    pub fn build<P: Payload, A: Agent<P>>(
        sim: &mut Sim<P, A>,
        cfg: &TestbedConfig,
        mut host_factory: impl FnMut(usize) -> A,
    ) -> ShiftTestbed {
        let access = LinkParams::new(
            Bandwidth::from_gbps(1),
            cfg.rtt / 8,
            QdiscConfig::DropTail { cap: 10_000 },
        );
        let bneck = LinkParams::new(cfg.bandwidth, cfg.rtt / 4, cfg.bottleneck_queue());

        // Switch pairs for the two DummyNet bottlenecks.
        let swl = [
            sim.add_switch("SwL1", Box::new(StaticRouter::new())),
            sim.add_switch("SwL2", Box::new(StaticRouter::new())),
        ];
        let swr = [
            sim.add_switch("SwR1", Box::new(StaticRouter::new())),
            sim.add_switch("SwR2", Box::new(StaticRouter::new())),
        ];
        let dn = [
            sim.connect(swl[0], swr[0], &bneck, "DN1"),
            sim.connect(swl[1], swr[1], &bneck, "DN2"),
        ];

        let mut idx = 0usize;
        let mut mk = |sim: &mut Sim<P, A>, name: &str| {
            let n = sim.add_host(name, host_factory(idx));
            idx += 1;
            n
        };

        let s1 = mk(sim, "S1");
        let d1 = mk(sim, "D1");
        let s3 = mk(sim, "S3");
        let d3 = mk(sim, "D3");
        let s2 = mk(sim, "S2");
        let d2 = mk(sim, "D2");
        let b1s = mk(sim, "B1s");
        let b1d = mk(sim, "B1d");
        let b2s = mk(sim, "B2s");
        let b2d = mk(sim, "B2d");

        // Routing tables: side 1 = left of a DN, side 2 = right; the
        // bottleneck is port 0 on each switch, so the far side's subnet
        // routes there. Addressing: (10, dn+1, side, host-slot).
        let mut lrout = [StaticRouter::new(), StaticRouter::new()];
        let mut rrout = [StaticRouter::new(), StaticRouter::new()];
        for i in 0..2 {
            let far_right = AddrPattern::subnet3(Addr::new(10, (i + 1) as u8, 2, 0));
            let far_left = AddrPattern::subnet3(Addr::new(10, (i + 1) as u8, 1, 0));
            lrout[i] = std::mem::take(&mut lrout[i]).add(far_right, PortId(0));
            rrout[i] = std::mem::take(&mut rrout[i]).add(far_left, PortId(0));
        }
        // attach(host, dn index, side, slot): wire an access link and add
        // the switch-side host route.
        let attach = |sim: &mut Sim<P, A>,
                      lrout: &mut [StaticRouter; 2],
                      rrout: &mut [StaticRouter; 2],
                      host: NodeId,
                      dni: usize,
                      side: u8,
                      slot: u8| {
            let addr = Addr::new(10, (dni + 1) as u8, side, slot);
            let sw = if side == 1 { swl[dni] } else { swr[dni] };
            sim.connect(host, sw, &access, format!("acc-{addr}"));
            let port = PortId((sim.node(sw).port_count() - 1) as u16);
            let table = if side == 1 {
                &mut lrout[dni]
            } else {
                &mut rrout[dni]
            };
            *table = std::mem::take(table).to(addr, port);
            sim.bind_addr(addr, host);
        };

        attach(sim, &mut lrout, &mut rrout, s1, 0, 1, 1);
        attach(sim, &mut lrout, &mut rrout, d1, 0, 2, 1);
        attach(sim, &mut lrout, &mut rrout, s3, 1, 1, 3);
        attach(sim, &mut lrout, &mut rrout, d3, 1, 2, 3);
        attach(sim, &mut lrout, &mut rrout, s2, 0, 1, 2); // S2 port 0 → DN1
        attach(sim, &mut lrout, &mut rrout, s2, 1, 1, 2); // S2 port 1 → DN2
        attach(sim, &mut lrout, &mut rrout, d2, 0, 2, 2);
        attach(sim, &mut lrout, &mut rrout, d2, 1, 2, 2);
        attach(sim, &mut lrout, &mut rrout, b1s, 0, 1, 9);
        attach(sim, &mut lrout, &mut rrout, b1d, 0, 2, 9);
        attach(sim, &mut lrout, &mut rrout, b2s, 1, 1, 9);
        attach(sim, &mut lrout, &mut rrout, b2d, 1, 2, 9);

        let [l0, l1] = lrout;
        let [r0, r1] = rrout;
        sim.set_router(swl[0], Box::new(l0));
        sim.set_router(swl[1], Box::new(l1));
        sim.set_router(swr[0], Box::new(r0));
        sim.set_router(swr[1], Box::new(r1));

        ShiftTestbed {
            s: [s1, s2, s3],
            d: [d1, d2, d3],
            bg_src: [b1s, b2s],
            bg_dst: [b1d, b2d],
            dn,
        }
    }

    /// Flow 1's single path (via DN1).
    pub fn flow1_path(&self) -> Path {
        Path {
            port: PortId(0),
            src: Addr::new(10, 1, 1, 1),
            dst: Addr::new(10, 1, 2, 1),
        }
    }

    /// Flow 2's two paths: subflow 1 via DN1, subflow 2 via DN2.
    pub fn flow2_paths(&self) -> [Path; 2] {
        [
            Path {
                port: PortId(0),
                src: Addr::new(10, 1, 1, 2),
                dst: Addr::new(10, 1, 2, 2),
            },
            Path {
                port: PortId(1),
                src: Addr::new(10, 2, 1, 2),
                dst: Addr::new(10, 2, 2, 2),
            },
        ]
    }

    /// Flow 3's single path (via DN2).
    pub fn flow3_path(&self) -> Path {
        Path {
            port: PortId(0),
            src: Addr::new(10, 2, 1, 3),
            dst: Addr::new(10, 2, 2, 3),
        }
    }

    /// Background path over DN `i` (0 or 1).
    pub fn bg_path(&self, i: usize) -> Path {
        Path {
            port: PortId(0),
            src: Addr::new(10, (i + 1) as u8, 1, 9),
            dst: Addr::new(10, (i + 1) as u8, 2, 9),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dumbbell;
    use std::any::Any;
    use xmp_des::{ByteSize, SimTime};
    use xmp_netsim::{Ctx, Ecn, FlowId, Packet};

    #[derive(Default)]
    struct Probe {
        got: Vec<Addr>,
    }
    impl Agent<u32> for Probe {
        fn on_packet(&mut self, p: Packet<u32>, _port: PortId, _c: &mut Ctx<'_, u32>) {
            self.got.push(p.dst);
        }
        fn on_timer(&mut self, _t: u64, _c: &mut Ctx<'_, u32>) {}
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn send(sim: &mut Sim<u32>, from: NodeId, path: Path) {
        sim.with_agent::<Probe, _>(from, |_, ctx| {
            ctx.send(
                path.port,
                Packet::new(
                    path.src,
                    path.dst,
                    FlowId(1),
                    Ecn::NotEct,
                    ByteSize::from_bytes(1500),
                    0,
                ),
            );
        });
    }

    #[test]
    fn all_paths_deliver_and_cross_the_right_bottleneck() {
        let mut sim: Sim<u32> = Sim::new(1);
        let tb = ShiftTestbed::build(&mut sim, &TestbedConfig::default(), |_| {
            Box::<Probe>::default()
        });
        send(&mut sim, tb.s[0], tb.flow1_path());
        let [p2a, p2b] = tb.flow2_paths();
        send(&mut sim, tb.s[1], p2a);
        send(&mut sim, tb.s[1], p2b);
        send(&mut sim, tb.s[2], tb.flow3_path());
        send(&mut sim, tb.bg_src[0], tb.bg_path(0));
        send(&mut sim, tb.bg_src[1], tb.bg_path(1));
        sim.run_until_quiet(SimTime::from_millis(50));
        assert_eq!(sim.with_agent::<Probe, _>(tb.d[0], |p, _| p.got.len()), 1);
        assert_eq!(
            sim.with_agent::<Probe, _>(tb.d[1], |p, _| p.got.len()),
            2,
            "both subflows of Flow 2 arrive at D2"
        );
        assert_eq!(sim.with_agent::<Probe, _>(tb.d[2], |p, _| p.got.len()), 1);
        // DN1 carried flow1 + flow2-subflow1 + bg1; DN2 the other three.
        assert_eq!(sim.link(tb.dn[0]).dir(0).stats.delivered, 3);
        assert_eq!(sim.link(tb.dn[1]).dir(0).stats.delivered, 3);
    }

    #[test]
    fn reverse_paths_work() {
        // D2 can answer out of both its ports back to S2.
        let mut sim: Sim<u32> = Sim::new(1);
        let tb = ShiftTestbed::build(&mut sim, &TestbedConfig::default(), |_| {
            Box::<Probe>::default()
        });
        let [p2a, p2b] = tb.flow2_paths();
        for (port, path) in [(PortId(0), p2a), (PortId(1), p2b)] {
            sim.with_agent::<Probe, _>(tb.d[1], |_, ctx| {
                ctx.send(
                    port,
                    Packet::new(
                        path.dst,
                        path.src,
                        FlowId(2),
                        Ecn::NotEct,
                        ByteSize::from_bytes(40),
                        0,
                    ),
                );
            });
        }
        sim.run_until_quiet(SimTime::from_millis(50));
        assert_eq!(sim.with_agent::<Probe, _>(tb.s[1], |p, _| p.got.len()), 2);
    }

    #[test]
    fn rtt_is_about_1_8ms() {
        let mut sim: Sim<u32> = Sim::new(1);
        let tb = ShiftTestbed::build(&mut sim, &TestbedConfig::default(), |_| {
            Box::<Probe>::default()
        });
        send(&mut sim, tb.s[0], tb.flow1_path());
        sim.run_until_quiet(SimTime::from_millis(50));
        let one_way_us = sim.now().as_micros();
        assert!((900..1000).contains(&one_way_us), "one-way {one_way_us}us");
    }

    /// Fig. 3b's testbed: every pair of the 4-pair dumbbell delivers over
    /// the testbed's bottleneck.
    #[test]
    fn fairness_testbed_is_a_marked_dumbbell() {
        let mut sim: Sim<u32> = Sim::new(1);
        let cfg = TestbedConfig::default();
        let (rate, rtt, queue) = (cfg.bandwidth, cfg.rtt, cfg.bottleneck_queue());
        let db = Dumbbell::build(&mut sim, 4, rate, rtt, queue, |_| Box::<Probe>::default());
        for i in 0..4 {
            let (src, dst) = (Dumbbell::src_addr(i), Dumbbell::dst_addr(i));
            let port = PortId(0);
            send(&mut sim, db.sources[i], Path { port, src, dst });
        }
        sim.run_until_quiet(SimTime::from_millis(50));
        assert_eq!(sim.link(db.bottleneck).dir(0).stats.delivered, 4);
    }
}
