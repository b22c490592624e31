//! N host pairs across a single bottleneck — the Fig. 1 microbenchmark
//! topology and the unit-test workhorse.

use xmp_des::{Bandwidth, SimDuration};
use xmp_netsim::network::Payload;
use xmp_netsim::routing::{AddrPattern, StaticRouter};
use xmp_netsim::{Addr, Agent, LinkId, LinkParams, NodeId, PortId, QdiscConfig, Sim};

/// A built dumbbell.
#[derive(Debug)]
pub struct Dumbbell {
    /// Source hosts.
    pub sources: Vec<NodeId>,
    /// Destination hosts.
    pub sinks: Vec<NodeId>,
    /// Left switch.
    pub left: NodeId,
    /// Right switch.
    pub right: NodeId,
    /// The bottleneck link (direction 0 = left→right).
    pub bottleneck: LinkId,
}

impl Dumbbell {
    /// Build `n` pairs across a bottleneck of `bandwidth` with the given
    /// queue. The no-load RTT is `rtt` for 40 B control packets: one-way
    /// propagation is `rtt/2` split as access/4 + bottleneck/2 + access/4
    /// (access links run at 4x the bottleneck rate with large drop-tail
    /// buffers so only the bottleneck queue matters).
    pub fn build<P: Payload, A: Agent<P>>(
        sim: &mut Sim<P, A>,
        n: usize,
        bandwidth: Bandwidth,
        rtt: SimDuration,
        queue: QdiscConfig,
        mut host_factory: impl FnMut(usize) -> A,
    ) -> Dumbbell {
        assert!((1..200).contains(&n));
        let access_delay = rtt / 8;
        let mid_delay = rtt / 4;
        let access = LinkParams::new(
            Bandwidth::from_bps(bandwidth.as_bps() * 4),
            access_delay,
            QdiscConfig::DropTail { cap: 10_000 },
        );
        sim.reserve_links(2 * n + 1);
        let left = sim.add_switch("left", Box::new(StaticRouter::new()));
        let right = sim.add_switch("right", Box::new(StaticRouter::new()));
        // Bottleneck first: port 0 on both switches.
        let bottleneck = sim.connect(
            left,
            right,
            &LinkParams::new(bandwidth, mid_delay, queue),
            "bottleneck",
        );
        let mut sources = Vec::new();
        let mut sinks = Vec::new();
        let mut lr = StaticRouter::new().add(AddrPattern::any(), PortId(0));
        let mut rr = StaticRouter::new().add(AddrPattern::any(), PortId(0));
        for i in 0..n {
            let s = sim.add_host(format!("src{i}"), host_factory(i));
            let d = sim.add_host(format!("dst{i}"), host_factory(n + i));
            sim.connect(s, left, &access, format!("acc-s{i}"));
            sim.connect(d, right, &access, format!("acc-d{i}"));
            sim.bind_addr(Self::src_addr(i), s);
            sim.bind_addr(Self::dst_addr(i), d);
            // Host i hangs off switch port i+1 (port 0 is the bottleneck).
            lr = lr.to(Self::src_addr(i), PortId((i + 1) as u16));
            rr = rr.to(Self::dst_addr(i), PortId((i + 1) as u16));
            sources.push(s);
            sinks.push(d);
        }
        sim.set_router(left, Box::new(lr));
        sim.set_router(right, Box::new(rr));
        Dumbbell {
            sources,
            sinks,
            left,
            right,
            bottleneck,
        }
    }

    /// Source host `i`'s address.
    pub fn src_addr(i: usize) -> Addr {
        Addr::new(10, 0, 1, i as u8)
    }

    /// Destination host `i`'s address.
    pub fn dst_addr(i: usize) -> Addr {
        Addr::new(10, 0, 2, i as u8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;
    use xmp_des::{ByteSize, SimTime};
    use xmp_netsim::{Ctx, Ecn, FlowId, Packet};

    #[derive(Default)]
    struct Probe {
        got: u32,
    }
    impl Agent<u32> for Probe {
        fn on_packet(&mut self, _p: Packet<u32>, _port: PortId, _c: &mut Ctx<'_, u32>) {
            self.got += 1;
        }
        fn on_timer(&mut self, _t: u64, _c: &mut Ctx<'_, u32>) {}
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn pairs_are_isolated_and_reachable() {
        let mut sim: Sim<u32> = Sim::new(1);
        let db = Dumbbell::build(
            &mut sim,
            4,
            Bandwidth::from_gbps(1),
            SimDuration::from_micros(224),
            QdiscConfig::DropTail { cap: 100 },
            |_| Box::<Probe>::default(),
        );
        for i in 0..4 {
            sim.with_agent::<Probe, _>(db.sources[i], |_, ctx| {
                ctx.send(
                    PortId(0),
                    Packet::new(
                        Dumbbell::src_addr(i),
                        Dumbbell::dst_addr(i),
                        FlowId(i as u64),
                        Ecn::NotEct,
                        ByteSize::from_bytes(1500),
                        9,
                    ),
                );
            });
        }
        sim.run_until_quiet(SimTime::from_millis(5));
        for i in 0..4 {
            assert_eq!(sim.with_agent::<Probe, _>(db.sinks[i], |p, _| p.got), 1);
        }
        assert_eq!(sim.link(db.bottleneck).dir(0).stats.delivered, 4);
    }

    #[test]
    fn no_load_rtt_matches_parameterization() {
        // One small packet each way ~ rtt (serialization of 40B at >=1Gbps
        // is negligible: < 1us).
        let mut sim: Sim<u32> = Sim::new(1);
        let db = Dumbbell::build(
            &mut sim,
            1,
            Bandwidth::from_gbps(1),
            SimDuration::from_micros(224),
            QdiscConfig::DropTail { cap: 100 },
            |_| Box::<Probe>::default(),
        );
        sim.with_agent::<Probe, _>(db.sources[0], |_, ctx| {
            ctx.send(
                PortId(0),
                Packet::new(
                    Dumbbell::src_addr(0),
                    Dumbbell::dst_addr(0),
                    FlowId(0),
                    Ecn::NotEct,
                    ByteSize::from_bytes(40),
                    0,
                ),
            );
        });
        sim.run_until_quiet(SimTime::from_millis(5));
        let one_way = sim.now().as_micros();
        assert!((112..118).contains(&one_way), "one_way={one_way}us");
    }
}
