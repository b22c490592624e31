//! The fabric: nodes, the links between them, and the address book.
//!
//! Topology builders grow it through the `Sim` construction calls; after
//! that the event handlers mutate link directions (offers, deliveries,
//! failures) and nothing else changes. Forwarding is one question,
//! [`Fabric::next_hop`], asked the same way by the event loop, by
//! `Sim::route_on` and by the fluid plane's path resolution.

use crate::addr::Addr;
use crate::error::ConfigError;
use crate::fluid::{MAX_HOPS, REF_PKT_BYTES};
use crate::link::{Direction, FaultConfig, Link, LinkId, LinkParams, Offer};
use crate::node::{Node, NodeId, NodeKind, PortId};
use crate::packet::{FlowId, Packet};
use crate::queue::Qdisc;
use crate::routing::Router;
use crate::window::WindowPool;
use std::fmt;
use xmp_des::{SimRng, SimTime};

/// Where a packet standing at a node goes next ([`Fabric::next_hop`]).
#[derive(PartialEq)]
pub(crate) enum Hop {
    /// The node is a host: the packet is home.
    Home,
    /// The switch forwards it out of this port: onto this link, in the
    /// direction that leaves the switch.
    Out(PortId, LinkId, u8),
}

/// Why a switch cannot forward a packet. `Display` is the panic message
/// forwarding dies with unless `SimTuning::drop_unroutable` is set.
pub(crate) enum NoHop {
    /// The router has no route for the destination.
    NoRoute(Addr),
    /// The router named a port the switch does not have.
    MissingPort(PortId),
}

impl fmt::Display for NoHop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NoHop::NoRoute(dst) => write!(f, "no route to {dst}"),
            NoHop::MissingPort(port) => write!(f, "router chose missing port {port:?}"),
        }
    }
}

/// What [`Fabric::offer`] booked for a packet it accepted.
pub(crate) struct Booked {
    /// Whether the qdisc CE-marked the packet.
    pub(crate) marked: bool,
    /// When it reaches the far end of the link.
    pub(crate) arrives: SimTime,
    /// The direction's failure generation its `Deliver` must carry.
    pub(crate) gen: u32,
}

/// Nodes, links and addresses of one simulation.
pub(crate) struct Fabric<P> {
    pub(crate) nodes: Vec<Node>,
    pub(crate) links: Vec<Link<P>>,
    /// Every direction's booked transmission windows
    /// ([`Direction::pending`] lists point into it).
    pub(crate) windows: WindowPool,
    /// Address book as a sorted `(addr-as-u32, node)` table: binary-search
    /// lookups, no hashing, deterministic iteration. Bindings happen only
    /// during topology construction.
    addr_book: Vec<(u32, NodeId)>,
    /// Directions with booked departures the next run-window sweep has to
    /// retire ([`Fabric::retire_departures`]): filled at enqueue, pruned as
    /// the sweep finds them drained, so the sweep never walks idle links.
    busy_dirs: Vec<(LinkId, u8)>,
    /// Root of the per-direction fault and corruption streams.
    rng: SimRng,
}

impl<P: Send + 'static> Fabric<P> {
    /// Empty fabric whose link streams derive from `seed`.
    pub(crate) fn new(seed: u64) -> Self {
        Fabric {
            nodes: Vec::new(),
            links: Vec::new(),
            windows: WindowPool::new(),
            addr_book: Vec::new(),
            busy_dirs: Vec::new(),
            rng: SimRng::new(seed),
        }
    }

    pub(crate) fn add_node(&mut self, kind: NodeKind, label: String) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::new(kind, label));
        id
    }

    pub(crate) fn set_router(&mut self, node: NodeId, router: Box<dyn Router>) {
        match &mut self.nodes[node.0 as usize].kind {
            NodeKind::Switch(r) => *r = router,
            NodeKind::Host => panic!("set_router on a host"),
        }
    }

    pub(crate) fn connect(
        &mut self,
        a: NodeId,
        b: NodeId,
        params: &LinkParams,
        label: String,
    ) -> Result<LinkId, ConfigError> {
        if a == b {
            return Err(ConfigError::SelfLoopLink { node: a });
        }
        let id = LinkId(self.links.len() as u32);
        let pa = PortId(self.nodes[a.0 as usize].ports.len() as u16);
        let pb = PortId(self.nodes[b.0 as usize].ports.len() as u16);
        let link = Link::new(params, (a, pa), (b, pb), &self.rng, id.0, label);
        self.nodes[a.0 as usize].ports.push((id, 0));
        self.nodes[b.0 as usize].ports.push((id, 1));
        self.links.push(link);
        Ok(id)
    }

    pub(crate) fn bind_addr(&mut self, addr: Addr, node: NodeId) -> Result<(), ConfigError> {
        let key = u32::from_be_bytes(addr.0);
        match self.addr_book.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => Err(ConfigError::AddrAlreadyBound {
                addr,
                bound_to: self.addr_book[i].1,
            }),
            Err(i) => {
                self.addr_book.insert(i, (key, node));
                Ok(())
            }
        }
    }

    pub(crate) fn addresses(&self) -> impl Iterator<Item = (Addr, NodeId)> + '_ {
        self.addr_book
            .iter()
            .map(|&(k, n)| (Addr(k.to_be_bytes()), n))
    }

    pub(crate) fn lookup_addr(&self, addr: Addr) -> Option<NodeId> {
        let key = u32::from_be_bytes(addr.0);
        self.addr_book
            .binary_search_by_key(&key, |&(k, _)| k)
            .ok()
            .map(|i| self.addr_book[i].1)
    }

    pub(crate) fn set_link_drop_prob(&mut self, link: LinkId, p: f64) -> Result<(), ConfigError> {
        if !(0.0..=1.0).contains(&p) {
            return Err(ConfigError::BadProbability {
                what: "link drop rate",
                value: p,
            });
        }
        if link.0 as usize >= self.links.len() {
            return Err(ConfigError::UnknownLink { link });
        }
        self.set_faults(link, |f| f.drop_prob = p);
        Ok(())
    }

    /// Change the fault probabilities of both directions of `link` through
    /// `set` ([`Direction::set_fault`]).
    pub(crate) fn set_faults(&mut self, link: LinkId, set: impl Fn(&mut FaultConfig)) {
        for (dir, d) in self.links[link.0 as usize].dirs.iter_mut().enumerate() {
            d.set_fault(&self.rng, link.0, dir, &set);
        }
    }

    /// Fail both directions of `link` at `now` (`Sim::take_link_down`).
    pub(crate) fn take_link_down(&mut self, link: LinkId, now: SimTime) {
        for d in &mut self.links[link.0 as usize].dirs {
            d.take_down(&mut self.windows, now);
        }
    }

    /// Fail every link attached to `node` at `now`.
    pub(crate) fn take_switch_down(&mut self, node: NodeId, now: SimTime) {
        for p in 0..self.nodes[node.0 as usize].ports.len() {
            let (link, _) = self.nodes[node.0 as usize].ports[p];
            self.take_link_down(link, now);
        }
    }

    pub(crate) fn bring_link_up(&mut self, link: LinkId) {
        for d in &mut self.links[link.0 as usize].dirs {
            d.down = false;
        }
    }

    /// `(link, direction)` behind `port` of `node`.
    ///
    /// # Panics
    /// Panics if the node has no such port.
    pub(crate) fn port(&self, node: NodeId, port: PortId) -> (LinkId, u8) {
        *self.nodes[node.0 as usize]
            .ports
            .get(port.0 as usize)
            .unwrap_or_else(|| panic!("{node:?} has no port {port:?}"))
    }

    /// The forwarding step: where a packet for `dst` of `flow`, standing at
    /// `node` after arriving on `in_port`, goes next — the switch's
    /// [`Router::route`] and its port table, nothing else.
    #[inline]
    pub(crate) fn next_hop(
        &self,
        node: NodeId,
        in_port: PortId,
        dst: Addr,
        flow: FlowId,
    ) -> Result<Hop, NoHop> {
        let node = &self.nodes[node.0 as usize];
        let NodeKind::Switch(router) = &node.kind else {
            return Ok(Hop::Home);
        };
        let port = router
            .route(dst, flow, in_port)
            .ok_or(NoHop::NoRoute(dst))?;
        let &(link, dir) = node
            .ports
            .get(port.0 as usize)
            .ok_or(NoHop::MissingPort(port))?;
        Ok(Hop::Out(port, link, dir))
    }

    /// The directions a packet for `dst` of `flow` crosses when `src` sends
    /// it out of `port`, exactly as the event loop would forward it, and
    /// how many there are; `None` if it is still not home after
    /// [`MAX_HOPS`] (a routing loop).
    ///
    /// # Panics
    /// Panics where forwarding would: a missing port, no route.
    pub(crate) fn path(
        &self,
        src: NodeId,
        port: PortId,
        dst: Addr,
        flow: FlowId,
    ) -> Option<([(LinkId, u8); MAX_HOPS], usize)> {
        let mut path = [(LinkId(0), 0u8); MAX_HOPS];
        let mut at = self.port(src, port);
        for hops in 0..MAX_HOPS {
            path[hops] = at;
            let d = self.links[at.0 .0 as usize].dir(at.1);
            match self.next_hop(d.to_node, d.to_port, dst, flow) {
                Ok(Hop::Home) => return Some((path, hops + 1)),
                Ok(Hop::Out(_, link, dir)) => at = (link, dir),
                Err(e) => panic!("{e}"),
            }
        }
        None
    }

    /// Offer `pkt` to direction `dir` of `link` at `now`
    /// ([`Direction::offer`] decides and books its transmission window).
    /// `None` means the direction dropped it, for a reason it counted.
    #[inline]
    pub(crate) fn offer(
        &mut self,
        link: LinkId,
        dir: u8,
        now: SimTime,
        hybrid: bool,
        pkt: &mut Packet<P>,
    ) -> Option<Booked> {
        let l = &mut self.links[link.0 as usize];
        let (bandwidth, delay) = (l.bandwidth, l.delay);
        let d = l.dir_mut(dir);
        let Offer::Accepted { marked, depart, .. } =
            d.offer(&mut self.windows, now, bandwidth, hybrid, pkt)
        else {
            return None;
        };
        if !d.listed {
            d.listed = true;
            self.busy_dirs.push((link, dir));
        }
        Some(Booked {
            marked,
            arrives: depart + delay,
            gen: d.fail_gen,
        })
    }

    /// Retire every booked departure at or before `t` (a run window just
    /// closed there), so link stats read after the window — and arrivals
    /// the driver injects at `t` — see the port as it is at `t`. Only
    /// directions on the busy list can have anything to retire.
    pub(crate) fn retire_departures(&mut self, t: SimTime) {
        let (links, windows) = (&mut self.links, &mut self.windows);
        self.busy_dirs.retain(|&(link, dir)| {
            let d = links[link.0 as usize].dir_mut(dir);
            d.retire_through(windows, t);
            d.listed = !d.pending.is_empty();
            d.listed
        });
    }

    /// Hybrid mode: direction `dir` of `link` with its fluid backlog
    /// integrated forward to `now`.
    fn fluid_advanced(&mut self, link: LinkId, dir: u8, now: SimTime) -> &mut Direction<P> {
        let l = &mut self.links[link.0 as usize];
        let cap = l.bandwidth.as_bps() as f64 / 8.0;
        let d = l.dir_mut(dir);
        let max_b = d.queue.capacity() as f64 * REF_PKT_BYTES;
        d.fluid_advance(now, cap, max_b);
        d
    }

    /// Backlog of a link direction in packets at `now` (`Sim::queue_depth`).
    pub(crate) fn queue_depth(
        &mut self,
        link: LinkId,
        dir: u8,
        now: SimTime,
        hybrid: bool,
    ) -> usize {
        let d = self.links[link.0 as usize].dir_mut(dir);
        if d.down {
            return 0;
        }
        // `run_until`/`advance_to` already retired departures up to the
        // boundary; a probe tick at `t` ranks last at `t`, so it retires
        // `depart <= t` itself.
        d.retire_through(&mut self.windows, now);
        let mut depth = d.pending.len();
        if hybrid {
            // Fluid occupancy, in reference packets, is part of the
            // observable backlog — same view the qdisc classifies with.
            let backlog = self.fluid_advanced(link, dir, now).fluid_backlog;
            depth += (backlog / REF_PKT_BYTES).round() as usize;
        }
        depth
    }

    /// Hybrid mode: cumulative fluid bytes direction `dir` of `link` has
    /// served by `now`.
    pub(crate) fn fluid_bytes_out(&mut self, link: LinkId, dir: u8, now: SimTime) -> u64 {
        self.fluid_advanced(link, dir, now).fluid_bytes_out as u64
    }

    /// Check the window pool against every direction's list
    /// ([`WindowPool::audit`]) and that no downed direction holds a
    /// window. `Err` names the direction.
    pub(crate) fn audit_windows(&self) -> Result<(), String> {
        let dirs = || self.links.iter().flat_map(|l| &l.dirs);
        let name = |n: usize| format!("{}/{}", self.links[n / 2].label, n % 2);
        if let Some((n, d)) = dirs()
            .enumerate()
            .find(|(_, d)| d.down && !d.pending.is_empty())
        {
            return Err(format!(
                "downed direction {} holds {} windows",
                name(n),
                d.pending.len()
            ));
        }
        self.windows.audit(dirs().map(|d| &d.pending), name)
    }

    /// Packets accepted by some direction and not yet delivered. `Err`
    /// describes a direction whose count is negative: a packet counted
    /// twice.
    pub(crate) fn in_network(&self) -> Result<u64, String> {
        let mut total = 0;
        for l in &self.links {
            for d in &l.dirs {
                let n = u64::try_from(d.in_network).map_err(|_| {
                    format!("negative in-network count {} on {}", d.in_network, l.label)
                })?;
                total += n;
            }
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Ecn;
    use crate::queue::QdiscConfig;
    use crate::routing::StaticRouter;
    use xmp_des::{Bandwidth, ByteSize, SimDuration};

    /// h0 — s1 — s2 — h3, routed both ways; `loopy` makes s2 send traffic
    /// for h3 back to s1.
    fn line(loopy: bool) -> (Fabric<u64>, Addr, Addr) {
        let (a0, a3) = (Addr::new(10, 0, 0, 1), Addr::new(10, 0, 0, 2));
        let mut f = Fabric::new(1);
        let h0 = f.add_node(NodeKind::Host, "h0".into());
        let table = |to_h3| StaticRouter::new().to(a0, PortId(0)).to(a3, PortId(to_h3));
        let s1 = f.add_node(NodeKind::Switch(Box::new(table(1))), "s1".into());
        let s2_out = if loopy { 0 } else { 1 };
        let s2 = f.add_node(NodeKind::Switch(Box::new(table(s2_out))), "s2".into());
        let h3 = f.add_node(NodeKind::Host, "h3".into());
        let params = LinkParams::new(
            Bandwidth::from_gbps(1),
            SimDuration::from_micros(1),
            QdiscConfig::DropTail { cap: 8 },
        );
        for (a, b) in [(h0, s1), (s1, s2), (s2, h3)] {
            f.connect(a, b, &params, format!("{a:?}-{b:?}"))
                .expect("distinct ends");
        }
        (f, a0, a3)
    }

    #[test]
    fn path_follows_next_hop_home_or_gives_up_on_a_loop() {
        let (f, a0, a3) = line(false);
        let (path, hops) = f.path(NodeId(0), PortId(0), a3, FlowId(1)).expect("3 hops");
        assert_eq!(
            &path[..hops],
            &[(LinkId(0), 0), (LinkId(1), 0), (LinkId(2), 0)]
        );
        let (back, hops) = f.path(NodeId(3), PortId(0), a0, FlowId(1)).expect("3 hops");
        assert_eq!(
            &back[..hops],
            &[(LinkId(2), 1), (LinkId(1), 1), (LinkId(0), 1)]
        );
        let (loopy, _, a3) = line(true);
        assert!(loopy.path(NodeId(0), PortId(0), a3, FlowId(1)).is_none());
    }

    #[test]
    fn next_hop_names_what_is_missing() {
        let (mut f, _, a3) = line(false);
        let lost = Addr::new(9, 9, 9, 9);
        let at_s1 = |f: &Fabric<u64>, dst| f.next_hop(NodeId(1), PortId(0), dst, FlowId(1));
        let out = Hop::Out(PortId(1), LinkId(1), 0);
        assert!(matches!(at_s1(&f, a3), Ok(hop) if hop == out));
        assert!(matches!(at_s1(&f, lost), Err(e) if e.to_string() == "no route to 9.9.9.9"));
        f.set_router(NodeId(1), Box::new(StaticRouter::new().to(a3, PortId(7))));
        assert!(matches!(at_s1(&f, a3), Err(e) if e.to_string() == "router chose missing port p7"));
        assert!(matches!(
            f.next_hop(NodeId(3), PortId(0), a3, FlowId(1)),
            Ok(Hop::Home)
        ));
    }

    /// Fault state is boxed on first use, yet every direction draws what
    /// streams built with its link would have: a drop probability that
    /// goes 0 → p → 0 → p after build gives exactly the Bernoulli sequence
    /// of `derive(link << 1 | dir)` off the fabric seed, drawing nothing
    /// while it is 0; corruption draws `derive(1 << 32 | link << 1 | dir)`,
    /// whether the box was made for it or for drops earlier.
    #[test]
    fn fault_streams_are_the_derived_streams_whenever_they_start() {
        let (mut f, a0, a3) = line(false);
        let root = SimRng::new(1);
        let stream = |salt: u64| [0, 1].map(|dir| root.derive(salt | dir));
        let (p, bw) = (0.4, Bandwidth::from_gbps(1));
        let mut want = stream(2 << 1);
        let mut now = SimTime::ZERO;
        let mut dropped = 0;
        for (phase, prob) in [0.0, p, 0.0, p].into_iter().enumerate() {
            f.set_link_drop_prob(LinkId(2), prob).unwrap();
            for d in &f.links[2].dirs {
                assert_eq!(d.faults.is_some(), phase > 0, "phase {phase}");
                assert_eq!(d.fault().drop_prob, prob);
            }
            for i in 0..200 {
                // Far apart: the port is idle again at every offer.
                now += SimDuration::from_micros(100);
                for dir in 0..2 {
                    let size = ByteSize::from_bytes(1500);
                    let mut pkt = Packet::new(a0, a3, FlowId(1), Ecn::Ect, size, i);
                    let d = f.links[2].dir_mut(dir);
                    let got =
                        d.offer(&mut f.windows, now, bw, false, &mut pkt) == Offer::FaultDropped;
                    let expect = prob > 0.0 && want[dir as usize].chance(prob);
                    assert_eq!(got, expect, "phase {phase} packet {i} dir {dir}");
                    dropped += u32::from(got);
                }
            }
        }
        assert!(dropped > 100, "{dropped} fault drops");
        // Corruption: on link 1 the box is made for it, on link 2 it
        // exists already.
        for link in [1u32, 2] {
            f.set_faults(LinkId(link), |c| c.corrupt_prob = p);
            let mut want = stream(1 << 32 | u64::from(link) << 1);
            for i in 0..200 {
                for (dir, d) in f.links[link as usize].dirs.iter_mut().enumerate() {
                    let got = d.faults.as_mut().expect("boxed").corrupts();
                    assert_eq!(got, want[dir].chance(p), "link {link} draw {i} dir {dir}");
                }
            }
        }
        assert!(f.links[0].dirs.iter().all(|d| d.faults.is_none()));
    }

    /// A thousand bursts, each cut short by a link failure and followed by
    /// a repair: the cleared lists go back to the pool whole, so its placed
    /// count stays at one burst's high-water. Every tenth burst instead
    /// drains through a run-window sweep.
    #[test]
    fn failed_bursts_return_their_windows_to_the_pool() {
        let (mut f, a0, a3) = line(false);
        let mut now = SimTime::ZERO;
        for burst in 0..1000u64 {
            now += SimDuration::from_millis(1);
            for i in 0..10 {
                let size = ByteSize::from_bytes(1500);
                let mut pkt = Packet::new(a0, a3, FlowId(1), Ecn::Ect, size, burst << 8 | i);
                for dir in 0..2 {
                    f.offer(LinkId(1), dir, now, false, &mut pkt);
                }
            }
            // `cap = 8` waiting behind the one on the wire: nine windows
            // booked per direction, one packet dropped.
            assert_eq!(f.windows.placed(), 18, "burst {burst}");
            f.audit_windows().expect("booked");
            if burst % 10 == 9 {
                f.retire_departures(now + SimDuration::from_millis(1));
            } else {
                // Mid-burst: the first packet is still on the wire.
                f.take_link_down(LinkId(1), now + SimDuration::from_micros(1));
                f.audit_windows().expect("purged");
                f.bring_link_up(LinkId(1));
            }
            assert!(f.links[1].dirs.iter().all(|d| d.backlog() == 0));
        }
        for d in &f.links[1].dirs {
            assert_eq!((d.stats.enqueued, d.stats.dropped), (9000, 1000));
        }
    }
}
