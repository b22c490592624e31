//! Switch forwarding logic.
//!
//! Each switch owns a [`Router`], and [`Router::route`] is the one
//! forwarding rule: the event loop asks it once per packet per switch and
//! nothing caches, compiles or shadows the answer. The hand-built
//! topologies (dumbbell, torus, testbeds) use [`StaticRouter`],
//! longest-match on the destination address with octet wildcards; the
//! fat-tree two-level router — and its per-flow ECMP mode, the scheme the
//! paper's simulations *replace* with deterministic Two-Level Routing
//! Lookup — lives in `xmp-topo` next to the topology that defines its
//! semantics. Routers see addresses and flows only, never link state: a
//! failed link does not change the port a packet takes (DESIGN.md §11.3).

use crate::addr::Addr;
use crate::node::PortId;
use crate::packet::FlowId;
use std::any::Any;

/// Forwarding decision logic for one switch. (`Any`, so a test holding a
/// built [`Sim`](crate::Sim) can downcast a switch's router and read its
/// table back.)
pub trait Router: Any + Send {
    /// The output port for a packet to `dst` belonging to `flow`, arriving
    /// on `in_port`; `None` when the switch has no route. What happens to
    /// an unroutable packet — panic, or a counted drop under
    /// [`SimTuning::drop_unroutable`](crate::SimTuning::drop_unroutable) —
    /// is the caller's decision, not the router's.
    fn route(&self, dst: Addr, flow: FlowId, in_port: PortId) -> Option<PortId>;
}

/// A destination pattern: each octet either matches exactly or is a wildcard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AddrPattern(pub [Option<u8>; 4]);

impl AddrPattern {
    /// Match the full address exactly.
    pub fn exact(a: Addr) -> Self {
        AddrPattern([Some(a.0[0]), Some(a.0[1]), Some(a.0[2]), Some(a.0[3])])
    }

    /// Match the first three octets (a /24-style subnet).
    pub fn subnet3(a: Addr) -> Self {
        AddrPattern([Some(a.0[0]), Some(a.0[1]), Some(a.0[2]), None])
    }

    /// Match the first two octets (a pod).
    pub fn subnet2(a: Addr) -> Self {
        AddrPattern([Some(a.0[0]), Some(a.0[1]), None, None])
    }

    /// Match anything.
    pub fn any() -> Self {
        AddrPattern([None; 4])
    }

    /// Whether `a` matches this pattern.
    pub fn matches(&self, a: Addr) -> bool {
        self.0
            .iter()
            .zip(a.0.iter())
            .all(|(p, o)| p.is_none_or(|v| v == *o))
    }

    /// Number of fixed octets (specificity for longest-match).
    pub fn specificity(&self) -> usize {
        self.0.iter().filter(|p| p.is_some()).count()
    }
}

/// Longest-match static routing over [`AddrPattern`]s: the most specific
/// matching pattern wins regardless of insertion order, the first added
/// among equally specific ones.
///
/// The tables this serves hold a handful of exact host addresses and at
/// most a few wildcard patterns, and are asked once per packet per hop, so
/// the exact routes are binary-searched first (an exact match is the most
/// specific there can be) and only a miss scans the wildcards.
#[derive(Default)]
pub struct StaticRouter {
    /// Exact-address routes keyed by the big-endian address word, sorted,
    /// one per address.
    exact: Vec<(u32, PortId)>,
    /// Patterns with a wildcard octet, by descending specificity; equally
    /// specific ones in insertion order, so the first hit is the answer.
    wild: Vec<(AddrPattern, PortId)>,
}

impl StaticRouter {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a route; more specific patterns take precedence regardless of
    /// insertion order; equal specificity resolves by insertion order.
    pub fn add(mut self, pat: AddrPattern, port: PortId) -> Self {
        if let [Some(a), Some(b), Some(c), Some(d)] = pat.0 {
            let key = u32::from_be_bytes([a, b, c, d]);
            // A second route to the same address can never win: not stored.
            if let Err(at) = self.exact.binary_search_by_key(&key, |&(k, _)| k) {
                self.exact.insert(at, (key, port));
            }
        } else {
            let s = pat.specificity();
            let at = self.wild.partition_point(|(p, _)| p.specificity() >= s);
            self.wild.insert(at, (pat, port));
        }
        self
    }

    /// Convenience: exact-destination route.
    pub fn to(self, dst: Addr, port: PortId) -> Self {
        self.add(AddrPattern::exact(dst), port)
    }

    /// Convenience: default route.
    pub fn default_via(self, port: PortId) -> Self {
        self.add(AddrPattern::any(), port)
    }

    /// The table in lookup order: exact addresses ascending, then the
    /// wildcard patterns from most to least specific.
    pub fn routes(&self) -> impl Iterator<Item = (AddrPattern, PortId)> + '_ {
        let exact = self
            .exact
            .iter()
            .map(|&(k, p)| (AddrPattern::exact(Addr(k.to_be_bytes())), p));
        exact.chain(self.wild.iter().copied())
    }
}

impl Router for StaticRouter {
    fn route(&self, dst: Addr, _flow: FlowId, _in_port: PortId) -> Option<PortId> {
        let key = u32::from_be_bytes(dst.0);
        match self.exact.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => Some(self.exact[i].1),
            Err(_) => self
                .wild
                .iter()
                .find(|(p, _)| p.matches(dst))
                .map(|&(_, port)| port),
        }
    }
}

/// The murmur-style 64-bit finalizer behind every hash-based port choice
/// (the fat tree's per-flow ECMP mode in `xmp-topo`).
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    z = (z ^ (z >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    z ^ (z >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmp_des::SimRng;

    #[test]
    fn pattern_matching() {
        let a = Addr::new(10, 1, 2, 3);
        assert!(AddrPattern::exact(a).matches(a));
        assert!(!AddrPattern::exact(a).matches(Addr::new(10, 1, 2, 4)));
        assert!(AddrPattern::subnet3(a).matches(Addr::new(10, 1, 2, 9)));
        assert!(!AddrPattern::subnet3(a).matches(Addr::new(10, 1, 3, 3)));
        assert!(AddrPattern::subnet2(a).matches(Addr::new(10, 1, 7, 7)));
        assert!(AddrPattern::any().matches(Addr::new(1, 2, 3, 4)));
    }

    #[test]
    fn static_longest_match_wins() {
        let dst = Addr::new(10, 1, 2, 3);
        let r = StaticRouter::new()
            .default_via(PortId(0))
            .add(AddrPattern::subnet2(dst), PortId(1))
            .to(dst, PortId(2));
        let route = |a| r.route(a, FlowId(0), PortId(9));
        assert_eq!(route(dst), Some(PortId(2)));
        assert_eq!(route(Addr::new(10, 1, 9, 9)), Some(PortId(1)));
        assert_eq!(route(Addr::new(9, 9, 9, 9)), Some(PortId(0)));
    }

    #[test]
    fn static_missing_route_is_none() {
        let dst = Addr::new(10, 1, 2, 3);
        let r = StaticRouter::new().to(dst, PortId(2));
        assert_eq!(r.route(dst, FlowId(0), PortId(0)), Some(PortId(2)));
        assert_eq!(r.route(Addr::new(9, 9, 9, 9), FlowId(0), PortId(0)), None);
    }

    /// The router only answers `None`; the switch it sits on panics.
    #[test]
    #[should_panic(expected = "no route to 1.1.1.1")]
    fn static_missing_route_panics() {
        let mut sim: crate::Sim<u64> = crate::Sim::new(1);
        let sw = sim.add_switch("sw", Box::new(StaticRouter::new()));
        sim.route_on(sw, Addr::new(1, 1, 1, 1), FlowId(0), PortId(0));
    }

    #[test]
    fn equal_specificity_insertion_order_respected() {
        // Two three-octet patterns both matching `dst`: the one added first
        // wins, wherever less and more specific routes were added around
        // them; likewise the first of two routes to one exact address.
        let dst = Addr::new(10, 1, 2, 3);
        let r = StaticRouter::new()
            .default_via(PortId(9))
            .add(AddrPattern([Some(10), Some(1), Some(2), None]), PortId(1))
            .add(AddrPattern([Some(10), None, Some(2), Some(3)]), PortId(2))
            .to(Addr::new(10, 1, 2, 4), PortId(3))
            .to(Addr::new(10, 1, 2, 4), PortId(4));
        assert_eq!(r.route(dst, FlowId(0), PortId(0)), Some(PortId(1)));
        assert_eq!(
            r.route(Addr::new(10, 1, 2, 4), FlowId(0), PortId(0)),
            Some(PortId(3))
        );
    }

    /// The contract, stated as plainly as it can be over the routes as
    /// they were added: highest specificity, earliest among equals.
    fn reference(added: &[(AddrPattern, PortId)], dst: Addr) -> Option<PortId> {
        let matching = added
            .iter()
            .enumerate()
            .filter(|(_, (p, _))| p.matches(dst));
        matching
            .max_by_key(|&(i, (p, _))| (p.specificity(), std::cmp::Reverse(i)))
            .map(|(_, &(_, port))| port)
    }

    /// Random tables over a four-value octet alphabet (so patterns overlap,
    /// exact routes repeat and lookups hit about as often as they miss),
    /// added in shuffled order: the indexed lookup equals the plain scan.
    #[test]
    fn indexed_lookup_equals_the_reference_scan_on_random_tables() {
        let mut rng = SimRng::new(0x57A7_1C00);
        let octet = |rng: &mut SimRng| rng.index(4) as u8;
        let mut lookups = 0;
        while lookups < 10_000 {
            let mut added = Vec::new();
            for i in 0..rng.index(24) {
                let exact = rng.chance(0.6);
                let pat = [(); 4].map(|()| (exact || rng.chance(0.5)).then(|| octet(&mut rng)));
                added.push((AddrPattern(pat), PortId(i as u16)));
                if rng.chance(0.2) {
                    // The same pattern again, to a different port.
                    added.push((AddrPattern(pat), PortId(100 + i as u16)));
                }
            }
            rng.shuffle(&mut added);
            let router = added
                .iter()
                .fold(StaticRouter::new(), |r, &(pat, port)| r.add(pat, port));
            for _ in 0..100 {
                let dst = Addr([(); 4].map(|()| octet(&mut rng)));
                assert_eq!(
                    router.route(dst, FlowId(0), PortId(0)),
                    reference(&added, dst),
                    "{dst} in {added:?}"
                );
                lookups += 1;
            }
        }
    }
}
