//! Switch forwarding logic.
//!
//! Each switch owns a [`Router`] deciding the output port for a packet.
//! Small topologies use [`StaticRouter`] (longest-exact-match on the
//! destination address with octet wildcards); [`EcmpRouter`] adds
//! hash-based spreading over equal-cost ports (the scheme the paper's
//! simulations *replace* with deterministic Two-Level Routing Lookup — kept
//! here for ablation studies). The fat-tree two-level router lives in
//! `xmp-topo` next to the topology that defines its semantics.
//!
//! Routers answer packets through the dynamic [`Router::route`], but one
//! whose `route` is a scan (both routers here) may additionally
//! [`Router::compile`] itself into a flat [`CompiledFib`] once the set of
//! reachable destinations is known — see the [`fib`](crate::fib) module.
//! The dynamic path stays authoritative: compiled tables are checked
//! bit-identical against it by differential tests, and any destination a
//! router declines to compile falls back to `route()` at forwarding time.

use crate::addr::Addr;
use crate::fib::{CompiledFib, FibBuilder};
use crate::node::PortId;
use crate::packet::FlowId;

/// Forwarding decision logic for one switch.
pub trait Router: Send {
    /// Choose the output port for a packet to `dst` belonging to `flow`,
    /// arriving on `in_port`. Panics when the destination is unroutable.
    fn route(&self, dst: Addr, flow: FlowId, in_port: PortId) -> PortId;

    /// Like [`Router::route`] but returns `None` instead of panicking when
    /// no route exists — the forwarding path uses this under
    /// [`SimTuning::drop_unroutable`](crate::SimTuning::drop_unroutable) so
    /// partitioned topologies degrade into counted drops. The default
    /// delegates to `route()` (total routers never return `None`).
    fn try_route(&self, dst: Addr, flow: FlowId, in_port: PortId) -> Option<PortId> {
        Some(self.route(dst, flow, in_port))
    }

    /// One-time table finalization, called by the sim when the router is
    /// installed (after which `add`-style mutation is no longer possible).
    /// Routers that defer sorting do it here.
    fn prepare(&mut self) {}

    /// Compile this router into a flat table over the given destinations
    /// (the sim's address book, in destination-index order). `None` means
    /// the router doesn't compile — right for one whose `route` is already
    /// a few instructions (the fat tree's), where a per-destination table
    /// only adds a cold load; per-destination misses inside a returned
    /// table likewise fall back to [`Router::route`]. Whether a router
    /// compiles must not depend on `dsts`: the sim asks with the empty
    /// list first, and builds the real one only if some router says yes.
    fn compile(&self, _dsts: &[Addr]) -> Option<CompiledFib> {
        None
    }
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

/// First index whose pattern matches `dst` under longest-match semantics.
///
/// When `sorted` (descending specificity, stable) the first hit wins; on an
/// unsorted table we scan for the highest specificity, keeping the earliest
/// entry among equals — exactly what a stable sort followed by first-match
/// would return, so behaviour is identical whether or not
/// [`Router::prepare`] ran.
fn find_match<T>(entries: &[(AddrPattern, T)], sorted: bool, dst: Addr) -> Option<usize> {
    if sorted {
        return entries.iter().position(|(p, _)| p.matches(dst));
    }
    let mut best: Option<(usize, usize)> = None;
    for (i, (p, _)) in entries.iter().enumerate() {
        if p.matches(dst) {
            let s = p.specificity();
            if best.is_none_or(|(_, bs)| s > bs) {
                best = Some((i, s));
            }
        }
    }
    best.map(|(i, _)| i)
}

/// Longest-match static routing over [`AddrPattern`]s.
pub struct StaticRouter {
    entries: Vec<(AddrPattern, PortId)>,
    // Entries are appended unsorted (O(1)) and stable-sorted by descending
    // specificity once, in `prepare`; `route` handles both states.
    sorted: bool,
}

impl StaticRouter {
    /// Empty table.
    pub fn new() -> Self {
        StaticRouter {
            entries: Vec::new(),
            sorted: false,
        }
    }

    /// Add a route; more specific patterns take precedence regardless of
    /// insertion order; equal specificity resolves by insertion order.
    pub fn add(mut self, pat: AddrPattern, port: PortId) -> Self {
        self.entries.push((pat, port));
        self.sorted = false;
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
}

impl Default for StaticRouter {
    fn default() -> Self {
        Self::new()
    }
}

impl Router for StaticRouter {
    fn route(&self, dst: Addr, flow: FlowId, in_port: PortId) -> PortId {
        self.try_route(dst, flow, in_port)
            .unwrap_or_else(|| panic!("no route to {dst}"))
    }

    fn try_route(&self, dst: Addr, _flow: FlowId, _in_port: PortId) -> Option<PortId> {
        find_match(&self.entries, self.sorted, dst).map(|i| self.entries[i].1)
    }

    fn prepare(&mut self) {
        if !self.sorted {
            self.entries
                .sort_by_key(|(p, _)| std::cmp::Reverse(p.specificity()));
            self.sorted = true;
        }
    }

    fn compile(&self, dsts: &[Addr]) -> Option<CompiledFib> {
        let mut b = FibBuilder::new(dsts.len());
        for (i, &dst) in dsts.iter().enumerate() {
            if let Some(e) = find_match(&self.entries, self.sorted, dst) {
                b.port(i, self.entries[e].1);
            }
        }
        Some(b.build())
    }
}

/// ECMP: static routes whose targets are port *groups*, spread by a hash of
/// the flow id (per-flow consistent, like real switch ECMP).
pub struct EcmpRouter {
    entries: Vec<(AddrPattern, Vec<PortId>)>,
    sorted: bool,
}

impl EcmpRouter {
    /// Empty table.
    pub fn new() -> Self {
        EcmpRouter {
            entries: Vec::new(),
            sorted: false,
        }
    }

    /// Add a route to a group of equal-cost ports.
    pub fn add(mut self, pat: AddrPattern, ports: Vec<PortId>) -> Self {
        assert!(!ports.is_empty(), "ECMP group must be non-empty");
        self.entries.push((pat, ports));
        self.sorted = false;
        self
    }
}

impl Default for EcmpRouter {
    fn default() -> Self {
        Self::new()
    }
}

/// The murmur-style 64-bit finalizer used for every hash-based port choice
/// in the tree (ECMP spreading here, per-flow path selection in `xmp-topo`,
/// and compiled [`FibEntry::Hash`](crate::fib::FibEntry) entries).
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    z = (z ^ (z >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    z ^ (z >> 33)
}

/// The destination word [`EcmpRouter`] salts into its flow hash.
fn dst_salt(dst: Addr) -> u64 {
    u64::from_le_bytes([dst.0[0], dst.0[1], dst.0[2], dst.0[3], 0, 0, 0, 0])
}

impl Router for EcmpRouter {
    fn route(&self, dst: Addr, flow: FlowId, in_port: PortId) -> PortId {
        self.try_route(dst, flow, in_port)
            .unwrap_or_else(|| panic!("no ECMP route to {dst}"))
    }

    fn try_route(&self, dst: Addr, flow: FlowId, _in_port: PortId) -> Option<PortId> {
        let group = find_match(&self.entries, self.sorted, dst).map(|i| &self.entries[i].1)?;
        let h = mix64(flow.0 ^ dst_salt(dst));
        Some(group[(h % group.len() as u64) as usize])
    }

    fn prepare(&mut self) {
        if !self.sorted {
            self.entries
                .sort_by_key(|(p, _)| std::cmp::Reverse(p.specificity()));
            self.sorted = true;
        }
    }

    fn compile(&self, dsts: &[Addr]) -> Option<CompiledFib> {
        let mut b = FibBuilder::new(dsts.len());
        // Intern each entry's group once, shared across destinations.
        let mut interned: Vec<Option<(u32, u16)>> = vec![None; self.entries.len()];
        for (i, &dst) in dsts.iter().enumerate() {
            let Some(e) = find_match(&self.entries, self.sorted, dst) else {
                continue;
            };
            let group = &self.entries[e].1;
            if group.len() == 1 {
                // hash % 1 == 0: a singleton group is a fixed port.
                b.port(i, group[0]);
            } else {
                let g = *interned[e].get_or_insert_with(|| b.group(group));
                b.hashed(i, g, dst_salt(dst));
            }
        }
        Some(b.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(r.route(dst, FlowId(0), PortId(9)), PortId(2));
        assert_eq!(
            r.route(Addr::new(10, 1, 9, 9), FlowId(0), PortId(9)),
            PortId(1)
        );
        assert_eq!(
            r.route(Addr::new(9, 9, 9, 9), FlowId(0), PortId(9)),
            PortId(0)
        );
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn static_missing_route_panics() {
        StaticRouter::new().route(Addr::new(1, 1, 1, 1), FlowId(0), PortId(0));
    }

    #[test]
    fn try_route_is_total_where_route_is() {
        let dst = Addr::new(10, 1, 2, 3);
        let r = StaticRouter::new().to(dst, PortId(2));
        assert_eq!(r.try_route(dst, FlowId(0), PortId(0)), Some(PortId(2)));
        assert_eq!(
            r.try_route(Addr::new(9, 9, 9, 9), FlowId(0), PortId(0)),
            None
        );
        let e = EcmpRouter::new().add(AddrPattern::exact(dst), vec![PortId(4)]);
        assert_eq!(e.try_route(dst, FlowId(0), PortId(0)), Some(PortId(4)));
        assert_eq!(
            e.try_route(Addr::new(9, 9, 9, 9), FlowId(0), PortId(0)),
            None
        );
    }

    #[test]
    fn ecmp_is_per_flow_consistent_and_spreads() {
        let r = EcmpRouter::new().add(
            AddrPattern::any(),
            vec![PortId(0), PortId(1), PortId(2), PortId(3)],
        );
        let dst = Addr::new(10, 0, 0, 2);
        let mut seen = std::collections::HashSet::new();
        for f in 0..64 {
            let p1 = r.route(dst, FlowId(f), PortId(0));
            let p2 = r.route(dst, FlowId(f), PortId(0));
            assert_eq!(p1, p2, "same flow must always hash to the same port");
            seen.insert(p1);
        }
        assert!(seen.len() >= 3, "64 flows should cover most of 4 ports");
    }

    #[test]
    fn equal_specificity_insertion_order_respected() {
        // Two /24-style patterns both matching `dst`: the one added first
        // must win, both before and after `prepare()` sorts the table.
        let dst = Addr::new(10, 1, 2, 3);
        let build = || {
            StaticRouter::new()
                .default_via(PortId(9))
                .add(AddrPattern([Some(10), Some(1), Some(2), None]), PortId(1))
                .add(AddrPattern([Some(10), None, Some(2), Some(3)]), PortId(2))
        };
        let unsorted = build();
        assert_eq!(unsorted.route(dst, FlowId(0), PortId(0)), PortId(1));

        let mut prepared = build();
        prepared.prepare();
        assert_eq!(prepared.route(dst, FlowId(0), PortId(0)), PortId(1));

        // Same contract for ECMP tables (singleton groups for clarity).
        let e = EcmpRouter::new()
            .add(
                AddrPattern([Some(10), Some(1), Some(2), None]),
                vec![PortId(1)],
            )
            .add(
                AddrPattern([Some(10), None, Some(2), Some(3)]),
                vec![PortId(2)],
            );
        assert_eq!(e.route(dst, FlowId(0), PortId(0)), PortId(1));
        let mut e2 = EcmpRouter::new()
            .add(
                AddrPattern([Some(10), Some(1), Some(2), None]),
                vec![PortId(1)],
            )
            .add(
                AddrPattern([Some(10), None, Some(2), Some(3)]),
                vec![PortId(2)],
            );
        e2.prepare();
        assert_eq!(e2.route(dst, FlowId(0), PortId(0)), PortId(1));
    }

    #[test]
    fn compiled_static_matches_dynamic() {
        let dst = Addr::new(10, 1, 2, 3);
        let r = StaticRouter::new()
            .default_via(PortId(0))
            .add(AddrPattern::subnet2(dst), PortId(1))
            .to(dst, PortId(2));
        let dsts = [dst, Addr::new(10, 1, 9, 9), Addr::new(9, 9, 9, 9)];
        let fib = r.compile(&dsts).unwrap();
        for (i, &d) in dsts.iter().enumerate() {
            assert_eq!(
                fib.lookup(i as u32, FlowId(0)),
                Some(r.route(d, FlowId(0), PortId(0)))
            );
        }
    }

    #[test]
    fn compiled_ecmp_matches_dynamic() {
        let r = EcmpRouter::new().add(
            AddrPattern::any(),
            vec![PortId(0), PortId(1), PortId(2), PortId(3)],
        );
        let dsts = [Addr::new(10, 0, 0, 2), Addr::new(10, 0, 0, 3)];
        let fib = r.compile(&dsts).unwrap();
        for (i, &d) in dsts.iter().enumerate() {
            for f in 0..256u64 {
                assert_eq!(
                    fib.lookup(i as u32, FlowId(f)),
                    Some(r.route(d, FlowId(f), PortId(0))),
                    "dst {d} flow {f}"
                );
            }
        }
    }
}
