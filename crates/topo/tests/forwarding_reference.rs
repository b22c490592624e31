//! Forwarding against its references, both kinds.
//!
//! **Pattern tables** (dumbbell, torus, testbeds): [`StaticRouter`] answers
//! from a sorted exact-address index plus a short wildcard list. The
//! reference is the plain scan it replaced — highest specificity, earliest
//! among equals — kept here verbatim and run over each switch's own table:
//! every switch is asked through `Sim::route_on` for every bound address
//! and a spread of unbound ones, a spread of flow ids and every ingress
//! port, and must name the reference's port, or panic "no route" exactly
//! where the reference finds none (torus/testbed switches only know their
//! paths).
//!
//! **Closed form** (the fat tree): the router's suffix table is checked
//! against the `%`-and-`/` arithmetic it replaced, kept here verbatim as
//! the reference, over every (switch, bound address, flow) for
//! k ∈ {4, 8, 12, 16, 32} in both routing modes; and every (source host,
//! destination alias) is walked hop by hop to its host.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Mutex;
use xmp_des::{Bandwidth, SimDuration, SimRng};
use xmp_netsim::node::NodeKind;
use xmp_netsim::routing::{AddrPattern, StaticRouter};
use xmp_netsim::{mix64, Addr, Agent, Ctx, FlowId, NodeId, Packet, PortId, QdiscConfig, Sim};
use xmp_topo::fat_tree::{FatTree, FatTreeConfig, RoutingMode};
use xmp_topo::testbed::{ShiftTestbed, TestbedConfig};
use xmp_topo::torus::{Torus, TorusConfig};
use xmp_topo::Dumbbell;

#[derive(Default)]
struct Probe;
impl Agent<u64> for Probe {
    fn on_packet(&mut self, _p: Packet<u64>, _port: PortId, _c: &mut Ctx<'_, u64>) {}
    fn on_timer(&mut self, _t: u64, _c: &mut Ctx<'_, u64>) {}
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Flow ids to sweep: small consecutive ids plus seeded 64-bit ones, so
/// both hash words (low bits for the first ECMP level, bits 16.. for the
/// second) get exercised.
fn flow_set(extra: usize) -> Vec<u64> {
    let mut flows: Vec<u64> = (0..16).collect();
    let mut rng = SimRng::new(0xF1B);
    flows.extend((0..extra).map(|_| rng.uniform_u64(0, u64::MAX - 1)));
    flows
}

/// The pattern routers' lookup before the exact-address index — the
/// reference, verbatim: scan the whole table for the highest specificity,
/// keeping the earliest entry among equals.
fn find_match<T>(entries: &[(AddrPattern, T)], dst: Addr) -> Option<usize> {
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

/// The table held by the pattern router installed on switch `sw`.
fn table_of(sim: &Sim<u64>, sw: NodeId) -> Vec<(AddrPattern, PortId)> {
    let NodeKind::Switch(router) = &sim.node(sw).kind else {
        panic!("{sw:?} is a host");
    };
    let router: &dyn Any = router.as_ref();
    let router = router
        .downcast_ref::<StaticRouter>()
        .unwrap_or_else(|| panic!("{sw:?} does not forward by pattern table"));
    router.routes().collect()
}

/// Assert `route_on` equals the reference scan of the switch's own table
/// for every (switch, dst, flow, in_port) combination, over every bound
/// address and, per bound address, its neighbours one off in each octet
/// (unbound ones reach the wildcard routes, or nothing). A pair the
/// reference cannot route must panic; returns how many were probed.
fn assert_routes_match_reference(sim: &Sim<u64>, name: &str, flows: &[u64]) -> u64 {
    let bound: Vec<Addr> = sim.addresses().map(|(a, _)| a).collect();
    assert!(!bound.is_empty(), "{name}: no bound addresses");
    let mut dsts = bound.clone();
    for a in bound {
        for octet in 0..4 {
            let mut near = a;
            near.0[octet] = near.0[octet].wrapping_add(1);
            dsts.push(near);
        }
    }
    dsts.extend([Addr::new(0, 0, 0, 0), Addr::new(255, 255, 255, 255)]);
    let tables: Vec<(NodeId, Vec<(AddrPattern, PortId)>)> = (0..sim.node_count() as u32)
        .map(NodeId)
        .filter(|&n| !sim.node(n).is_host())
        .map(|n| (n, table_of(sim, n)))
        .collect();
    assert!(!tables.is_empty(), "{name}: no switches");

    // (routed, unroutable) probes, or the first disagreement.
    let sweep = || -> Result<(u64, u64), String> {
        let (mut routed, mut unroutable) = (0, 0);
        for &(swid, ref table) in &tables {
            for &dst in &dsts {
                let want = find_match(table, dst).map(|i| table[i].1);
                for &f in flows {
                    for p in 0..sim.node(swid).port_count() {
                        let in_port = PortId(p as u16);
                        let got = panic::catch_unwind(AssertUnwindSafe(|| {
                            sim.route_on(swid, dst, FlowId(f), in_port)
                        }))
                        .ok();
                        if got != want {
                            return Err(format!(
                                "{name}: {swid:?} dst {dst} flow {f} in {in_port:?}: \
                                 routed {got:?}, reference {want:?}"
                            ));
                        }
                        match want {
                            Some(_) => routed += 1,
                            None => unroutable += 1,
                        }
                    }
                }
            }
        }
        Ok((routed, unroutable))
    };
    // Silence the expected "no route" panics while sweeping. The hook is
    // process-wide and tests run on parallel threads: one swap at a time,
    // or a sweep would save another's silencer as "the original".
    static HOOK: Mutex<()> = Mutex::new(());
    let swapping = HOOK.lock().unwrap_or_else(|e| e.into_inner());
    let hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let outcome = sweep();
    panic::set_hook(hook);
    drop(swapping);
    let (routed, unroutable) = outcome.unwrap_or_else(|m| panic!("{m}"));
    assert!(routed > 0, "{name}: nothing was routable");
    unroutable
}

#[test]
fn dumbbell_routes_match_reference() {
    let mut sim: Sim<u64> = Sim::new(1);
    Dumbbell::build(
        &mut sim,
        4,
        Bandwidth::from_gbps(1),
        SimDuration::from_micros(224),
        QdiscConfig::DropTail { cap: 100 },
        |_| Box::<Probe>::default(),
    );
    // Both switches hold a default route: nothing is unroutable.
    assert_eq!(
        assert_routes_match_reference(&sim, "dumbbell", &flow_set(16)),
        0
    );
}

/// A fat-tree switch's position, as the reference needs it.
#[derive(Clone, Copy)]
enum Role {
    Edge { pod: u8, index: u8 },
    Agg { pod: u8 },
    Core,
}

/// Decompose an address's fourth octet into `(host, tag)`.
fn split_host_octet(k: usize, d: u8) -> (usize, usize) {
    let half = k / 2;
    let v = (d as usize).saturating_sub(2);
    (v % half, v / half)
}

/// The fat tree's forwarding function as `FatTreeRouter::route` computed
/// it per packet before the suffix table — the reference, verbatim.
fn reference_route(k: usize, role: Role, mode: RoutingMode, dst: Addr, flow: FlowId) -> PortId {
    let h = k / 2;
    let (host, tag) = split_host_octet(k, dst.host());
    // Uplink selectors: address-determined (two-level) or flow-hashed
    // (ECMP). The down-paths are identical in both modes.
    let (up1, up2) = match mode {
        RoutingMode::TwoLevel => ((host + tag) % h, (host + tag / h) % h),
        RoutingMode::EcmpPerFlow => {
            let hash = mix64(flow.0);
            ((hash as usize) % h, (hash >> 16) as usize % h)
        }
    };
    match role {
        Role::Edge { pod, index } => {
            if dst.pod() == pod && dst.switch() == index {
                PortId(host as u16) // down to the host
            } else {
                PortId((h + up1) as u16)
            }
        }
        Role::Agg { pod } => {
            if dst.pod() == pod {
                PortId(u16::from(dst.switch())) // down to the edge
            } else {
                PortId((h + up2) as u16)
            }
        }
        Role::Core => PortId(u16::from(dst.pod())),
    }
}

fn build_fat_tree(k: usize, routing: RoutingMode) -> (Sim<u64>, FatTree) {
    let mut sim: Sim<u64> = Sim::new(1);
    let cfg = FatTreeConfig {
        k,
        routing,
        ..FatTreeConfig::paper(QdiscConfig::DropTail { cap: 100 })
    };
    let ft = FatTree::build(&mut sim, &cfg, |_| Box::<Probe>::default());
    (sim, ft)
}

/// Every switch of the tree with its role.
fn fat_tree_switches(k: usize, ft: &FatTree) -> Vec<(NodeId, Role)> {
    let h = k / 2;
    let edges = ft.edges.iter().enumerate().map(|(i, &n)| {
        let (pod, index) = ((i / h) as u8, (i % h) as u8);
        (n, Role::Edge { pod, index })
    });
    let aggs = ft.aggs.iter().enumerate().map(|(i, &n)| {
        let pod = (i / h) as u8;
        (n, Role::Agg { pod })
    });
    let cores = ft.cores.iter().map(|&n| (n, Role::Core));
    edges.chain(aggs).chain(cores).collect()
}

/// Closed form vs reference at every switch, under every flow in `flows`,
/// over every `stride`-th bound address (1 = every one) and over all 256
/// fourth octets (bound or not: octets 0 and 1 take the reference's
/// saturating branch) behind a local, a same-pod and a foreign prefix.
fn assert_closed_form_matches_reference(
    k: usize,
    routing: RoutingMode,
    flows: &[u64],
    stride: usize,
) {
    let (sim, ft) = build_fat_tree(k, routing);
    let name = format!("fat_tree k={k} {routing:?}");
    let bound: Vec<Addr> = sim.addresses().map(|(a, _)| a).collect();
    assert_eq!(bound.len(), ft.host_count() * ft.tag_count(), "{name}");
    let every_octet = [(0, 0), (0, 1), (1, 0)]
        .into_iter()
        .flat_map(|(p, e)| (0..=255).map(move |d| Addr::new(10, p, e, d)));
    let dsts: Vec<Addr> = bound
        .into_iter()
        .step_by(stride)
        .chain(every_octet)
        .collect();
    for (swid, role) in fat_tree_switches(k, &ft) {
        for &dst in &dsts {
            for &f in flows {
                // `route_on` is the decision as the event loop makes it.
                let got = sim.route_on(swid, dst, FlowId(f), PortId(0));
                let want = reference_route(k, role, routing, dst, FlowId(f));
                assert_eq!(got, want, "{name}: {swid:?} dst {dst} flow {f}");
            }
        }
    }
}

/// Both routing modes at one `k`: two flow ids for two-level forwarding
/// (it ignores the flow; two ids pin that), `ecmp_flows` of the
/// [`flow_set`] for ECMP.
fn assert_both_modes_match_reference(k: usize, ecmp_flows: usize, stride: usize) {
    assert_closed_form_matches_reference(k, RoutingMode::TwoLevel, &[0, u64::MAX], stride);
    let flows: Vec<u64> = flow_set(16).into_iter().step_by(32 / ecmp_flows).collect();
    assert_closed_form_matches_reference(k, RoutingMode::EcmpPerFlow, &flows, stride);
}

// An unoptimized test build spends ~0.1 µs per check, so the ECMP flow set
// shrinks as the (switch, bound address) product grows: 2.8 M pairs at
// k = 12, 10 M at k = 16.
#[test]
fn fat_tree_closed_form_matches_reference_k4_k8_k12() {
    assert_both_modes_match_reference(4, 32, 1);
    assert_both_modes_match_reference(8, 32, 1);
    assert_both_modes_match_reference(12, 4, 1);
}

#[test]
fn fat_tree_closed_form_matches_reference_k16() {
    assert_both_modes_match_reference(16, 2, 1);
}

/// k = 32 is 1 280 switches x 122 880 bound aliases = 157 M pairs: a
/// second per flow optimized, a quarter of a minute not. `cargo test
/// --release` (`scripts/check.sh` runs this file that way) sweeps every
/// pair; an unoptimized build takes every 61st alias — 240 share a /24, so
/// the stride walks through every prefix and every octet position — at
/// every switch.
#[test]
fn fat_tree_closed_form_matches_reference_k32() {
    let stride = if cfg!(debug_assertions) { 61 } else { 1 };
    assert_both_modes_match_reference(32, 2, stride);
}

/// Every (source host, destination alias) reaches the alias's host in at
/// most 6 link hops, following `route_on` switch by switch. A host's only
/// port leads to its edge switch, so the walks are made once per (edge
/// switch, alias) and the first hop checked once per host.
#[test]
fn fat_tree_walks_deliver_within_six_hops() {
    for (k, routing, flows) in [
        (4, RoutingMode::TwoLevel, vec![0]),
        (8, RoutingMode::TwoLevel, vec![0]),
        (12, RoutingMode::TwoLevel, vec![0]),
        (16, RoutingMode::TwoLevel, vec![0]),
        (4, RoutingMode::EcmpPerFlow, flow_set(16)),
        (8, RoutingMode::EcmpPerFlow, flow_set(4)),
    ] {
        let (sim, ft) = build_fat_tree(k, routing);
        let name = format!("fat_tree k={k} {routing:?}");
        let next = |node: NodeId, port: PortId| {
            let (link, dir) = sim.node(node).ports[port.0 as usize];
            let d = sim.link(link).dir(dir);
            (d.to_node, d.to_port)
        };
        for (i, &host) in ft.hosts.iter().enumerate() {
            assert_eq!(sim.node(host).port_count(), 1, "{name}: host {i}");
            assert_eq!(
                next(host, PortId(0)).0,
                ft.edges[i / (k / 2)],
                "{name}: host {i}"
            );
        }
        let aliases: Vec<(Addr, NodeId)> = sim.addresses().collect();
        for &edge in &ft.edges {
            for &(dst, owner) in &aliases {
                for &f in &flows {
                    // Hop 1 brought the packet from its source host.
                    let (mut at, mut in_port, mut hops) = (edge, PortId(0), 1);
                    while !sim.node(at).is_host() {
                        assert!(hops < 6, "{name}: {edge:?} -> {dst} flow {f} still walking");
                        let out = sim.route_on(at, dst, FlowId(f), in_port);
                        (at, in_port) = next(at, out);
                        hops += 1;
                    }
                    assert_eq!(at, owner, "{name}: {edge:?} -> {dst} flow {f}");
                }
            }
        }
    }
}

#[test]
fn torus_routes_match_reference() {
    let mut sim: Sim<u64> = Sim::new(1);
    Torus::build(&mut sim, &TorusConfig::default(), |_| {
        Box::<Probe>::default()
    });
    assert!(assert_routes_match_reference(&sim, "torus", &flow_set(16)) > 0);
}

#[test]
fn testbeds_routes_match_reference() {
    let mut sim: Sim<u64> = Sim::new(1);
    ShiftTestbed::build(&mut sim, &TestbedConfig::default(), |_| {
        Box::<Probe>::default()
    });
    assert!(assert_routes_match_reference(&sim, "shift testbed", &flow_set(16)) > 0);

    let mut sim: Sim<u64> = Sim::new(1);
    let cfg = TestbedConfig::default();
    let (rate, rtt, queue) = (cfg.bandwidth, cfg.rtt, cfg.bottleneck_queue());
    Dumbbell::build(&mut sim, 4, rate, rtt, queue, |_| Box::<Probe>::default());
    // A dumbbell underneath: default routes, nothing unroutable.
    assert_eq!(
        assert_routes_match_reference(&sim, "fairness testbed", &flow_set(16)),
        0
    );
}
