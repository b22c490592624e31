//! The k-ary fat tree (Al-Fares et al., SIGCOMM 2008) with deterministic
//! Two-Level Routing Lookup — the paper's simulation topology
//! (Section 5.2.1).
//!
//! Layout for port count `k` (even):
//!
//! * `k` pods, each with `k/2` edge and `k/2` aggregation switches,
//! * `(k/2)²` core switches, indexed `(i, j)`: core `(i, j)` connects to
//!   aggregation switch `i` of every pod,
//! * `k/2` hosts per edge switch → `k³/4` hosts.
//!
//! **Addressing.** Host `h` under edge `e` of pod `p` owns the addresses
//! `(10, p, e, 2 + h + (k/2)·t)` for path tags `t ∈ 0..tag_count`. Tag 0
//! is the Al-Fares address; higher tags are the *alias addresses* the
//! paper assigns so each MPTCP subflow can ride a different path. For
//! k ≤ 12 the tag space is the full `(k/2)²`; beyond that the fourth
//! octet caps it (see [`FatTree::tag_count`]) — k = 16 gets 31 of its 64
//! core paths, k = 32 gets 15, still ample multipath diversity at
//! datacenter scale. Routing is a pure function of the destination
//! address (no per-flow hashing):
//!
//! * edge uplink  = `(h + t) mod k/2`,
//! * agg uplink   = `(h + ⌊t / (k/2)⌋) mod k/2`,
//! * core down-port = destination pod; agg/edge down-ports by address.
//!
//! For a fixed destination host, tag `t` rides core `(t mod k/2,
//! ⌊t / (k/2)⌋)` — distinct tags, distinct cores.
//!
//! **Forwarding is closed-form**, as in Al-Fares' switches: a prefix
//! compare on the pod and switch octets, then one load from a 256-entry
//! suffix table on the fourth octet that [`FatTree::build`] fills once and
//! every switch of the tree shares. No switch holds per-destination state,
//! so setup time and memory follow the node count, not nodes x addresses.

use std::sync::Arc;
use xmp_des::{Bandwidth, SimDuration};
use xmp_netsim::network::Payload;
use xmp_netsim::{
    mix64, Addr, Agent, FlowId, LinkId, LinkParams, NodeId, PortId, QdiscConfig, Router, Sim,
};

/// Which layer a link belongs to (Fig. 11 groups utilization by layer).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkLayer {
    /// Host ↔ edge (rack) links.
    Rack,
    /// Edge ↔ aggregation links.
    Aggregation,
    /// Aggregation ↔ core links.
    Core,
}

/// Paper's flow locality classes (Figs. 8c/8d/10).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FlowCategory {
    /// Same edge switch.
    InnerRack,
    /// Same pod, different edge switch.
    InterRack,
    /// Different pods.
    InterPod,
}

/// How switches pick uplinks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RoutingMode {
    /// The paper's deterministic Two-Level Routing Lookup: the uplink is a
    /// pure function of the destination address (host id + path tag), so
    /// MPTCP controls its paths exactly via alias addresses.
    #[default]
    TwoLevel,
    /// Per-flow ECMP (what Raiciu et al. ran MPTCP over, and what the
    /// paper replaced): uplinks chosen by a hash of the flow id. Subflows
    /// still take distinct 5-tuples but may collide on a core.
    EcmpPerFlow,
}

/// Construction parameters.
#[derive(Clone, Debug)]
pub struct FatTreeConfig {
    /// Switch port count `k` (even, ≥ 4). The paper uses 8.
    pub k: usize,
    /// Uplink selection (default: the paper's two-level lookup).
    pub routing: RoutingMode,
    /// Link bandwidth (all layers). The paper uses 1 Gbps.
    pub bandwidth: Bandwidth,
    /// One-way delay of rack links (paper: 20 µs).
    pub rack_delay: SimDuration,
    /// One-way delay of aggregation links (paper: 30 µs).
    pub agg_delay: SimDuration,
    /// One-way delay of core links (paper: 40 µs).
    pub core_delay: SimDuration,
    /// Queue discipline on every port.
    pub queue: QdiscConfig,
}

impl FatTreeConfig {
    /// The paper's Section 5.2.1 settings with the given queue config.
    pub fn paper(queue: QdiscConfig) -> Self {
        FatTreeConfig {
            k: 8,
            routing: RoutingMode::TwoLevel,
            bandwidth: Bandwidth::from_gbps(1),
            rack_delay: SimDuration::from_micros(20),
            agg_delay: SimDuration::from_micros(30),
            core_delay: SimDuration::from_micros(40),
            queue,
        }
    }
}

/// Typed error for invalid fat-tree construction or partition parameters,
/// returned by [`FatTree::try_build`] and [`FatTree::try_partition_plan`].
/// Every variant renders an actionable message through `Display`; the
/// panicking wrappers reuse it verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopoError {
    /// `k` must be even and at least 4 for a well-formed fat tree.
    BadArity {
        /// The offending `k`.
        k: usize,
    },
    /// `k` at or beyond 256 overflows the pod octet of the address scheme.
    ArityOverflowsAddress {
        /// The offending `k`.
        k: usize,
    },
    /// The alias addressing scheme yields fewer than two path tags, so
    /// multipath transports would have no diversity to work with.
    NoMultipathDiversity {
        /// The offending `k`.
        k: usize,
    },
    /// A partition plan was requested with zero workers.
    NoWorkers,
    /// More workers than pods: some shard would own no pod and idle every
    /// synchronization round.
    TooManyWorkers {
        /// The requested worker count.
        workers: usize,
        /// The pod count `k`.
        k: usize,
    },
}

impl std::fmt::Display for TopoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopoError::BadArity { k } => {
                write!(f, "fat tree needs even k >= 4, got k = {k}")
            }
            TopoError::ArityOverflowsAddress { k } => {
                write!(
                    f,
                    "pod index overflows an address octet: k = {k} must be < 256"
                )
            }
            TopoError::NoMultipathDiversity { k } => write!(
                f,
                "alias addressing leaves no multipath diversity for this k ({k}): \
                 fewer than two path tags fit the address scheme"
            ),
            TopoError::NoWorkers => write!(f, "need at least one worker"),
            TopoError::TooManyWorkers { workers, k } => write!(
                f,
                "workers ({workers}) must not exceed pod count k ({k}); a shard \
                 with no pod would idle every round"
            ),
        }
    }
}

impl std::error::Error for TopoError {}

/// A built fat tree: node handles, addressing and link classification.
#[derive(Debug)]
pub struct FatTree {
    k: usize,
    /// Hosts in global index order.
    pub hosts: Vec<NodeId>,
    /// Edge switches, `[pod][e]` flattened.
    pub edges: Vec<NodeId>,
    /// Aggregation switches, `[pod][a]` flattened.
    pub aggs: Vec<NodeId>,
    /// Core switches, `[i][j]` flattened.
    pub cores: Vec<NodeId>,
    /// Links by layer.
    pub rack_links: Vec<LinkId>,
    /// Edge–aggregation links.
    pub agg_links: Vec<LinkId>,
    /// Aggregation–core links.
    pub core_links: Vec<LinkId>,
}

impl FatTree {
    /// Build the tree inside `sim`; `host_factory(i)` supplies host `i`'s
    /// agent.
    ///
    /// # Panics
    /// Panics on invalid `k`; [`FatTree::try_build`] reports it instead.
    pub fn build<P: Payload, A: Agent<P>>(
        sim: &mut Sim<P, A>,
        config: &FatTreeConfig,
        host_factory: impl FnMut(usize) -> A,
    ) -> FatTree {
        Self::try_build(sim, config, host_factory).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Validate `config` without building anything: the checks
    /// [`FatTree::try_build`] performs, callable before committing to a
    /// `Sim` (CLI frontends validate user arguments this way).
    pub fn validate(config: &FatTreeConfig) -> Result<(), TopoError> {
        let k = config.k;
        if k < 4 || !k.is_multiple_of(2) {
            return Err(TopoError::BadArity { k });
        }
        if k >= 256 {
            return Err(TopoError::ArityOverflowsAddress { k });
        }
        if Self::tag_count_for(k) < 2 {
            return Err(TopoError::NoMultipathDiversity { k });
        }
        Ok(())
    }

    /// Non-panicking [`FatTree::build`]: reports invalid parameters as a
    /// typed [`TopoError`] instead of aborting. On error the `sim` is
    /// untouched (validation happens before any node is added).
    pub fn try_build<P: Payload, A: Agent<P>>(
        sim: &mut Sim<P, A>,
        config: &FatTreeConfig,
        mut host_factory: impl FnMut(usize) -> A,
    ) -> Result<FatTree, TopoError> {
        Self::validate(config)?;
        let k = config.k;
        let h = k / 2;

        let mut ft = FatTree {
            k,
            hosts: Vec::new(),
            edges: Vec::new(),
            aggs: Vec::new(),
            cores: Vec::new(),
            rack_links: Vec::new(),
            agg_links: Vec::new(),
            core_links: Vec::new(),
        };

        let suffix = suffix_table(k);
        let router = |role| {
            Box::new(FatTreeRouter {
                role,
                mode: config.routing,
                half: h as u16,
                suffix: Arc::clone(&suffix),
            })
        };

        // k^3/4 host links, as many edge-agg and as many agg-core.
        sim.reserve_links(3 * k * h * h);

        // Core switches (i, j).
        for i in 0..h {
            for j in 0..h {
                ft.cores
                    .push(sim.add_switch(format!("core{i}.{j}"), router(Role::Core)));
            }
        }

        // Pods: edges, aggs, hosts.
        for p in 0..k {
            for e in 0..h {
                ft.edges.push(sim.add_switch(
                    format!("edge{p}.{e}"),
                    router(Role::Edge {
                        pod: p as u8,
                        index: e as u8,
                    }),
                ));
            }
            for a in 0..h {
                ft.aggs.push(
                    sim.add_switch(format!("agg{p}.{a}"), router(Role::Agg { pod: p as u8 })),
                );
            }
            for e in 0..h {
                let edge = ft.edges[p * h + e];
                for hh in 0..h {
                    let idx = ft.hosts.len();
                    let host = sim.add_host(format!("h{p}.{e}.{hh}"), host_factory(idx));
                    ft.hosts.push(host);
                    // Edge port order: hosts first (ports 0..h-1).
                    let l = sim.connect(
                        host,
                        edge,
                        &LinkParams::new(config.bandwidth, config.rack_delay, config.queue.clone()),
                        format!("rack{p}.{e}.{hh}"),
                    );
                    ft.rack_links.push(l);
                    // Bind every path alias of this host.
                    for t in 0..Self::tag_count_for(k) {
                        sim.bind_addr(Self::addr_of(k, p, e, hh, t), host);
                    }
                }
            }
            // Edge uplinks (edge ports h..k-1 = agg index).
            for e in 0..h {
                let edge = ft.edges[p * h + e];
                for a in 0..h {
                    let agg = ft.aggs[p * h + a];
                    // Agg port order: edges first (ports 0..h-1, = e).
                    let l = sim.connect(
                        edge,
                        agg,
                        &LinkParams::new(config.bandwidth, config.agg_delay, config.queue.clone()),
                        format!("agg{p}.{e}-{a}"),
                    );
                    ft.agg_links.push(l);
                }
            }
        }

        // Agg uplinks to core: agg (p, a) port h + j → core (a, j);
        // core (i, j) port p → pod p. Iterate pods outer, then j, so core
        // ports are appended in pod order.
        for a in 0..h {
            for j in 0..h {
                let core = ft.cores[a * h + j];
                for p in 0..k {
                    let agg = ft.aggs[p * h + a];
                    let l = sim.connect(
                        core,
                        agg,
                        &LinkParams::new(config.bandwidth, config.core_delay, config.queue.clone()),
                        format!("core{a}.{j}-p{p}"),
                    );
                    ft.core_links.push(l);
                }
            }
        }

        // Fix-up: connecting cores appended agg ports *after* the edge
        // ports, but interleaved across the (a, j) loops; agg (p, a)'s
        // uplink ports are h + j in j order because for fixed (p, a) the
        // inner loops hit j = 0..h in order. (Edge ports 0..h-1 were wired
        // in the pod loop above.)
        Ok(ft)
    }

    /// Total host count `k³/4`.
    pub fn host_count(&self) -> usize {
        self.k * self.k * self.k / 4
    }

    /// The address of host `(p, e, h)` under path tag `t`.
    pub fn addr_of(k: usize, p: usize, e: usize, h: usize, t: usize) -> Addr {
        let half = k / 2;
        debug_assert!(h < half && t < Self::tag_count_for(k));
        Addr::new(10, p as u8, e as u8, (2 + h + half * t) as u8)
    }

    /// The address of global host index `i` under path tag `t`.
    pub fn host_addr(&self, i: usize, t: usize) -> Addr {
        let (p, e, h) = self.locate(i);
        Self::addr_of(self.k, p, e, h, t)
    }

    /// Node id of global host index `i`.
    pub fn host(&self, i: usize) -> NodeId {
        self.hosts[i]
    }

    /// `(pod, edge, host)` coordinates of global host index `i`.
    pub fn locate(&self, i: usize) -> (usize, usize, usize) {
        let h = self.k / 2;
        let per_pod = h * h;
        (i / per_pod, (i % per_pod) / h, i % h)
    }

    /// Number of distinct path tags (inter-pod path diversity): the full
    /// `(k/2)²` when every alias fits the fourth address octet (k ≤ 12),
    /// otherwise every tag that keeps `2 + (k/2 - 1) + (k/2)·t ≤ 255`.
    pub fn tag_count(&self) -> usize {
        Self::tag_count_for(self.k)
    }

    /// [`FatTree::tag_count`] as a function of `k` (used during
    /// construction, before the tree exists).
    pub fn tag_count_for(k: usize) -> usize {
        let h = k / 2;
        (h * h).min((254 - h) / h + 1)
    }

    /// The aggregation↔core link between core `(i, j)` and pod `p`'s
    /// aggregation switch `i`. Inter-pod traffic under tag `t` crosses
    /// core `(t % (k/2), t / (k/2))`, so killing one of these severs
    /// exactly one path tag between pods — the failover experiment's
    /// fault.
    pub fn core_link(&self, i: usize, j: usize, p: usize) -> LinkId {
        let h = self.k / 2;
        assert!(i < h && j < h && p < self.k, "core_link out of range");
        self.core_links[(i * h + j) * self.k + p]
    }

    /// Locality class of a host pair.
    pub fn category(&self, src: usize, dst: usize) -> FlowCategory {
        let (ps, es, _) = self.locate(src);
        let (pd, ed, _) = self.locate(dst);
        if ps != pd {
            FlowCategory::InterPod
        } else if es != ed {
            FlowCategory::InterRack
        } else {
            FlowCategory::InnerRack
        }
    }

    /// Pod-based shard assignment for a partitioned run
    /// ([`xmp_netsim::PartitionedSim`]): each shard takes a consecutive
    /// block of pods wholesale (hosts + edge + aggregation switches), and
    /// the `(k/2)²` core switches spread round-robin across shards. When
    /// `workers` does not divide `k` the first `k % workers` shards take
    /// one extra pod (`⌈k/workers⌉` vs `⌊k/workers⌋`), so any worker
    /// count up to `k` yields a plan whose pod imbalance is at most one.
    /// Rack and edge–aggregation links never cross shards; the cut set is
    /// a subset of the aggregation↔core links, so the conservative
    /// lookahead is the core-link delay (40 µs under the paper's
    /// parameters).
    ///
    /// # Panics
    /// Panics if `workers` is zero or exceeds `k` (a shard with no pod
    /// would idle every round).
    pub fn partition_plan(&self, workers: usize) -> xmp_netsim::PartitionPlan {
        self.try_partition_plan(workers)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Non-panicking [`FatTree::partition_plan`]: reports an unusable
    /// worker count as a typed [`TopoError`] instead of aborting.
    pub fn try_partition_plan(
        &self,
        workers: usize,
    ) -> Result<xmp_netsim::PartitionPlan, TopoError> {
        if workers == 0 {
            return Err(TopoError::NoWorkers);
        }
        if workers > self.k {
            return Err(TopoError::TooManyWorkers { workers, k: self.k });
        }
        let h = self.k / 2;
        let base = self.k / workers;
        let extra = self.k % workers;
        // Pods [0, boundary) land on the first `extra` shards in blocks of
        // base + 1; the rest land on the remaining shards in blocks of base.
        let boundary = extra * (base + 1);
        let pod_shard = |pod: usize| -> u32 {
            if pod < boundary {
                (pod / (base + 1)) as u32
            } else {
                (extra + (pod - boundary) / base) as u32
            }
        };
        let nodes = h * h + self.k * (2 * h + h * h);
        let mut assignment = vec![0u32; nodes];
        for (c, &core) in self.cores.iter().enumerate() {
            assignment[core.0 as usize] = (c % workers) as u32;
        }
        for (i, &sw) in self.edges.iter().enumerate() {
            assignment[sw.0 as usize] = pod_shard(i / h);
        }
        for (i, &sw) in self.aggs.iter().enumerate() {
            assignment[sw.0 as usize] = pod_shard(i / h);
        }
        for (i, &host) in self.hosts.iter().enumerate() {
            assignment[host.0 as usize] = pod_shard(i / (h * h));
        }
        Ok(xmp_netsim::PartitionPlan::new(assignment))
    }

    /// All links with their layer, for utilization reports.
    pub fn links_by_layer(&self) -> impl Iterator<Item = (LinkLayer, LinkId)> + '_ {
        self.rack_links
            .iter()
            .map(|&l| (LinkLayer::Rack, l))
            .chain(self.agg_links.iter().map(|&l| (LinkLayer::Aggregation, l)))
            .chain(self.core_links.iter().map(|&l| (LinkLayer::Core, l)))
    }
}

/// One row of the suffix table: everything a switch needs to know about a
/// destination's fourth octet. Ports fit a byte because `k < 256`.
#[derive(Clone, Copy, Debug, Default)]
struct Suffix {
    /// Edge down-port: the host id `h`.
    host: u8,
    /// Two-level edge uplink port, `k/2 + (h + t) mod k/2`.
    edge_up: u8,
    /// Two-level aggregation uplink port, `k/2 + (h + ⌊t / (k/2)⌋) mod k/2`.
    agg_up: u8,
}

/// Al-Fares' suffix table, one per tree: fourth octet → [`Suffix`]. All the
/// division the addressing scheme implies (octet → host id and path tag,
/// tag → uplinks) happens here, once, for each of the 256 octets; a lookup
/// is then one load from 768 bytes every switch of the tree shares.
type SuffixTable = [Suffix; 256];

fn suffix_table(k: usize) -> Arc<SuffixTable> {
    let half = k / 2;
    let mut table = [Suffix::default(); 256];
    for (octet, row) in table.iter_mut().enumerate() {
        // Octets 0 and 1 are never bound; they decode like octet 2.
        let v = octet.saturating_sub(2);
        let (host, tag) = (v % half, v / half);
        *row = Suffix {
            host: host as u8,
            edge_up: (half + (host + tag) % half) as u8,
            agg_up: (half + (host + tag / half) % half) as u8,
        };
    }
    Arc::new(table)
}

/// The router for all three switch roles (two-level or ECMP uplinks).
///
/// Forwarding is closed-form — prefix compares on the pod and switch
/// octets, then the suffix table — and total: every address gets a port,
/// and no state grows with the tree.
#[derive(Debug)]
struct FatTreeRouter {
    role: Role,
    mode: RoutingMode,
    /// `k/2`: the first uplink port, and the ECMP modulus.
    half: u16,
    suffix: Arc<SuffixTable>,
}

#[derive(Debug)]
enum Role {
    Edge { pod: u8, index: u8 },
    Agg { pod: u8 },
    Core,
}

impl FatTreeRouter {
    /// An uplink port: the suffix table's (two-level) or a flow-hash draw
    /// over the `k/2` uplinks (ECMP). Both switch levels hash the same
    /// `mix64(flow)` word, the aggregation level consuming bits 16.. (hence
    /// `shift`) so the two choices are independent.
    #[inline]
    fn uplink(&self, two_level: u8, flow: FlowId, shift: u32) -> u16 {
        match self.mode {
            RoutingMode::TwoLevel => u16::from(two_level),
            RoutingMode::EcmpPerFlow => {
                let half = usize::from(self.half);
                (half + (mix64(flow.0) >> shift) as usize % half) as u16
            }
        }
    }
}

impl Router for FatTreeRouter {
    fn route(&self, dst: Addr, flow: FlowId, _in_port: PortId) -> Option<PortId> {
        let suffix = &self.suffix[usize::from(dst.host())];
        // The down-paths are identical in both routing modes.
        Some(PortId(match self.role {
            Role::Edge { pod, index } => {
                if dst.pod() == pod && dst.switch() == index {
                    u16::from(suffix.host)
                } else {
                    self.uplink(suffix.edge_up, flow, 0)
                }
            }
            Role::Agg { pod } => {
                if dst.pod() == pod {
                    u16::from(dst.switch()) // down to the edge
                } else {
                    self.uplink(suffix.agg_up, flow, 16)
                }
            }
            Role::Core => u16::from(dst.pod()),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;
    use xmp_netsim::{Ctx, Ecn, Packet};

    #[derive(Default)]
    struct Probe {
        got: Vec<(Addr, u64)>,
    }
    impl Agent<u64> for Probe {
        fn on_packet(&mut self, pkt: Packet<u64>, _port: PortId, _ctx: &mut Ctx<'_, u64>) {
            self.got.push((pkt.dst, pkt.payload));
        }
        fn on_timer(&mut self, _t: u64, _ctx: &mut Ctx<'_, u64>) {}
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn build(k: usize) -> (Sim<u64>, FatTree) {
        let mut sim: Sim<u64> = Sim::new(1);
        let cfg = FatTreeConfig {
            k,
            ..FatTreeConfig::paper(QdiscConfig::DropTail { cap: 100 })
        };
        let ft = FatTree::build(&mut sim, &cfg, |_| Box::<Probe>::default());
        (sim, ft)
    }

    #[test]
    fn paper_scale_k8() {
        let (sim, ft) = build(8);
        assert_eq!(ft.hosts.len(), 128);
        assert_eq!(ft.edges.len() + ft.aggs.len() + ft.cores.len(), 80);
        assert_eq!(ft.rack_links.len(), 128);
        assert_eq!(ft.agg_links.len(), 8 * 16);
        assert_eq!(ft.core_links.len(), 16 * 8);
        assert_eq!(sim.node_count(), 128 + 80);
        assert_eq!(ft.tag_count(), 16);
    }

    #[test]
    fn tag_space_caps_at_the_address_octet() {
        // Full (k/2)² diversity while every alias fits the fourth octet…
        assert_eq!(FatTree::tag_count_for(4), 4);
        assert_eq!(FatTree::tag_count_for(8), 16);
        assert_eq!(FatTree::tag_count_for(12), 36);
        // …then capped to what the octet can encode.
        assert_eq!(FatTree::tag_count_for(16), 31);
        assert_eq!(FatTree::tag_count_for(32), 15);

        // A k = 16 tree builds, and the highest tag's alias still routes:
        // the last octet of every bound alias stays within u8.
        let (sim, ft) = build(16);
        assert_eq!(ft.hosts.len(), 1024);
        assert_eq!(ft.tag_count(), 31);
        let t = ft.tag_count() - 1;
        let a = ft.host_addr(0, t);
        assert_eq!(sim.lookup_addr(a), Some(ft.host(0)));
    }

    #[test]
    fn partition_plan_keeps_pods_whole() {
        let (sim, ft) = build(8);
        for workers in [1, 2, 4, 8] {
            let plan = ft.partition_plan(workers);
            assert_eq!(plan.workers(), workers);
            assert_eq!(plan.assignment().len(), sim.node_count());
            let pods_per_shard = 8 / workers;
            for (i, &host) in ft.hosts.iter().enumerate() {
                let (p, e, _) = ft.locate(i);
                let shard = (p / pods_per_shard) as u32;
                assert_eq!(plan.owner(host), shard);
                assert_eq!(plan.owner(ft.edges[p * 4 + e]), shard);
            }
            for (c, &core) in ft.cores.iter().enumerate() {
                assert_eq!(plan.owner(core), (c % workers) as u32);
            }
        }
    }

    #[test]
    fn partition_plan_balances_non_divisor_worker_counts() {
        // Non-divisor worker counts are legal: pods stay whole, blocks stay
        // consecutive, and no shard carries more than one extra pod.
        for (k, workers) in [(4, 3), (8, 3), (8, 5), (8, 6), (8, 7), (16, 5)] {
            let (_, ft) = build(k);
            let plan = ft.partition_plan(workers);
            assert_eq!(plan.workers(), workers);
            let mut pods_per_shard = vec![0usize; workers];
            let mut prev = 0u32;
            for pod in 0..k {
                let shard = plan.owner(ft.edges[pod * (k / 2)]);
                assert!(shard >= prev, "pod blocks must be consecutive");
                prev = shard;
                pods_per_shard[shard as usize] += 1;
                // Every node in the pod rides with its edge switches.
                for e in 0..k / 2 {
                    assert_eq!(plan.owner(ft.edges[pod * (k / 2) + e]), shard);
                    assert_eq!(plan.owner(ft.aggs[pod * (k / 2) + e]), shard);
                }
                for h in 0..(k / 2) * (k / 2) {
                    assert_eq!(plan.owner(ft.hosts[pod * (k / 2) * (k / 2) + h]), shard);
                }
            }
            let (min, max) = (
                *pods_per_shard.iter().min().unwrap(),
                *pods_per_shard.iter().max().unwrap(),
            );
            assert!(min >= 1, "every shard owns at least one pod");
            assert!(
                max - min <= 1,
                "pod imbalance at most one ({pods_per_shard:?})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "must not exceed pod count")]
    fn partition_plan_rejects_more_workers_than_pods() {
        let (_, ft) = build(4);
        let _ = ft.partition_plan(5);
    }

    #[test]
    fn locate_round_trips() {
        let (_, ft) = build(4);
        for i in 0..ft.hosts.len() {
            let (p, e, h) = ft.locate(i);
            assert_eq!(ft.host(i), ft.hosts[(p * 2 + e) * 2 + h]);
        }
    }

    #[test]
    fn categories() {
        let (_, ft) = build(8);
        assert_eq!(ft.category(0, 1), FlowCategory::InnerRack);
        assert_eq!(ft.category(0, 4), FlowCategory::InterRack);
        assert_eq!(ft.category(0, 16), FlowCategory::InterPod);
    }

    fn send_and_receive(k: usize, src: usize, dst: usize, tag: usize) {
        let (mut sim, ft) = build(k);
        let d = ft.host_addr(dst, tag);
        let s = ft.host_addr(src, 0);
        let payload = (src * 1000 + dst) as u64;
        sim.with_agent::<Probe, _>(ft.host(src), |_, ctx| {
            ctx.send(
                PortId(0),
                Packet::new(
                    s,
                    d,
                    FlowId(7),
                    Ecn::NotEct,
                    xmp_des::ByteSize::from_bytes(1500),
                    payload,
                ),
            );
        });
        sim.run_until_quiet(xmp_des::SimTime::from_millis(10));
        let got = sim.with_agent::<Probe, _>(ft.host(dst), |p, _| p.got.clone());
        assert_eq!(got, vec![(d, payload)], "k={k} {src}->{dst} tag={tag}");
    }

    #[test]
    fn delivers_across_every_locality() {
        send_and_receive(4, 0, 1, 0); // inner rack
        send_and_receive(4, 0, 2, 1); // inter rack
        send_and_receive(4, 0, 15, 3); // inter pod
        send_and_receive(8, 0, 127, 15);
        send_and_receive(8, 127, 0, 9);
    }

    #[test]
    fn tags_reach_distinct_cores() {
        // For an inter-pod pair, each tag must cross a different core
        // switch. Trace which core link carries the packet by delivered
        // counters.
        let k = 4;
        for dst_host in 0..2 {
            let mut seen = std::collections::HashSet::new();
            for tag in 0..4 {
                let (mut sim, ft) = build(k);
                let src = 0;
                let dst = 12 + dst_host; // pod 3
                let d = ft.host_addr(dst, tag);
                sim.with_agent::<Probe, _>(ft.host(src), |_, ctx| {
                    ctx.send(
                        PortId(0),
                        Packet::new(
                            ft.host_addr(src, 0),
                            d,
                            FlowId(1),
                            Ecn::NotEct,
                            xmp_des::ByteSize::from_bytes(1500),
                            1,
                        ),
                    );
                });
                sim.run_until_quiet(xmp_des::SimTime::from_millis(10));
                // Find which core links saw traffic.
                let mut used = Vec::new();
                for (li, &l) in ft.core_links.iter().enumerate() {
                    let link = sim.link(l);
                    if link.dirs[0].stats.delivered + link.dirs[1].stats.delivered > 0 {
                        used.push(li / k); // core index (i*h+j)
                    }
                }
                assert_eq!(used.len(), 2, "up + down through exactly one core");
                assert_eq!(used[0], used[1], "same core for up and down leg");
                seen.insert(used[0]);
            }
            assert_eq!(seen.len(), 4, "4 tags -> 4 distinct cores (k=4)");
        }
    }

    #[test]
    fn inter_pod_rtt_matches_paper_budget() {
        // 1500B data + hop delays: 6 hops each way; serialization 12us per
        // hop at 1Gbps. One-way prop: 20+30+40+40+30+20 = 180us.
        let (mut sim, ft) = build(8);
        let d = ft.host_addr(127, 0);
        sim.with_agent::<Probe, _>(ft.host(0), |_, ctx| {
            ctx.send(
                PortId(0),
                Packet::new(
                    ft.host_addr(0, 0),
                    d,
                    FlowId(1),
                    Ecn::NotEct,
                    xmp_des::ByteSize::from_bytes(1500),
                    1,
                ),
            );
        });
        sim.run_until_quiet(xmp_des::SimTime::from_millis(10));
        let one_way = sim.now().as_micros();
        // 180us prop + 6 x 12us serialization = 252us.
        assert_eq!(one_way, 252);
    }

    fn build_ecmp(k: usize) -> (Sim<u64>, FatTree) {
        let mut sim: Sim<u64> = Sim::new(1);
        let cfg = FatTreeConfig {
            k,
            routing: RoutingMode::EcmpPerFlow,
            ..FatTreeConfig::paper(QdiscConfig::DropTail { cap: 100 })
        };
        let ft = FatTree::build(&mut sim, &cfg, |_| Box::<Probe>::default());
        (sim, ft)
    }

    #[test]
    fn ecmp_mode_delivers_and_is_per_flow_consistent() {
        for flow in [1u64, 77, 12345] {
            let (mut sim, ft) = build_ecmp(4);
            let (src, dst) = (0usize, 13usize);
            let d = ft.host_addr(dst, 0);
            sim.with_agent::<Probe, _>(ft.host(src), |_, ctx| {
                for i in 0..3 {
                    ctx.send(
                        PortId(0),
                        Packet::new(
                            ft.host_addr(src, 0),
                            d,
                            FlowId(flow),
                            Ecn::NotEct,
                            xmp_des::ByteSize::from_bytes(1500),
                            i,
                        ),
                    );
                }
            });
            sim.run_until_quiet(xmp_des::SimTime::from_millis(10));
            let got = sim.with_agent::<Probe, _>(ft.host(dst), |p, _| p.got.len());
            assert_eq!(got, 3, "flow {flow}");
            // All three packets crossed exactly one core (flow-consistent).
            let cores_used = ft
                .core_links
                .iter()
                .filter(|&&l| {
                    sim.link(l).dirs[0].stats.delivered > 0
                        || sim.link(l).dirs[1].stats.delivered > 0
                })
                .count();
            assert_eq!(cores_used, 2, "one up + one down core hop per flow");
        }
    }

    #[test]
    fn ecmp_spreads_flows_across_cores() {
        let (mut sim, ft) = build_ecmp(4);
        let (src, dst) = (0usize, 13usize);
        let d = ft.host_addr(dst, 0);
        sim.with_agent::<Probe, _>(ft.host(src), |_, ctx| {
            for f in 0..32u64 {
                ctx.send(
                    PortId(0),
                    Packet::new(
                        ft.host_addr(src, 0),
                        d,
                        FlowId(f),
                        Ecn::NotEct,
                        xmp_des::ByteSize::from_bytes(1500),
                        f,
                    ),
                );
            }
        });
        sim.run_until_quiet(xmp_des::SimTime::from_millis(10));
        let cores_used = (0..4)
            .filter(|&c| {
                ft.core_links[c * 4..(c + 1) * 4].iter().any(|&l| {
                    sim.link(l).dirs[0].stats.delivered > 0
                        || sim.link(l).dirs[1].stats.delivered > 0
                })
            })
            .count();
        assert!(
            cores_used >= 3,
            "32 flows should spread: {cores_used} cores"
        );
    }

    /// Every (src, dst, tag) triple delivers to the right host (k=4).
    /// 250 seeded triples plus the exhaustive tag sweep on each pair.
    #[test]
    fn routing_delivers_seeded() {
        for seed in 0..250u64 {
            let mut rng = xmp_des::SimRng::new(seed);
            let src = rng.index(16);
            let dst = rng.index(16);
            if src == dst {
                continue;
            }
            let tag = rng.index(4);
            send_and_receive(4, src, dst, tag);
        }
    }

    /// ECMP mode also always delivers, for any flow id.
    #[test]
    fn ecmp_delivers_seeded() {
        for seed in 0..250u64 {
            let mut rng = xmp_des::SimRng::new(seed);
            let src = rng.index(16);
            let dst = rng.index(16);
            if src == dst {
                continue;
            }
            let flow = rng.uniform_u64(0, 999);
            let (mut sim, ft) = build_ecmp(4);
            let d = ft.host_addr(dst, 0);
            sim.with_agent::<Probe, _>(ft.host(src), |_, ctx| {
                ctx.send(
                    PortId(0),
                    Packet::new(
                        ft.host_addr(src, 0),
                        d,
                        FlowId(flow),
                        Ecn::NotEct,
                        xmp_des::ByteSize::from_bytes(1500),
                        9,
                    ),
                );
            });
            sim.run_until_quiet(xmp_des::SimTime::from_millis(10));
            assert_eq!(
                sim.with_agent::<Probe, _>(ft.host(dst), |p, _| p.got.len()),
                1,
                "seed {seed}: flow {flow} from {src} to {dst} not delivered"
            );
        }
    }
}
