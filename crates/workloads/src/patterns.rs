//! The paper's fat-tree traffic patterns (Section 5.2.1).
//!
//! * **Permutation** — every host sends to a random distinct destination;
//!   when all flows of a wave finish, a new permutation starts. Flow sizes
//!   uniform in [64 MB, 512 MB] (scaled by `scale`).
//! * **Random** — every host keeps one outgoing flow to a random host
//!   (each host the destination of ≤ 4 flows); sizes Pareto(1.5) with mean
//!   192 MB capped at 768 MB (scaled).
//! * **Incast** — 8 concurrent Jobs: a client sends 2 KB requests to 8
//!   servers, each answers with a 64 KB response; a Job ends when all
//!   responses arrive, then a new one starts. Small flows always use plain
//!   TCP; every host additionally runs a Random-pattern large flow (source
//!   and sink in different racks) as background traffic.
//!
//! MPTCP flows pick `n` distinct random path tags (distinct core paths);
//! single-path flows pick one random tag — the per-flow path placement
//! ECMP would give, under the deterministic two-level lookup.

use crate::driver::{Driver, FlowSim, FlowSpecBuilder};
use crate::scheme::Scheme;
use xmp_des::{SimRng, SimTime};
use xmp_netsim::hash::FxHashMap;
use xmp_netsim::PortId;
use xmp_topo::testbed::Path;
use xmp_topo::FatTree;
use xmp_transport::{ConnKey, SubflowSpec};

/// Shared pattern parameters.
#[derive(Clone, Debug)]
pub struct PatternConfig {
    /// Scheme used by large flows.
    pub scheme: Scheme,
    /// RNG seed (patterns derive their own streams from it).
    pub seed: u64,
    /// Divide the paper's flow sizes by this factor (EXPERIMENTS.md
    /// records the scale used for each run).
    pub scale: u64,
    /// Stop creating new large flows after this many have been started.
    pub max_flows: usize,
}

impl PatternConfig {
    /// A config with the given scheme and defaults suitable for tests.
    pub fn new(scheme: Scheme, seed: u64, scale: u64, max_flows: usize) -> Self {
        assert!(scale >= 1);
        PatternConfig {
            scheme,
            seed,
            scale,
            max_flows,
        }
    }
}

const MB: u64 = 1 << 20;

/// The subflow binding that rides one testbed or torus [`Path`].
pub fn path_spec(p: Path) -> SubflowSpec {
    SubflowSpec {
        local_port: p.port,
        src: p.src,
        dst: p.dst,
    }
}

/// Build the subflow specs for a fat-tree flow with `n` subflows on
/// distinct random path tags.
pub fn fat_tree_subflows(
    ft: &FatTree,
    src: usize,
    dst: usize,
    n: usize,
    rng: &mut SimRng,
) -> Vec<SubflowSpec> {
    let tags = rng.choose_distinct(ft.tag_count(), n.min(ft.tag_count()));
    tags.into_iter()
        .map(|t| SubflowSpec {
            local_port: PortId(0),
            src: ft.host_addr(src, t),
            dst: ft.host_addr(dst, t),
        })
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn submit_large_flow(
    driver: &mut Driver,
    ft: &FatTree,
    rng: &mut SimRng,
    scheme: Scheme,
    src: usize,
    dst: usize,
    size: u64,
    start: SimTime,
    tag: u64,
) -> ConnKey {
    let subflows = fat_tree_subflows(ft, src, dst, scheme.subflow_count(), rng);
    driver.submit(FlowSpecBuilder {
        src_node: ft.host(src),
        subflows,
        size,
        scheme,
        start,
        category: Some(ft.category(src, dst)),
        tag,
    })
}

/// The Permutation pattern.
pub struct PermutationPattern {
    cfg: PatternConfig,
    rng: SimRng,
    outstanding: usize,
    started: usize,
}

impl PermutationPattern {
    /// New pattern driver.
    pub fn new(cfg: PatternConfig) -> Self {
        let rng = SimRng::new(cfg.seed).derive(0x9e37);
        PermutationPattern {
            cfg,
            rng,
            outstanding: 0,
            started: 0,
        }
    }

    /// Large flows started so far.
    pub fn started(&self) -> usize {
        self.started
    }

    fn flow_size(&mut self) -> u64 {
        let lo = 64 * MB / self.cfg.scale;
        let hi = 512 * MB / self.cfg.scale;
        self.rng.uniform_u64(lo.max(1), hi.max(2))
    }

    /// Launch the first wave at the current simulation time.
    pub fn start<S: FlowSim>(&mut self, sim: &mut S, driver: &mut Driver, ft: &FatTree) {
        self.wave(sim, driver, ft);
    }

    fn wave<S: FlowSim>(&mut self, sim: &mut S, driver: &mut Driver, ft: &FatTree) {
        if self.started >= self.cfg.max_flows {
            return;
        }
        let n = ft.hosts.len();
        let perm = self.rng.permutation(n);
        let now = sim.now();
        for (src, &dst) in perm.iter().enumerate() {
            if dst == src {
                continue; // a host never sends to itself
            }
            if self.started >= self.cfg.max_flows {
                break;
            }
            let size = self.flow_size();
            submit_large_flow(
                driver,
                ft,
                &mut self.rng,
                self.cfg.scheme,
                src,
                dst,
                size,
                now,
                0,
            );
            self.started += 1;
            self.outstanding += 1;
        }
    }

    /// Completion hook: starts the next wave when the current one drains.
    pub fn on_complete<S: FlowSim>(
        &mut self,
        sim: &mut S,
        driver: &mut Driver,
        ft: &FatTree,
        _conn: ConnKey,
    ) {
        self.outstanding = self.outstanding.saturating_sub(1);
        if self.outstanding == 0 {
            self.wave(sim, driver, ft);
        }
    }
}

/// The Random pattern.
pub struct RandomPattern {
    cfg: PatternConfig,
    rng: SimRng,
    incoming: Vec<u32>,
    flows: FxHashMap<ConnKey, (usize, usize)>,
    started: usize,
    /// Force source and destination into different racks (the paper's
    /// constraint on Incast background flows).
    pub rack_constraint: bool,
    /// Optional per-host scheme override (Table 2's coexistence runs).
    pub host_schemes: Option<Vec<Scheme>>,
}

impl RandomPattern {
    /// New pattern driver.
    pub fn new(cfg: PatternConfig) -> Self {
        let rng = SimRng::new(cfg.seed).derive(0x517c);
        RandomPattern {
            cfg,
            rng,
            incoming: Vec::new(),
            flows: FxHashMap::default(),
            started: 0,
            rack_constraint: false,
            host_schemes: None,
        }
    }

    /// Large flows started so far.
    pub fn started(&self) -> usize {
        self.started
    }

    fn flow_size(&mut self) -> u64 {
        let s = self.cfg.scale as f64;
        let mb = self.rng.pareto(1.5, 192.0 / s, 64.0 / s, 768.0 / s);
        ((mb * MB as f64) as u64).max(1)
    }

    fn scheme_for(&self, host: usize) -> Scheme {
        self.host_schemes
            .as_ref()
            .map_or(self.cfg.scheme, |v| v[host])
    }

    fn pick_dst(&mut self, ft: &FatTree, src: usize) -> usize {
        let n = ft.hosts.len();
        for _ in 0..64 {
            let dst = self.rng.index(n);
            if dst == src || self.incoming[dst] >= 4 {
                continue;
            }
            if self.rack_constraint && ft.category(src, dst) == xmp_topo::FlowCategory::InnerRack {
                continue;
            }
            return dst;
        }
        // Dense fallback: first admissible destination.
        (0..n)
            .find(|&d| d != src && self.incoming[d] < 4)
            .unwrap_or((src + 1) % n)
    }

    /// Start one flow from every host.
    pub fn start<S: FlowSim>(&mut self, sim: &mut S, driver: &mut Driver, ft: &FatTree) {
        self.incoming.resize(ft.hosts.len(), 0);
        for src in 0..ft.hosts.len() {
            self.launch_from(sim, driver, ft, src);
        }
    }

    fn launch_from<S: FlowSim>(
        &mut self,
        sim: &mut S,
        driver: &mut Driver,
        ft: &FatTree,
        src: usize,
    ) {
        if self.started >= self.cfg.max_flows {
            return;
        }
        let dst = self.pick_dst(ft, src);
        let size = self.flow_size();
        let scheme = self.scheme_for(src);
        let conn = submit_large_flow(
            driver,
            ft,
            &mut self.rng,
            scheme,
            src,
            dst,
            size,
            sim.now(),
            0,
        );
        self.incoming[dst] += 1;
        self.flows.insert(conn, (src, dst));
        self.started += 1;
    }

    /// Completion hook: the source immediately issues a new flow.
    pub fn on_complete<S: FlowSim>(
        &mut self,
        sim: &mut S,
        driver: &mut Driver,
        ft: &FatTree,
        conn: ConnKey,
    ) {
        let Some((src, dst)) = self.flows.remove(&conn) else {
            return; // not one of ours
        };
        self.incoming[dst] = self.incoming[dst].saturating_sub(1);
        self.launch_from(sim, driver, ft, src);
    }
}

/// The Incast pattern: jobs over TCP plus Random background flows.
pub struct IncastPattern {
    /// Background large-flow pattern (rack-constrained).
    pub background: RandomPattern,
    rng: SimRng,
    jobs: Vec<Job>,
    roles: FxHashMap<ConnKey, (usize, Role)>,
    /// Completed job durations (ms).
    pub job_times_ms: Vec<f64>,
    request_bytes: u64,
    response_bytes: u64,
    fanout: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Request { server: usize },
    Response,
}

#[derive(Debug)]
struct Job {
    client: usize,
    pending: usize,
    start: SimTime,
}

impl IncastPattern {
    /// Paper parameters: 8 jobs × (1 client + 8 servers), 2 KB requests,
    /// 64 KB responses.
    pub fn new(cfg: PatternConfig) -> Self {
        let mut background = RandomPattern::new(cfg.clone());
        background.rack_constraint = true;
        IncastPattern {
            background,
            rng: SimRng::new(cfg.seed).derive(0x1ca5),
            jobs: Vec::new(),
            roles: FxHashMap::default(),
            job_times_ms: Vec::new(),
            request_bytes: 2 * 1024,
            response_bytes: 64 * 1024,
            fanout: 8,
        }
    }

    /// Start `n_jobs` concurrent jobs plus the background flows.
    pub fn start<S: FlowSim>(
        &mut self,
        sim: &mut S,
        driver: &mut Driver,
        ft: &FatTree,
        n_jobs: usize,
    ) {
        self.background.start(sim, driver, ft);
        for j in 0..n_jobs {
            self.jobs.push(Job {
                client: 0,
                pending: 0,
                start: sim.now(),
            });
            self.start_job(sim, driver, ft, j);
        }
    }

    fn start_job<S: FlowSim>(&mut self, sim: &mut S, driver: &mut Driver, ft: &FatTree, j: usize) {
        let picks = self.rng.choose_distinct(ft.hosts.len(), self.fanout + 1);
        let client = picks[0];
        let now = sim.now();
        self.jobs[j] = Job {
            client,
            pending: self.fanout,
            start: now,
        };
        for &server in &picks[1..] {
            // Request: client → server, small TCP flow.
            let conn = submit_small_flow(
                driver,
                ft,
                &mut self.rng,
                client,
                server,
                self.request_bytes,
                now,
                j as u64,
            );
            self.roles.insert(conn, (j, Role::Request { server }));
        }
    }

    /// Completion hook for every flow in the run (jobs first, then
    /// background).
    pub fn on_complete<S: FlowSim>(
        &mut self,
        sim: &mut S,
        driver: &mut Driver,
        ft: &FatTree,
        conn: ConnKey,
    ) {
        let Some((j, role)) = self.roles.remove(&conn) else {
            self.background.on_complete(sim, driver, ft, conn);
            return;
        };
        match role {
            Role::Request { server } => {
                // The server answers with the response flow.
                let client = self.jobs[j].client;
                let rc = submit_small_flow(
                    driver,
                    ft,
                    &mut self.rng,
                    server,
                    client,
                    self.response_bytes,
                    sim.now(),
                    j as u64,
                );
                self.roles.insert(rc, (j, Role::Response));
            }
            Role::Response => {
                self.jobs[j].pending -= 1;
                if self.jobs[j].pending == 0 {
                    let dur = sim.now().duration_since(self.jobs[j].start);
                    self.job_times_ms.push(dur.as_nanos() as f64 / 1e6);
                    self.start_job(sim, driver, ft, j);
                }
            }
        }
    }

    /// Completed jobs so far.
    pub fn jobs_completed(&self) -> usize {
        self.job_times_ms.len()
    }
}

#[allow(clippy::too_many_arguments)]
fn submit_small_flow(
    driver: &mut Driver,
    ft: &FatTree,
    rng: &mut SimRng,
    src: usize,
    dst: usize,
    size: u64,
    start: SimTime,
    tag: u64,
) -> ConnKey {
    let subflows = fat_tree_subflows(ft, src, dst, 1, rng);
    driver.submit(FlowSpecBuilder {
        src_node: ft.host(src),
        subflows,
        size,
        scheme: Scheme::Tcp,
        start,
        category: Some(ft.category(src, dst)),
        tag: 1_000_000 + tag, // distinguish job flows in the records
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Host;
    use xmp_netsim::QdiscConfig;
    use xmp_netsim::Sim;
    use xmp_topo::FatTreeConfig;
    use xmp_transport::Segment;
    use xmp_transport::{HostStack, StackConfig};

    fn small_ft(seed: u64) -> (Sim<Segment, Host>, FatTree) {
        let mut sim: Sim<Segment, Host> = Sim::new(seed);
        let cfg = FatTreeConfig {
            k: 4,
            ..FatTreeConfig::paper(QdiscConfig::EcnThreshold { cap: 100, k: 10 })
        };
        let ft = FatTree::build(&mut sim, &cfg, |_| HostStack::new(StackConfig::default()));
        (sim, ft)
    }

    #[test]
    fn subflow_tags_are_distinct() {
        let (_, ft) = small_ft(1);
        let mut rng = SimRng::new(5);
        let subs = fat_tree_subflows(&ft, 0, 15, 4, &mut rng);
        assert_eq!(subs.len(), 4);
        let mut dsts: Vec<_> = subs.iter().map(|s| s.dst).collect();
        dsts.sort();
        dsts.dedup();
        assert_eq!(dsts.len(), 4, "distinct alias destinations");
    }

    #[test]
    fn permutation_wave_runs_to_completion_and_restarts() {
        let (mut sim, ft) = small_ft(2);
        let mut driver = Driver::new();
        let cfg = PatternConfig::new(Scheme::xmp(2), 11, 8192, 64);
        let mut pat = PermutationPattern::new(cfg);
        pat.start(&mut sim, &mut driver, &ft);
        let first_wave = pat.started();
        assert!(first_wave >= 12, "wave size {first_wave}");
        driver.run(&mut sim, SimTime::from_secs(3), |sim, d, c| {
            pat.on_complete(sim, d, &ft, c);
        });
        assert!(
            pat.started() > first_wave,
            "a second wave should have started ({} flows)",
            pat.started()
        );
        assert!(driver.completed_count() as usize >= first_wave);
        // Flows carry locality categories.
        assert!(driver.records().all(|r| r.category.is_some()));
    }

    #[test]
    fn random_pattern_keeps_one_flow_per_host() {
        let (mut sim, ft) = small_ft(3);
        let mut driver = Driver::new();
        let cfg = PatternConfig::new(Scheme::Dctcp, 13, 16384, 200);
        let mut pat = RandomPattern::new(cfg);
        pat.start(&mut sim, &mut driver, &ft);
        assert_eq!(pat.started(), 16);
        driver.run(&mut sim, SimTime::from_secs(2), |sim, d, c| {
            pat.on_complete(sim, d, &ft, c);
        });
        // Flows chain: far more started than the initial 16.
        assert!(pat.started() > 32, "started {}", pat.started());
        // Destination constraint held throughout.
        assert!(pat.incoming.iter().all(|&c| c <= 4));
    }

    #[test]
    fn incast_jobs_complete_and_measure_latency() {
        let (mut sim, ft) = small_ft(4);
        let mut driver = Driver::new();
        let cfg = PatternConfig::new(Scheme::xmp(2), 17, 32768, 64);
        let mut pat = IncastPattern::new(cfg);
        pat.start(&mut sim, &mut driver, &ft, 4);
        driver.run(&mut sim, SimTime::from_secs(2), |sim, d, c| {
            pat.on_complete(sim, d, &ft, c);
        });
        assert!(
            pat.jobs_completed() >= 8,
            "only {} jobs completed",
            pat.jobs_completed()
        );
        for &t in &pat.job_times_ms {
            assert!(t > 0.0 && t < 2_000.0, "job time {t}ms");
        }
        // Background flows sit in different racks by construction.
        for r in driver.records() {
            if r.tag < 1_000_000 {
                assert_ne!(r.category, Some(xmp_topo::FlowCategory::InnerRack));
            }
        }
    }
}
