//! The one builder from a [`Scenario`] to a simulation, and the runner
//! for the paper's runs.
//!
//! [`build`] turns any scenario — a paper run's variant, a chaos leg, the
//! `scale` and `hybrid` cells — into a [`Cell`]: the topology, probes, one
//! fault plan, every declared flow on one [`Driver`] and the `[pattern]`'s
//! traffic, started. Callers keep only what differs: how the run is
//! windowed and what it reports.
//!
//! Every run ends here too: [`Cell::finish`] fills in the records of the
//! flows still running, runs the one end-of-run [`audit`] and returns an
//! [`Outcome`]. A caller that pins the run's outcome — `scale` and
//! simcheck's legs — asks for [`Cell::digest`] after it.
//!
//! A paper run is a [`Scenario`] with a `[measure]`, such as the committed
//! `scenarios/paper/*.scn` ([`PAPER_RUNS`]). A time-series run builds one
//! cell per variant, bins the series with [`RateBins`] (split where a link
//! closes), records its `[probes]` and finishes; a `[pattern]` run builds
//! one per pattern kind and variant and runs it with [`suite::run_suite`].
//! A [`Report`] renders the measure's tables and holds each variant's probe
//! export.

use crate::common::{frac, mbps, TextTable};
use crate::scenario::{indexed, Column, FaultSpec, Kind, LinkAction, LinkRef, Measure, NodeRef};
use crate::scenario::{Paper, QdiscSpec, Scenario, Shape, Topology, Variant};
use crate::suite::{self, SuiteRun, Traffic};
use std::fmt;
use std::iter::once;
use xmp_conformance::text::TextError;
use xmp_des::{Bandwidth, SimDuration, SimTime};
use xmp_netsim::{Addr, FaultPlan, InvariantState, LinkId, NodeId, PortId, ProbeConfig};
use xmp_netsim::{ProbeRecord, Probes, Sim, SimProfile};
use xmp_topo::testbed::{Path, TestbedConfig};
use xmp_topo::torus::TorusConfig;
use xmp_topo::{Dumbbell, FatTree, FatTreeConfig, ShiftTestbed, Torus};
use xmp_transport::{ConnKey, HostStack, Segment, StackConfig, SubflowSpec};
use xmp_workloads::{
    jain_index, path_spec, Driver, FlowSim, FlowSpecBuilder, Host, PatternConfig, RateBins, Scheme,
};

/// The committed paper runs by command name, built in so that the commands
/// work from any directory.
pub const PAPER_RUNS: [(&str, &str); 8] = [
    ("fig1", include_str!("../../../scenarios/paper/fig1.scn")),
    ("fig4", include_str!("../../../scenarios/paper/fig4.scn")),
    ("fig6", include_str!("../../../scenarios/paper/fig6.scn")),
    ("fig7", include_str!("../../../scenarios/paper/fig7.scn")),
    (
        "failover",
        include_str!("../../../scenarios/paper/failover.scn"),
    ),
    (
        "fattree",
        include_str!("../../../scenarios/paper/fattree.scn"),
    ),
    (
        "table2",
        include_str!("../../../scenarios/paper/table2.scn"),
    ),
    (
        "dynamics",
        include_str!("../../../scenarios/paper/dynamics.scn"),
    ),
];

/// Parse a paper run: a series or pattern [`Scenario`] (see [`Kind`]).
pub fn load(text: &str) -> Result<Scenario, TextError> {
    Scenario::parse_as(text, &[Kind::Series, Kind::Pattern])
}

/// A built topology.
pub enum Net {
    Tree(FatTree),
    Dumbbell(Dumbbell),
    Shift(ShiftTestbed),
    Torus(Torus),
}

impl Net {
    /// Build `sc`'s topology, queueing at `qdisc`.
    fn build(sim: &mut Sim<Segment, Host>, sc: &Scenario, qdisc: QdiscSpec) -> Result<Net, String> {
        let ecn = match qdisc {
            QdiscSpec::Ecn { cap, k } => Ok((cap, k)),
            q => Err(format!("the testbed and ring mark by threshold, not `{q}`")),
        };
        let stack = StackConfig::default().with_rto_min(SimDuration::from_micros(sc.rto_min_us));
        let host = |_| HostStack::new(stack.clone());
        Ok(match sc.paper.topology {
            Topology::FatTree => {
                let mut cfg = FatTreeConfig::paper(qdisc.to_config());
                (cfg.k, cfg.routing) = (sc.k, sc.routing);
                Net::Tree(FatTree::try_build(sim, &cfg, host).map_err(|e| e.to_string())?)
            }
            Topology::Dumbbell(pairs, mbps, rtt_us) => {
                let (rate, rtt) = (Bandwidth::from_mbps(mbps), SimDuration::from_micros(rtt_us));
                let queue = qdisc.to_config();
                Net::Dumbbell(Dumbbell::build(sim, pairs, rate, rtt, queue, host))
            }
            Topology::ShiftTestbed => {
                let mut cfg = TestbedConfig::default();
                (cfg.queue_cap, cfg.k) = ecn?;
                Net::Shift(ShiftTestbed::build(sim, &cfg, host))
            }
            Topology::Torus => {
                let mut cfg = TorusConfig::default();
                (cfg.queue_cap, cfg.k) = ecn?;
                Net::Torus(Torus::build(sim, &cfg, host))
            }
        })
    }

    /// The fat tree, if this is one.
    pub fn tree(&self) -> Option<&FatTree> {
        match self {
            Net::Tree(ft) => Some(ft),
            _ => None,
        }
    }

    /// The source host and subflow binding of path ref `p`, if it exists
    /// here.
    pub(crate) fn path(&self, p: &str) -> Option<(NodeId, SubflowSpec)> {
        let (name, idx) = indexed(p, "path ref").ok()?;
        let (node, path) = match (self, name, &idx[..]) {
            (Net::Tree(ft), "ft", &[s, d, t]) => return host_path(ft, s, d, t).ok(),
            (Net::Dumbbell(db), "flow", &[i, 0]) => {
                let path = port0(Dumbbell::src_addr(i), Dumbbell::dst_addr(i));
                db.sources.get(i).map(|&n| (n, path))
            }
            (Net::Shift(tb), "flow", &[i, x]) => {
                let (one, two, three) = ([tb.flow1_path()], tb.flow2_paths(), [tb.flow3_path()]);
                let paths: [&[Path]; 3] = [&one, &two, &three];
                let path = paths.get(i).and_then(|v| v.get(x));
                path.map(|&path| (tb.s[i], path))
            }
            (Net::Shift(tb), "bg", &[i]) => tb.bg_src.get(i).map(|&n| (n, tb.bg_path(i))),
            (Net::Torus(r), "flow", &[i, x]) => {
                let node = r.src.get(i);
                node.and_then(|&n| Some((n, *r.flow_paths(i).get(x)?)))
            }
            (Net::Torus(r), "bg", &[0]) => Some((r.bg_src, r.bg_path())),
            _ => None,
        }?;
        Some((node, path_spec(path)))
    }

    /// The link `l` names, if it exists here.
    pub(crate) fn link(&self, l: LinkRef) -> Option<LinkId> {
        match (self, l) {
            (Net::Tree(ft), LinkRef::Core(i, j, p)) => {
                // (k/2)² cores, k pods.
                let h = ft.cores.len().isqrt();
                (i < h && j < h && p < 2 * h).then(|| ft.core_link(i, j, p))
            }
            (Net::Tree(ft), LinkRef::Agg(i)) => ft.agg_links.get(i).copied(),
            (Net::Tree(ft), LinkRef::Rack(i)) => ft.rack_links.get(i).copied(),
            (Net::Dumbbell(db), LinkRef::Bottleneck(0)) => Some(db.bottleneck),
            (Net::Shift(tb), LinkRef::Bottleneck(i)) => tb.dn.get(i).copied(),
            (Net::Torus(r), LinkRef::Bottleneck(i)) => r.bottlenecks.get(i).copied(),
            _ => None,
        }
    }

    /// The switch `n` names, if it exists here.
    fn switch(&self, n: NodeRef) -> Option<NodeId> {
        let ft = self.tree()?;
        let (layer, i) = match n {
            NodeRef::Edge(i) => (&ft.edges, i),
            NodeRef::Agg(i) => (&ft.aggs, i),
            NodeRef::Core(i) => (&ft.cores, i),
        };
        layer.get(i).copied()
    }
}

/// Fat-tree hosts `s` to `d` on tag `t`: the one resolver of host-indexed
/// paths, `ft/s/d/t` refs and `[flows]` lines alike.
fn host_path(ft: &FatTree, s: usize, d: usize, t: usize) -> Result<(NodeId, SubflowSpec), String> {
    let (n, tags) = (ft.hosts.len(), ft.tag_count());
    if s >= n || d >= n {
        return Err(format!("host index out of range (hosts = {n})"));
    }
    if s == d {
        return Err(format!("src == dst == {s}"));
    }
    if t >= tags {
        return Err(format!("tag {t} out of range (tag_count = {tags})"));
    }
    let path = port0(ft.host_addr(s, t), ft.host_addr(d, t));
    Ok((ft.host(s), path_spec(path)))
}

/// The path from `src` to `dst` on port 0.
fn port0(src: Addr, dst: Addr) -> Path {
    Path {
        port: PortId(0),
        src,
        dst,
    }
}

/// A scenario built and declared, not yet run: the simulation, its
/// network, the [`Driver`] holding every declared flow, their connections
/// (`[flows]` lines first, then `[schedule]` flows, each tagged with its
/// index here), the `close` events in time order, the `[pattern]`'s
/// traffic, and the watermarks of the run's [`audit`]s so far.
pub struct Cell {
    pub sim: Sim<Segment, Host>,
    pub net: Net,
    pub driver: Driver,
    pub conns: Vec<ConnKey>,
    pub(crate) closes: Vec<(SimTime, LinkId)>,
    pub traffic: Option<Traffic>,
    pub invariants: InvariantState,
}

/// How a cell's run ended: every failure of its end-of-run audit (one
/// description each; empty when the run is sound), the simulator's
/// profiling counters, the events the run scheduled (in all and past the
/// event wheel's window), the flows that completed and the final clock.
/// Costs and a verdict: no digest hashes it.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub failures: Vec<String>,
    pub profile: SimProfile,
    pub events_scheduled: u64,
    pub events_far: u64,
    pub completed: usize,
    pub end: SimTime,
}

impl Outcome {
    /// Each failure, after `name`.
    pub(crate) fn named<'a>(
        &'a self,
        name: impl fmt::Display + 'a,
    ) -> impl Iterator<Item = String> + 'a {
        self.failures.iter().map(move |f| format!("{name}: {f}"))
    }
}

/// The audit of a cell's run so far, at a run-window boundary, on the
/// cell's own fields so that a [`Driver::drive`] step can call it: one
/// description per failure of [`Sim::audit_invariants`] (conservation,
/// event storage, `busy_until` since the last audit on `invariants`,
/// timers), then the first window-bound violation
/// ([`MpSender::check_window_bounds`](xmp_transport::MpSender::check_window_bounds))
/// of each sender still running.
pub fn audit(
    sim: &mut Sim<Segment, Host>,
    driver: &Driver,
    invariants: &mut InvariantState,
) -> Vec<String> {
    let mut failures = Vec::new();
    sim.audit_invariants(invariants, &mut failures);
    for rec in driver.records().filter(|r| r.completed.is_none()) {
        let conn = rec.conn;
        sim.with_host(rec.src_node, |stack, _| {
            if let Some(Err(e)) = stack.sender(conn).map(|s| s.check_window_bounds()) {
                failures.push(format!("conn {conn} {e}"));
            }
        });
    }
    failures
}

impl Cell {
    /// End the run where it stands: fill in the records of the flows still
    /// running ([`Driver::finalize_running`]), [`audit`] it, let the
    /// audit's watermarks go, and return its [`Outcome`].
    pub fn finish(&mut self) -> Outcome {
        self.driver.finalize_running(&mut self.sim);
        let failures = audit(&mut self.sim, &self.driver, &mut self.invariants);
        self.invariants = InvariantState::default();
        let (sim, records) = (&self.sim, self.driver.records());
        Outcome {
            failures,
            profile: *sim.profile(),
            events_scheduled: sim.events_scheduled(),
            events_far: sim.events_far(),
            completed: records.filter(|r| r.completed.is_some()).count(),
            end: sim.now(),
        }
    }

    /// The finished run's [`Driver::outcome_digest`]: final clock, every
    /// flow record, the conservation report — or, when the books do not
    /// balance, the imbalance — every probe record and the per-kind event
    /// counts.
    pub fn digest(&self) -> u64 {
        let (sim, driver) = (&self.sim, &self.driver);
        match sim.try_audit_conservation() {
            Ok(report) => driver.outcome_digest(sim, &report),
            Err(e) => driver.outcome_digest(sim, &e),
        }
    }
}

/// The one way from a scenario to a simulation. It sets the tuning, builds
/// the topology (queueing at `variant`'s `cap` and `k`, if it sets them),
/// installs the probes (a chaos run's every `probe_interval_us` to its
/// horizon; a series run's every bin to its end, marks included) and one
/// fault plan — `[faults]` in µs, then `[schedule]`'s `down` and `up` in
/// epochs — declares the `[flows]` lines and the `[schedule]` flows (each
/// under its own scheme, else `variant`'s) to one driver, and starts the
/// `[pattern]`'s first kind on it (`variant`'s scheme, and `coexist`'s on
/// odd hosts). A name the network does not have, a host-indexed flow,
/// switch or pattern off the fat tree, or a pattern variant without a
/// scheme, is an error naming it.
pub fn build(sc: &Scenario, variant: Option<&Variant>) -> Result<Cell, String> {
    let (p, topology) = (&sc.paper, sc.paper.topology);
    let us = |t: u64| SimTime::ZERO + SimDuration::from_micros(t);
    let at = |epoch: u64| SimTime::ZERO + SimDuration::from_micros(p.unit_us) * epoch;
    let mut sim: Sim<Segment, Host> = Sim::new(sc.seed);
    sim.set_tuning(sc.tuning);
    let net = Net::build(&mut sim, sc, sc.qdisc_of(variant)?)?;
    let link = |l| net.link(l).ok_or(format!("no link {l} on {topology}"));
    let path = |q: &String| net.path(q).ok_or(format!("no path {q} on {topology}"));

    if !sc.probes.is_empty() {
        let series = sc.kind() == Kind::Series;
        let (every, until) = if series {
            (p.bin_us.unwrap_or(p.unit_us), at(p.epochs))
        } else {
            (sc.probe_interval_us, us(sc.horizon_us))
        };
        let mut pc = ProbeConfig::every(SimDuration::from_micros(every)).until(until);
        for &(l, dir) in &sc.probes {
            pc = pc.watch_queue(link(l)?, dir);
        }
        sim.install_probes(if series { pc.with_marks() } else { pc });
    }

    let mut plan = FaultPlan::new();
    for f in &sc.faults {
        plan = match f.event {
            FaultSpec::Down(l) => plan.link_down(us(f.at_us), link(l)?),
            FaultSpec::Up(l) => plan.link_up(us(f.at_us), link(l)?),
            FaultSpec::SwitchDown(n) => {
                let node = net
                    .switch(n)
                    .ok_or(format!("no switch {n} on {topology}"))?;
                plan.switch_down(us(f.at_us), node)
            }
        };
    }
    for &(l, rate) in &sc.loss {
        plan = plan
            .try_drop_rate(link(l)?, rate)
            .map_err(|e| e.to_string())?;
    }
    for &(l, rate) in &sc.corruption {
        plan = plan
            .try_corrupt_rate(link(l)?, rate)
            .map_err(|e| e.to_string())?;
    }
    // A closure is set between two bin runs, not planned.
    let mut closes = Vec::new();
    for &(epoch, action, l) in &p.links {
        plan = match action {
            LinkAction::Down => plan.link_down(at(epoch), link(l)?),
            LinkAction::Up => plan.link_up(at(epoch), link(l)?),
            LinkAction::Close => {
                closes.push((at(epoch), link(l)?));
                plan
            }
        };
    }
    if !plan.is_empty() {
        sim.try_install_fault_plan(&plan)
            .map_err(|e| e.to_string())?;
    }
    closes.sort_by_key(|c| c.0);

    let mut driver = Driver::new();
    let mut conns = Vec::with_capacity(sc.flows.len() + p.flows.len());
    for (i, f) in sc.flows.iter().enumerate() {
        let named = |e| format!("flow {i}: {e}");
        let why = format!("host indices need a fat tree, not {topology}");
        let ft = net.tree().ok_or_else(|| named(why))?;
        let paths = f.tags.iter().map(|&t| host_path(ft, f.src, f.dst, t));
        let paths: Vec<_> = paths.collect::<Result<_, _>>().map_err(named)?;
        conns.push(driver.submit(FlowSpecBuilder {
            src_node: ft.host(f.src),
            subflows: paths.into_iter().map(|(_, spec)| spec).collect(),
            size: f.size,
            scheme: f.scheme,
            start: us(f.start_us),
            category: Some(ft.category(f.src, f.dst)),
            tag: i as u64,
        }));
    }
    for f in &p.flows {
        let why = || format!("flow `{}` takes its scheme from a variant", f.name);
        let scheme = f.scheme_under(variant).ok_or_else(why)?;
        let opened = f.paths.get(..scheme.subflow_count()).unwrap_or_default();
        let paths: Vec<_> = opened.iter().map(path).collect::<Result<_, _>>()?;
        let Some(&(src_node, _)) = paths.first() else {
            return Err(format!("flow `{}` opens nothing", f.name));
        };
        let conn = driver.submit(FlowSpecBuilder {
            src_node,
            subflows: paths.into_iter().map(|(_, spec)| spec).collect(),
            size: u64::MAX,
            scheme,
            start: at(f.start),
            category: None,
            tag: conns.len() as u64,
        });
        if let Some(to) = f.stop {
            driver.stop_at(conn, at(to));
        }
        for (epoch, q) in &f.joins {
            driver.add_subflow_at(conn, at(*epoch), path(q)?.1);
        }
        conns.push(conn);
    }
    let traffic = p.pattern.as_ref().map(|spec| {
        let ft = net.tree();
        let ft = ft.ok_or_else(|| format!("a [pattern] needs a fat tree, not {topology}"))?;
        let v = variant.ok_or("the [pattern] takes its scheme from a variant")?;
        let why = || format!("variant `{}` names no scheme for the [pattern]", v.title);
        let (scheme, coexist) = (v.scheme.ok_or_else(why)?, v.coexist);
        let kind = *spec.kinds.first().ok_or("the [pattern] lists no kind")?;
        let cfg = PatternConfig::new(scheme, sc.seed, spec.scale, usize::MAX);
        Traffic::start(kind, cfg, coexist, (&mut sim, &mut driver, ft))
    });
    let traffic = traffic.transpose()?;
    Ok(Cell {
        sim,
        net,
        driver,
        conns,
        closes,
        traffic,
        invariants: InvariantState::default(),
    })
}

/// One variant's run: per bin, each series' summed member rates over its
/// capacity; per epoch, their means; the RTOs of the first series' flow;
/// the packets blackholed on the first `down` link; the first series'
/// [`Outage`], if the run has a `down`; what its `[probes]` recorded; and
/// how its cell finished.
#[derive(Debug)]
pub struct VariantRun {
    pub bins: Vec<Vec<f64>>,
    pub epochs: Vec<Vec<f64>>,
    pub rtos: u64,
    pub blackholed: u64,
    pub outage: Option<Outage>,
    pub probes: Option<Probes>,
    pub outcome: Outcome,
}

/// A finished paper run: its name, the scenario as run and one
/// [`VariantRun`] per variant or, for a `[pattern]` run, one [`SuiteRun`]
/// per pattern kind and variant (kind-major). `Display` renders the
/// measure's tables.
#[derive(Debug)]
pub struct Report {
    pub name: String,
    pub scenario: Scenario,
    pub runs: Vec<VariantRun>,
    pub cells: Vec<SuiteRun>,
}

/// Failover's summary of a series around the first `down` and the first
/// `up` after it (both in ms): the mean of the last three bins before the
/// failure and the worst bin from the failure's until the repair's, the
/// failure's own bin always included (bits/s), and the time from the
/// failure to the end of the first bin back at 90 % of that mean.
#[derive(Debug)]
pub struct Outage {
    pub down_ms: f64,
    pub up_ms: Option<f64>,
    pub pre_bps: f64,
    pub dip_bps: f64,
    pub recovery_ms: Option<f64>,
}

/// The [`Outage`] of `g`, one rate per bin, if `p` has a `down`.
fn outage(p: &Paper, g: &[f64]) -> Option<Outage> {
    let links = &p.links;
    let down = links.iter().find(|l| l.1 == LinkAction::Down)?.0;
    let up = links.iter().find(|l| l.1 == LinkAction::Up && l.0 >= down);
    let up = up.map(|l| l.0);
    let (unit, bin) = (p.unit_us, p.bin_us.unwrap_or(p.unit_us));
    let index = |epoch: u64| (unit * epoch / bin) as usize;
    let ms = |epoch: u64| (unit * epoch) as f64 / 1e3;
    let fail = index(down).min(g.len());
    let pre_from = fail.saturating_sub(3);
    let pre_bps = g[pre_from..fail].iter().sum::<f64>() / (fail - pre_from).max(1) as f64;
    let end = up.map_or(g.len(), |up| index(up).max(fail + 1).min(g.len()));
    let dip_bps = g[fail..end].iter().copied().fold(f64::INFINITY, f64::min);
    let back = g[fail..].iter().position(|&x| x >= 0.9 * pre_bps);
    let recovery_ms = back.map(|i| (i + 1) as f64 * bin as f64 / 1e3);
    let (down_ms, up_ms) = (ms(down), up.map(ms));
    Some(Outage {
        down_ms,
        up_ms,
        pre_bps,
        dip_bps,
        recovery_ms,
    })
}

/// Run every variant of paper run `name`, once per pattern kind if it has
/// a `[pattern]`. The name heads its probe exports.
pub fn run(name: &str, sc: &Scenario) -> Result<Report, String> {
    let m = sc
        .paper
        .measure
        .as_ref()
        .ok_or("no [measure]: not a paper run")?;
    let (variants, mut cells) = (&sc.paper.variants, Vec::new());
    for &kind in sc.paper.pattern.iter().flat_map(|p| &p.kinds) {
        let mut one = sc.clone();
        if let Some(p) = one.paper.pattern.as_mut() {
            p.kinds = vec![kind];
        }
        for v in variants {
            cells.push(suite::run_suite(&one, v)?);
        }
    }
    let series = variants.iter().filter(|_| sc.paper.pattern.is_none());
    let runs = series
        .map(|v| run_variant(sc, m, v))
        .collect::<Result<_, _>>()?;
    let (name, scenario) = (name.to_string(), sc.clone());
    Ok(Report {
        name,
        scenario,
        runs,
        cells,
    })
}

fn run_variant(sc: &Scenario, m: &Measure, v: &Variant) -> Result<VariantRun, String> {
    let p = &sc.paper;
    let unit = SimDuration::from_micros(p.unit_us);
    let bin = SimDuration::from_micros(p.bin_us.unwrap_or(p.unit_us));
    let mut cell = build(sc, Some(v))?;
    let (sim, driver) = (&mut cell.sim, &mut cell.driver);
    let planned = &cell.conns[sc.flows.len()..];
    let conn = |name: &str| {
        let i = p.flows.iter().position(|f| f.name == name);
        i.map(|i| planned[i]).ok_or(format!("no flow `{name}`"))
    };
    let series: Vec<(&[(String, usize)], f64)> = m.series().collect();
    let members = series
        .iter()
        .flat_map(|s| s.0.iter().map(|(f, x)| Ok((conn(f)?, *x))));
    let members = members.collect::<Result<Vec<_>, String>>()?;
    // The first series' flow, whose RTOs the run reports.
    let first = series.first().and_then(|s| s.0.first());
    let first = first.and_then(|(f, _)| conn(f).ok());
    let mut rates = RateBins::new(members, bin);
    let end = SimTime::ZERO + unit * p.epochs;
    // Bin by bin, a bin cut short where a link closes; after each, every
    // `[schedule]` flow's windows onto the probes.
    let mut closes = cell.closes.iter().peekable();
    let probed = sim.probes().map_or(&[][..], |_| planned);
    while sim.now() < end {
        while let Some(&(_, l)) = closes.next_if(|c| c.0 <= sim.now()) {
            sim.try_set_link_drop_prob(l, 1.0)
                .map_err(|e| e.to_string())?;
        }
        let next = closes.peek().map_or(end, |c| c.0.min(end));
        rates.run(driver, sim, (sim.now() + bin).min(next));
        let at = sim.now();
        for &conn in probed {
            let snaps = driver.subflow_snapshots(sim, conn);
            let Some(probes) = sim.probes_mut() else {
                break;
            };
            for s in snaps {
                probes.push(ProbeRecord::Cwnd {
                    at,
                    conn,
                    subflow: s.subflow as u32,
                    cwnd: s.cwnd,
                    ssthresh: s.ssthresh,
                    cc: s.cc,
                });
            }
        }
    }
    let outcome = cell.finish();
    let (sim, driver) = (&mut cell.sim, &cell.driver);
    let probes = sim.take_probes();

    let sums = |row: &Vec<f64>| {
        let mut row = row.iter();
        let mut sum = |n| row.by_ref().take(n).fold(0.0, |a, x| a + x);
        series.iter().map(|s| sum(s.0.len())).collect()
    };
    let raw: Vec<Vec<f64>> = rates.rows().iter().map(sums).collect();
    let over = |r: &Vec<f64>| r.iter().zip(&series).map(|(x, s)| x / s.1).collect();
    let bins: Vec<Vec<f64>> = raw.iter().map(over).collect();
    let goodput: Option<Vec<f64>> = raw.iter().map(|row| row.first().copied()).collect();
    let record = first.and_then(|c| driver.record(c));
    let dead = p.links.iter().find(|l| l.1 == LinkAction::Down);
    let blackholed = dead.and_then(|d| cell.net.link(d.2)).map_or(0, |l| {
        let dirs = &sim.link(l).dirs;
        dirs[0].stats.blackholed + dirs[1].stats.blackholed
    });
    Ok(VariantRun {
        epochs: rates.epoch_means(unit, &bins),
        rtos: record.map_or(0, |r| r.rtos),
        outage: goodput.and_then(|g| outage(p, &g)),
        probes,
        bins,
        blackholed,
        outcome,
    })
}

/// One variant's probe export as JSON Lines: a meta line naming the run,
/// variant, seed, topology, qdisc and epoch grid, then every record.
/// `Display` writes it one record at a time, so it is never held whole.
pub struct Export<'a> {
    meta: ProbeRecord,
    records: &'a [ProbeRecord],
}

impl Export<'_> {
    /// Its line count.
    pub fn lines(&self) -> usize {
        1 + self.records.len()
    }
}

impl fmt::Display for Export<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut lines = once(&self.meta).chain(self.records);
        lines.try_for_each(|r| writeln!(f, "{}", r.to_json()))
    }
}

/// A table titled `title` with header `head e1 … en`.
fn per_epoch(title: String, head: &str, n: usize) -> TextTable {
    let epochs = (1..=n).map(|e| format!("e{e}"));
    TextTable::new(title).header(once(head.to_string()).chain(epochs))
}

impl Report {
    /// Each probed variant's export: its file name, `<run>_<variant>.jsonl`
    /// (lower case, a character outside `[a-z0-9]` as `-`), and its
    /// [`Export`].
    pub fn exports(&self) -> impl Iterator<Item = (String, Export<'_>)> + '_ {
        let (sc, p) = (&self.scenario, &self.scenario.paper);
        let runs = p.variants.iter().zip(&self.runs);
        runs.filter_map(move |(v, r)| {
            let (probes, q) = (r.probes.as_ref()?, sc.qdisc_of(Some(v)).ok()?);
            let meta = ProbeRecord::Meta {
                experiment: self.name.clone(),
                scheme: v.title.clone(),
                seed: sc.seed,
                note: format!("{}, {q}, epoch {} us x {}", p.topology, p.unit_us, p.epochs),
            };
            let records = probes.records();
            Some((self.export_name(v), Export { meta, records }))
        })
    }

    fn export_name(&self, v: &Variant) -> String {
        let variant = v.title.to_lowercase();
        let variant = variant.replace(|c: char| !c.is_ascii_alphanumeric(), "-");
        format!("{}_{variant}.jsonl", self.name)
    }

    /// Every audit failure, after its variant's title (and a cell's
    /// pattern).
    pub fn audit_failures(&self) -> Vec<String> {
        let variants = &self.scenario.paper.variants;
        let runs = variants.iter().zip(&self.runs);
        let each = runs.flat_map(|(v, r)| r.outcome.named(&v.title));
        let cells = variants.iter().cycle().zip(&self.cells);
        let cells = cells.flat_map(|(v, c)| {
            let cell = format!("{}/{}", v.title, c.result.pattern.label());
            c.outcome.named(cell)
        });
        each.chain(cells).collect()
    }

    /// Table 2: per cell, its variant's title, queue and the mean goodput
    /// of each of its two schemes.
    fn coexist_table(&self, m: &Measure) -> TextTable {
        let head = [m.head.as_str(), "queue", "XMP", "other"];
        let mut t = TextTable::new(&m.title).header(head);
        let variants = self.scenario.paper.variants.iter().cycle();
        for (v, c) in variants.zip(&self.cells) {
            let by = &c.result.goodput_by_scheme;
            let bps = |s: Option<Scheme>| s.and_then(|s| by.get(&s.label()).copied());
            let mbps = |s| mbps(bps(s).unwrap_or(0.0));
            let q = self.scenario.qdisc_of(Some(v));
            let cap = q.map_or(0, |mut q| *q.cap_mut());
            let (xmp, other) = (mbps(v.scheme), mbps(v.coexist));
            t.row([v.title.clone(), format!("{cap} pkts"), xmp, other]);
        }
        t
    }

    /// Whether a flow of the `i`-th series runs in epoch `e`.
    pub fn series_alive(&self, i: usize, e: usize) -> bool {
        let p = &self.scenario.paper;
        let series = p.measure.iter().flat_map(Measure::series).nth(i);
        series.is_some_and(|s| s.0.iter().any(|(f, _)| p.runs(f, e as u64)))
    }

    /// One variant's table (`epochs` and `series` shapes).
    fn variant_table(&self, m: &Measure, v: &Variant, r: &VariantRun) -> TextTable {
        let title = format!("{} — {}", m.title, v.title);
        if m.table == Shape::Series {
            let mut t = per_epoch(title, &m.head, r.epochs.len());
            let series = m
                .columns
                .iter()
                .filter(|c| matches!(c.1, Column::Series(..)));
            for (i, (header, _)) in series.enumerate() {
                t.row(once(header.clone()).chain(r.epochs.iter().map(|row| frac(row[i]))));
            }
            return t;
        }
        let headers = m.columns.iter().map(|c| c.0.as_str());
        let mut t = TextTable::new(title).header(once(m.head.as_str()).chain(headers));
        for (e, means) in r.epochs.iter().enumerate() {
            let alive = (0..means.len()).filter(|&i| self.series_alive(i, e));
            let alive: Vec<f64> = alive.map(|i| means[i]).collect();
            let runs = |l: &&(String, String)| self.scenario.paper.runs(&l.0, e as u64);
            let mut series = means.iter();
            let cells = m.columns.iter().map(|c| match c.1 {
                Column::Series(..) => frac(series.next().copied().unwrap_or_default()),
                Column::Jain => frac(jain_index(&alive)),
                Column::Util => frac(alive.iter().sum()),
                Column::Alive => m
                    .labels
                    .iter()
                    .find(runs)
                    .map_or("-".into(), |l| l.1.clone()),
            });
            t.row(once(format!("{}", e + 1)).chain(cells));
        }
        t
    }

    /// The trace table: per variant, the cwnd rows, queue samples and CE
    /// marks its probes recorded, the last reduction count a subflow 0
    /// reported (0 for schemes without rounds), and its export.
    fn trace_table(&self, m: &Measure) -> TextTable {
        let ms = self.scenario.paper.unit_us as f64 / 1e3;
        let header = "cwnd pts|queue pts|marks|reductions|export".split('|');
        let t = TextTable::new(format!("{} ({ms} ms epochs)", m.title));
        let mut t = t.header(once(m.head.as_str()).chain(header));
        for (v, r) in self.scenario.paper.variants.iter().zip(&self.runs) {
            let mut n = [0; 4];
            for rec in r.probes.iter().flat_map(Probes::records) {
                match rec {
                    ProbeRecord::Cwnd { subflow, cc, .. } => {
                        n[0] += 1;
                        n[3] = cc
                            .filter(|_| *subflow == 0)
                            .map_or(n[3], |cc| cc.reductions);
                    }
                    ProbeRecord::Queue { .. } => n[1] += 1,
                    ProbeRecord::Mark { .. } => n[2] += 1,
                    _ => {}
                }
            }
            let cells = n.iter().map(u64::to_string).chain([self.export_name(v)]);
            t.row(once(v.title.clone()).chain(cells));
        }
        t
    }

    /// Failover's summary table and per-bin goodput, one row per variant.
    fn outage_tables(&self, m: &Measure) -> Option<[TextTable; 2]> {
        let o = self.runs.first()?.outage.as_ref()?;
        let repair = o.up_ms.map_or("never".into(), |up| format!("{up:.0} ms"));
        let down = format!("core link down at {:.0} ms, repaired {repair}", o.down_ms);
        let header = "pre (Mbps)|dip (Mbps)|recovery (ms)|RTOs|blackholed".split('|');
        let t = TextTable::new(format!("{} — {down}", m.title));
        let mut t = t.header(once(m.head.as_str()).chain(header));
        let title = format!("{} — per-epoch goodput / 1 Gbps access", m.title);
        let mut s = per_epoch(title, &m.head, self.runs[0].bins.len());
        for (v, r) in self.scenario.paper.variants.iter().zip(&self.runs) {
            let o = r.outage.as_ref()?;
            let recovery = o.recovery_ms.map_or("-".into(), |m| format!("{m:.0}"));
            let (pre, dip, rtos) = (mbps(o.pre_bps), mbps(o.dip_bps), r.rtos.to_string());
            t.row([
                v.title.clone(),
                pre,
                dip,
                recovery,
                rtos,
                r.blackholed.to_string(),
            ]);
            s.row(once(v.title.clone()).chain(r.bins.iter().map(|row| frac(row[0]))));
        }
        Some([t, s])
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Some(m) = &self.scenario.paper.measure else {
            return Ok(());
        };
        let runs = self.scenario.paper.variants.iter().zip(&self.runs);
        let tables: Vec<TextTable> = match m.table {
            Shape::Outage => self.outage_tables(m).into_iter().flatten().collect(),
            Shape::Suite => suite::render(self.cells.iter().map(|c| &c.result).collect()),
            Shape::Coexist => vec![self.coexist_table(m)],
            Shape::Trace => vec![self.trace_table(m)],
            _ => runs.map(|(v, r)| self.variant_table(m, v, r)).collect(),
        };
        tables.iter().try_for_each(|t| writeln!(f, "{t}"))?;
        // The time-series reports have always ended with a blank line more.
        let single = matches!(m.table, Shape::Suite | Shape::Coexist | Shape::Trace);
        f.write_str(if single { "" } else { "\n" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Paper;

    /// A one-pair 1 Gbps dumbbell cell whose source opens every subflow at
    /// `initial_cwnd`, one XMP-2 flow declared and run for 1 µs — before
    /// the SYN-ACK that would reach the sender's own per-segment check.
    fn window_cell(initial_cwnd: f64) -> Cell {
        let sc = Scenario {
            qdisc: QdiscSpec::Ecn { cap: 100, k: 10 },
            paper: Paper {
                topology: Topology::Dumbbell(1, 1000, 100),
                ..Paper::default()
            },
            ..Scenario::default()
        };
        let mut cell = build(&sc, None).expect("a dumbbell builds");
        let (src_node, spec) = cell.net.path("flow/0/0").expect("pair 0");
        // A field, not `with_initial_cwnd`, which refuses a NaN itself.
        let stack = StackConfig {
            initial_cwnd,
            ..StackConfig::default()
        };
        cell.sim
            .with_host(src_node, |host, _| *host = HostStack::new(stack));
        cell.driver.submit(FlowSpecBuilder {
            src_node,
            subflows: vec![spec, spec],
            size: u64::MAX,
            scheme: Scheme::xmp(2),
            start: SimTime::ZERO,
            category: None,
            tag: 0,
        });
        let t = SimTime::ZERO + SimDuration::from_micros(1);
        cell.driver.run(&mut cell.sim, t, |_, _, _| {});
        cell
    }

    #[test]
    fn a_nan_cwnd_fails_the_window_audit() {
        assert_eq!(window_cell(10.0).finish().failures, Vec::<String>::new());
        assert_eq!(
            window_cell(f64::NAN).finish().failures,
            ["conn 1 subflow 0: cwnd NaN outside [1.0, finite) (ssthresh inf)"]
        );
    }

    /// `finish` runs one audit: a failure it finds is named once, however
    /// many checks would see it, and the outcome is read off the finished
    /// run. No public call unbalances the packet ledger, so the
    /// conservation check's failure is not driven here.
    #[test]
    fn finish_names_each_failure_once() {
        let mut cell = window_cell(f64::NAN);
        let before = audit(&mut cell.sim, &cell.driver, &mut cell.invariants);
        let outcome = cell.finish();
        let mut distinct = outcome.failures.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), outcome.failures.len(), "{outcome:?}");
        assert_eq!(outcome.failures, before, "finish audits as `audit` does");
        assert_eq!(outcome.end, SimTime::ZERO + SimDuration::from_micros(1));
        assert_eq!(outcome.completed, 0);
        assert!(outcome.events_scheduled > 0, "{outcome:?}");
    }

    /// A `[schedule]` flow's own scheme wins over its variant's; a flow
    /// without one takes the variant's, and without a variant has none.
    #[test]
    fn a_flows_own_scheme_overrides_its_variants() {
        let sc = load(crate::ablation::COUPLING).expect("coupling.scn loads");
        let labels = |v: Option<&Variant>| {
            let mut cell = build(&sc, v)?;
            let t = SimTime::ZERO + SimDuration::from_micros(1);
            cell.driver.run(&mut cell.sim, t, |_, _, _| {});
            let records = cell.driver.records().map(|r| r.scheme.clone());
            Ok::<_, String>(records.collect::<Vec<_>>())
        };
        let [coupled, uncoupled] = &sc.paper.variants[..] else {
            panic!("two variants");
        };
        let single = ["XMP-1", "XMP-1", "XMP-1"];
        for (v, multi) in [(coupled, "XMP-3"), (uncoupled, "uXMP-3(b4)")] {
            let mut got = labels(Some(v)).expect("builds");
            got.sort();
            let mut want = [&[multi][..], &single].concat();
            want.sort();
            assert_eq!(got, want, "{}", v.title);
        }
        let e = labels(None).unwrap_err();
        assert_eq!(e, "flow `m` takes its scheme from a variant");
    }

    /// What the parser cannot check without a topology or a schedule is the
    /// run's error, not a panic: names, and a qdisc the testbeds and ring
    /// or a variant's `k` cannot use.
    #[test]
    fn unresolved_names_and_misfits_are_errors() {
        let head = "[sim]\nseed = 1\ntopology = torus\nunit_us = 1000\nepochs = 1\n[[variant]]\n";
        for (tail, want) in [
            (
                "[schedule]\nflow = a 0 - flow/9/0\n",
                "no path flow/9/0 on torus",
            ),
            (
                "[schedule]\nclose = 0 bottleneck/5\n",
                "no link bottleneck/5 on torus",
            ),
            (
                "[schedule]\ndown = 0 core/0/0/0\n",
                "no link core/0/0/0 on torus",
            ),
            ("[measure]\nseries = b/0 1e9 b\n", "no flow `b`"),
        ] {
            let sc = load(&format!("{head}{tail}[measure]\n")).expect("parses");
            assert_eq!(run("run", &sc).unwrap_err(), want);
        }
        let droptail = head.replace("epochs = 1\n", "epochs = 1\nqdisc = droptail cap=9\n");
        let sc = load(&format!("{droptail}[measure]\n")).expect("parses");
        assert!(run("run", &sc).unwrap_err().contains("mark by threshold"));
        let wide = head.replace("[[variant]]\n", "[[variant]]\nk = 101\n");
        let sc = load(&format!("{wide}[measure]\n")).expect("parses");
        assert!(run("run", &sc)
            .unwrap_err()
            .contains("k = 101 does not fit"));
        // Only a [pattern] run renders, and is rendered by, a suite table:
        // the load refuses any other pairing at its `table` line.
        let suite = load(&format!("{head}[measure]\ntable = suite\n")).unwrap_err();
        assert_eq!(suite.line, 8, "{suite}");
        assert!(suite
            .msg
            .contains("a series run renders epochs, series, outage or trace"));
        let fattree = PAPER_RUNS[5].1;
        let line = 1 + fattree
            .lines()
            .position(|l| l == "table = suite")
            .expect("a suite");
        let e = load(&fattree.replace("table = suite", "table = epochs")).unwrap_err();
        assert_eq!(e.line, line, "{e}");
        assert!(
            e.msg.contains("a pattern run renders suite or coexist"),
            "{e}"
        );
    }

    /// The chaos sections a paper run shares are honoured or refused, never
    /// ignored: `[faults]`, `[flows]` and a series run's `[probes]` reach
    /// the build, where a host-indexed flow, a switch off the fat tree or a
    /// missing watched link is an error naming it; the settings no paper
    /// report reads, and `[probes]` in a `[pattern]` run, fail the load at
    /// their line.
    #[test]
    fn a_paper_run_honours_or_refuses_every_section() {
        let base = "[sim]\nseed = 1\ntopology = dumbbell pairs=1 mbps=1000 rtt_us=100\n\
                    unit_us = 2000\nepochs = 2\n[[variant]]\nscheme = dctcp\n\
                    [schedule]\nflow = a 0 - flow/0/0\n[measure]\nseries = a/0 1e9 a\n";
        let bins =
            |tail: &str| run("run", &load(&format!("{base}{tail}")).unwrap()).map(|r| r.runs);
        let clean = bins("").unwrap();
        for faults in ["loss = bottleneck/0 0.05", "down = 0 bottleneck/0"] {
            let faulted = bins(&format!("[faults]\n{faults}\n")).unwrap();
            assert_ne!(faulted[0].bins, clean[0].bins, "{faults} changed nothing");
        }
        for (tail, want) in [
            (
                "[flows]\nflow = 0 1 100 tcp 0 0\n",
                "flow 0: host indices need a fat tree, not dumbbell",
            ),
            (
                "[faults]\nswitch_down = 0 core/0\n",
                "no switch core/0 on dumbbell",
            ),
            (
                "[probes]\nwatch = rack/999 0\n",
                "no link rack/999 on dumbbell",
            ),
        ] {
            let e = bins(tail).unwrap_err();
            assert!(e.starts_with(want), "{tail}: {e}");
        }
        let fattree = PAPER_RUNS[5].1;
        let pattern = format!("{fattree}[probes]\nwatch = rack/0 0\n");
        for (text, line, what) in [
            (
                format!("{base}[oracles]\nslices = 2\n"),
                12,
                "[oracles] is a chaos-run",
            ),
            (
                pattern,
                fattree.lines().count() + 1,
                "[probes] is a time-series setting",
            ),
        ] {
            let e = load(&text).unwrap_err();
            assert_eq!((e.line, &e.msg[..what.len()]), (line, what), "{e}");
        }
        for key in ["horizon_us = 9", "probe_interval_us = 9"] {
            let e =
                load(&base.replace("epochs = 2\n", &format!("epochs = 2\n{key}\n"))).unwrap_err();
            assert_eq!(e.line, 6, "{e}");
            assert!(e.msg.contains("no paper report reads"), "{e}");
        }
    }

    /// The event wheel's window covers what the paper's slowest links
    /// schedule: the testbed runs `fig4` and `fig6` at `--quick` (300 Mbps,
    /// K = 15) put at most 0.5 % of their events past it, about what their
    /// timers alone put there. A window shorter than a queued packet's
    /// `Deliver` on those links (2^14 slots, 1.05 ms) puts 2.3–2.8 % past.
    #[test]
    fn testbed_runs_schedule_inside_the_wheel_window() {
        for name in ["fig4", "fig6"] {
            let text = PAPER_RUNS
                .iter()
                .find(|r| r.0 == name)
                .expect("committed")
                .1;
            let r = run(name, &load(text).expect("parses").quick()).expect("runs");
            let titles = r.scenario.paper.variants.iter().map(|v| &v.title);
            for (title, v) in titles.zip(&r.runs) {
                let (far, all) = (v.outcome.events_far, v.outcome.events_scheduled);
                assert!(
                    far * 200 <= all,
                    "{name}: {title}: {far} of {all} events past the window"
                );
            }
        }
    }
}
