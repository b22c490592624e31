//! The declarative scenario file: one run, fully specified.
//!
//! A scenario pins everything a run needs in a small plain-text file that
//! round-trips through [`Scenario::to_text`] / [`Scenario::parse`]:
//! `[section]` headers with `key = value` lines and `#` comments, read by
//! `xmp_conformance::text` (the reader spec files share), with bare values
//! only. Two kinds of run share the one model:
//!
//! * a **chaos run** (`simcheck`): fat-tree size, tuning knobs, qdisc,
//!   traffic, fault storm, probe placement and the oracle legs to
//!   cross-check, all times in microseconds. A minimized replay file is
//!   just another scenario file; `simcheck replay` re-executes it exactly.
//! * a **paper run** (`xmp-experiments run`, `scenarios/paper/*.scn`): the
//!   optional `[sim]` keys `topology`, `unit_us`, `bin_us` and `epochs`,
//!   and the sections `[[variant]]` (one table each), `[quick]` (the
//!   `--quick` overrides), `[schedule]` (flows, joins and link events, in
//!   epochs of `unit_us`) and `[measure]` (series and table shape). A
//!   chaos file has none of them, so its text is unchanged.

use std::fmt::{self, Write};
use std::num::NonZeroU64;
use std::str::FromStr;
use xmp_conformance::text::{self, Field, Table, TextError, Value};
use xmp_netsim::{LinkId, NodeId, QdiscConfig, RedMode, SimTuning};
use xmp_topo::FatTree;
use xmp_workloads::Scheme;

/// The largest fat-tree arity any command builds (`scale mega`); a larger
/// `k` is refused at its line rather than left to fail its allocation.
pub const MAX_K: usize = 32;

/// Bounds on a paper run's times, so that any epoch count times any unit
/// stays inside the nanosecond clock: a million epochs of at most an hour.
const MAX_EPOCHS: u64 = 1_000_000;
const MAX_UNIT_US: u64 = 3_600_000_000;

/// `name/i/j/…` split into the name and its indices.
pub(crate) fn indexed<'a>(s: &'a str, what: &str) -> Result<(&'a str, Vec<usize>), String> {
    let mut parts = s.split('/');
    let name = parts.next().unwrap_or_default();
    let bad = |p: &str| format!("bad index `{p}` in {what} `{s}`");
    let idx = parts.map(|p| p.parse().map_err(|_| bad(p)));
    Ok((name, idx.collect::<Result<_, _>>()?))
}

/// The entry of `table` named `word`.
fn named<T: Clone>(table: &[(&str, T)], word: &str) -> Option<T> {
    table.iter().find(|e| e.0 == word).map(|e| e.1.clone())
}

/// The name `table` gives `v`.
fn name_of<T: PartialEq>(table: &[(&'static str, T)], v: &T) -> &'static str {
    table.iter().find(|e| e.1 == *v).map_or("", |e| e.0)
}

/// A link named by its place in the topology, independent of `LinkId`
/// numbering: `core/i/j/p`, `agg/i` or `rack/i` in the fat tree,
/// `bottleneck/i` in a paper topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkRef {
    /// The agg↔core link between core `(i, j)` (both indices `< k/2`) and
    /// pod `p`'s aggregation switch `i`.
    Core(usize, usize, usize),
    /// The `i`-th edge→agg link.
    Agg(usize),
    /// The `i`-th host→edge (rack) link.
    Rack(usize),
    /// The `i`-th bottleneck of a dumbbell, testbed (DN1, DN2) or the ring
    /// (L1..L5).
    Bottleneck(usize),
}

impl LinkRef {
    /// Resolve against a built tree; errors on out-of-range indices.
    pub fn resolve(&self, ft: &FatTree) -> Result<LinkId, String> {
        match *self {
            LinkRef::Core(i, j, p) => {
                // core (i, j) with i, j < k/2; pod p < k. Recover k from
                // the layer sizes (aggs = k²/2).
                let pods = num_pods(ft);
                let half = pods / 2;
                if i >= half || j >= half || p >= pods {
                    return Err(format!("core link {self} out of range for a k={pods} tree"));
                }
                Ok(ft.core_link(i, j, p))
            }
            LinkRef::Agg(i) => pick(&ft.agg_links, i, "agg link"),
            LinkRef::Rack(i) => pick(&ft.rack_links, i, "rack link"),
            LinkRef::Bottleneck(_) => Err(format!("a fat tree has no {self}")),
        }
    }

    fn parse(s: &str) -> Result<LinkRef, String> {
        match indexed(s, "link ref")? {
            ("core", idx) if idx.len() == 3 => Ok(LinkRef::Core(idx[0], idx[1], idx[2])),
            ("agg", idx) if idx.len() == 1 => Ok(LinkRef::Agg(idx[0])),
            ("rack", idx) if idx.len() == 1 => Ok(LinkRef::Rack(idx[0])),
            ("bottleneck", idx) if idx.len() == 1 => Ok(LinkRef::Bottleneck(idx[0])),
            _ => Err(format!(
                "bad link ref `{s}` (want core/i/j/p, agg/i, rack/i or bottleneck/i)"
            )),
        }
    }
}

/// `v[i]`, or an error naming `what`.
fn pick<T: Copy>(v: &[T], i: usize, what: &str) -> Result<T, String> {
    v.get(i)
        .copied()
        .ok_or_else(|| format!("{what} index {i} out of range"))
}

fn num_pods(ft: &FatTree) -> usize {
    // k pods, k/2 aggs per pod.
    let aggs = ft.aggs.len();
    (2.0 * (aggs as f64)).sqrt().round() as usize
}

impl fmt::Display for LinkRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            LinkRef::Core(i, j, p) => write!(f, "core/{i}/{j}/{p}"),
            LinkRef::Agg(i) => write!(f, "agg/{i}"),
            LinkRef::Rack(i) => write!(f, "rack/{i}"),
            LinkRef::Bottleneck(i) => write!(f, "bottleneck/{i}"),
        }
    }
}

/// A switch named by layer and index: `edge/i`, `agg/i` or `core/i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRef {
    /// The `i`-th edge switch.
    Edge(usize),
    /// The `i`-th aggregation switch.
    Agg(usize),
    /// The `i`-th core switch.
    Core(usize),
}

impl NodeRef {
    /// Resolve against a built tree.
    pub fn resolve(&self, ft: &FatTree) -> Result<NodeId, String> {
        match *self {
            NodeRef::Edge(i) => pick(&ft.edges, i, "edge switch"),
            NodeRef::Agg(i) => pick(&ft.aggs, i, "agg switch"),
            NodeRef::Core(i) => pick(&ft.cores, i, "core switch"),
        }
    }

    fn parse(s: &str) -> Result<NodeRef, String> {
        match indexed(s, "node ref")? {
            ("edge", idx) if idx.len() == 1 => Ok(NodeRef::Edge(idx[0])),
            ("agg", idx) if idx.len() == 1 => Ok(NodeRef::Agg(idx[0])),
            ("core", idx) if idx.len() == 1 => Ok(NodeRef::Core(idx[0])),
            _ => Err(format!("bad node ref `{s}` (want edge/i, agg/i or core/i)")),
        }
    }
}

impl fmt::Display for NodeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            NodeRef::Edge(i) => write!(f, "edge/{i}"),
            NodeRef::Agg(i) => write!(f, "agg/{i}"),
            NodeRef::Core(i) => write!(f, "core/{i}"),
        }
    }
}

/// One scheduled fault in the storm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultSpec {
    /// Take a link down at the given time.
    Down(LinkRef),
    /// Repair a link.
    Up(LinkRef),
    /// Kill every link on a switch.
    SwitchDown(NodeRef),
}

/// A timestamped fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultLine {
    /// Absolute sim time, microseconds.
    pub at_us: u64,
    /// What happens.
    pub event: FaultSpec,
}

/// Queue discipline, in scenario-file form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QdiscSpec {
    /// FIFO tail drop.
    DropTail {
        /// Capacity in packets.
        cap: usize,
    },
    /// The paper's instantaneous-threshold ECN marker.
    Ecn {
        /// Capacity in packets.
        cap: usize,
        /// Marking threshold K.
        k: usize,
    },
    /// Classic RED with EWMA averaging.
    Red {
        /// Capacity in packets.
        cap: usize,
        /// EWMA weight.
        wq: f64,
        /// Lower threshold.
        min_th: f64,
        /// Upper threshold.
        max_th: f64,
        /// Max mark probability.
        max_p: f64,
        /// Drop instead of mark.
        drop: bool,
        /// Seed for the probabilistic decisions.
        seed: u64,
    },
}

impl QdiscSpec {
    /// Materialize as the netsim configuration.
    pub fn to_config(self) -> QdiscConfig {
        match self {
            QdiscSpec::DropTail { cap } => QdiscConfig::DropTail { cap },
            QdiscSpec::Ecn { cap, k } => QdiscConfig::EcnThreshold { cap, k },
            QdiscSpec::Red {
                cap,
                wq,
                min_th,
                max_th,
                max_p,
                drop,
                seed,
            } => QdiscConfig::Red {
                cap,
                wq,
                min_th,
                max_th,
                max_p,
                mode: if drop { RedMode::Drop } else { RedMode::Mark },
                seed,
            },
        }
    }

    fn parse(s: &str) -> Result<QdiscSpec, String> {
        let (kind, params) = kind_params(s)?;
        let q = match kind {
            "droptail" => QdiscSpec::DropTail {
                cap: param(&params, "cap")?,
            },
            "ecn" => QdiscSpec::Ecn {
                cap: param(&params, "cap")?,
                k: param(&params, "k")?,
            },
            "red" => QdiscSpec::Red {
                cap: param(&params, "cap")?,
                wq: param(&params, "wq")?,
                min_th: param(&params, "min")?,
                max_th: param(&params, "max")?,
                max_p: param(&params, "maxp")?,
                drop: param::<String>(&params, "mode").is_ok_and(|m| m == "drop"),
                seed: param(&params, "seed")?,
            },
            _ => return Err(format!("unknown qdisc `{kind}`")),
        };
        // What the queue constructors assert, refused here instead.
        let fits = match q {
            QdiscSpec::DropTail { cap } => cap > 0,
            QdiscSpec::Ecn { cap, k } => cap > 0 && k <= cap,
            QdiscSpec::Red {
                cap,
                wq,
                min_th,
                max_th,
                max_p,
                ..
            } => {
                cap > 0 && wq > 0.0 && wq <= 1.0 && min_th <= max_th && (0.0..=1.0).contains(&max_p)
            }
        };
        fits.then_some(q).ok_or_else(|| format!("qdisc `{s}` does not fit (cap > 0, k <= cap, wq in (0, 1], min <= max, maxp in [0, 1])"))
    }
}

/// A `kind key=value …` value split into the kind and its parameters.
fn kind_params(s: &str) -> Result<(&str, Vec<&str>), String> {
    let mut words = s.split_whitespace();
    let kind = words.next().ok_or("empty value")?;
    let params: Vec<&str> = words.collect();
    match params.iter().find(|w| !w.contains('=')) {
        Some(w) => Err(format!("bad {kind} param `{w}` (want key=value)")),
        None => Ok((kind, params)),
    }
}

/// The `key=value` word of a `kind key=value …` value for `key` (the last
/// one, if repeated), parsed as `T`.
fn param<T: FromStr>(params: &[&str], key: &str) -> Result<T, String> {
    let v = params
        .iter()
        .rev()
        .find_map(|w| w.strip_prefix(key)?.strip_prefix('='));
    let v = v.ok_or_else(|| format!("missing {key}="))?;
    v.parse().map_err(|_| format!("bad {key}={v}"))
}

impl fmt::Display for QdiscSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            QdiscSpec::DropTail { cap } => write!(f, "droptail cap={cap}"),
            QdiscSpec::Ecn { cap, k } => write!(f, "ecn cap={cap} k={k}"),
            QdiscSpec::Red {
                cap,
                wq,
                min_th,
                max_th,
                max_p,
                drop,
                seed,
            } => write!(
                f,
                "red cap={cap} wq={wq} min={min_th} max={max_th} maxp={max_p} mode={} seed={seed}",
                if drop { "drop" } else { "mark" }
            ),
        }
    }
}

/// The network a scenario runs on: `fattree`, the k-ary tree of `[sim] k`
/// that every chaos run uses; `dumbbell pairs=N mbps=R rtt_us=T`, host
/// pairs across one bottleneck (Fig. 1, and Fig. 6's Fig. 3b testbed);
/// `shift_testbed`, the Fig. 3a testbed (Fig. 4); or `torus`, the Fig. 5
/// ring (Fig. 7). All queue at the `[sim]` qdisc, whose `cap` and `k` the
/// testbed and the ring take for their bottlenecks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Topology {
    #[default]
    FatTree,
    /// Pairs, bottleneck Mbps, no-load RTT in µs.
    Dumbbell(usize, u64, u64),
    ShiftTestbed,
    Torus,
}

const TOPOLOGIES: [(&str, Topology); 3] = [
    ("fattree", Topology::FatTree),
    ("shift_testbed", Topology::ShiftTestbed),
    ("torus", Topology::Torus),
];

impl Topology {
    fn parse(s: &str) -> Result<Topology, String> {
        let (kind, params) = kind_params(s)?;
        if kind != "dumbbell" {
            let plain = named(&TOPOLOGIES, kind).filter(|_| params.is_empty());
            let want = "fattree, dumbbell pairs= mbps= rtt_us=, shift_testbed or torus";
            return plain.ok_or_else(|| format!("bad topology `{s}` (want {want})"));
        }
        let pairs = param(&params, "pairs")?;
        let (mbps, rtt_us) = (param(&params, "mbps")?, param(&params, "rtt_us")?);
        // One address octet per pair; rate and delay inside the ns clock.
        if (1..200).contains(&pairs) && (1..=1_000_000).contains(&mbps) && rtt_us <= 10_000_000 {
            return Ok(Topology::Dumbbell(pairs, mbps, rtt_us));
        }
        Err("dumbbell wants pairs 1..=199, mbps 1..=1000000, rtt_us <= 10000000".into())
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Topology::Dumbbell(n, r, t) => write!(f, "dumbbell pairs={n} mbps={r} rtt_us={t}"),
            t => f.write_str(name_of(&TOPOLOGIES, &t)),
        }
    }
}

/// One flow: `src dst size scheme start_us tags`.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowLine {
    /// Sending host index.
    pub src: usize,
    /// Receiving host index.
    pub dst: usize,
    /// Transfer size in bytes.
    pub size: u64,
    /// Congestion-control scheme.
    pub scheme: Scheme,
    /// Start time, microseconds.
    pub start_us: u64,
    /// Path-alias tag per subflow (length = scheme subflow count).
    pub tags: Vec<usize>,
}

fn scheme_to_text(s: Scheme) -> String {
    match s {
        Scheme::Tcp => "tcp".into(),
        Scheme::Dctcp => "dctcp".into(),
        Scheme::Bos { beta } => format!("bos:{beta}"),
        Scheme::Lia { subflows } => format!("lia:{subflows}"),
        Scheme::Olia { subflows } => format!("olia:{subflows}"),
        Scheme::Xmp { beta: 4, subflows } => format!("xmp:{subflows}"),
        Scheme::Xmp { beta, subflows } => format!("xmp:{subflows}:{beta}"),
        Scheme::XmpUncoupled { beta, subflows } => format!("uxmp:{subflows}:{beta}"),
    }
}

/// A β in the range `Xmp::new` accepts (Eq. 1 needs β ≥ 2).
fn beta_parse(p: &str) -> Result<u32, String> {
    match p.parse::<u32>() {
        Ok(b) if (2..=16).contains(&b) => Ok(b),
        _ => Err(format!("bad beta `{p}` (want 2..=16)")),
    }
}

fn scheme_parse(s: &str) -> Result<Scheme, String> {
    let parts: Vec<&str> = s.split(':').collect();
    let n = |p: &str| match p.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("bad count in scheme `{s}`")),
    };
    let beta = |p: &str| beta_parse(p).map_err(|e| format!("{e} in scheme `{s}`"));
    match parts.as_slice() {
        ["tcp"] => Ok(Scheme::Tcp),
        ["dctcp"] => Ok(Scheme::Dctcp),
        ["bos", b] => Ok(Scheme::Bos { beta: beta(b)? }),
        ["lia", c] => Ok(Scheme::lia(n(c)?)),
        ["olia", c] => Ok(Scheme::Olia { subflows: n(c)? }),
        ["xmp", c] => Ok(Scheme::xmp(n(c)?)),
        ["xmp", c, b] => Ok(Scheme::Xmp {
            beta: beta(b)?,
            subflows: n(c)?,
        }),
        ["uxmp", c, b] => Ok(Scheme::XmpUncoupled {
            beta: beta(b)?,
            subflows: n(c)?,
        }),
        _ => Err(format!("unknown scheme `{s}`")),
    }
}

/// `[[variant]]`: one table of a paper run (an outage table's row), titled
/// `title` after the measure's. Its flows run `scheme` on their first
/// paths or, without one, XMP at `beta` with a subflow per listed path;
/// `k` replaces the `[sim]` qdisc's marking threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct Variant {
    pub title: String,
    pub beta: u32,
    pub scheme: Option<Scheme>,
    pub k: Option<usize>,
}

impl Variant {
    /// The scheme of a flow that lists `paths` paths.
    pub fn scheme(&self, paths: usize) -> Scheme {
        let (beta, subflows) = (self.beta, paths);
        self.scheme.unwrap_or(Scheme::Xmp { beta, subflows })
    }
}

/// `[quick]`: the `unit_us`, `bin_us` and number of leading `variants` a
/// `--quick` run takes instead.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Quick {
    pub unit_us: Option<u64>,
    pub bin_us: Option<u64>,
    pub variants: Option<usize>,
}

/// A `[schedule]` flow, unbounded: it runs over epochs `start..stop`
/// (`None`: to the end), opens a subflow per path ref in `paths` and joins
/// one per `(epoch, path)` in `joins`. A path ref names a place in the
/// topology: `flow/i/x` (flow `i`'s path `x`), `bg/i` (a background
/// pair's) or `ft/s/d/t` (fat-tree hosts `s` to `d` on tag `t`).
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedFlow {
    pub name: String,
    pub start: u64,
    pub stop: Option<u64>,
    pub paths: Vec<String>,
    pub joins: Vec<(u64, String)>,
}

/// A `[schedule]` link event: `down` and `up` are fault-plan events;
/// `close` drops every packet from its instant on, set between bin runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkAction {
    Down,
    Up,
    Close,
}

const LINK_ACTIONS: [(&str, LinkAction); 3] = [
    ("down", LinkAction::Down),
    ("up", LinkAction::Up),
    ("close", LinkAction::Close),
];

/// A paper run's tables: per variant, one row per epoch (`epochs`) or per
/// series (`series`); or failover's `outage` summary of the first series
/// around the first `down`, one row per variant, then its per-bin goodput.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Shape {
    #[default]
    Epochs,
    Series,
    Outage,
}

const SHAPES: [(&str, Shape); 3] = [
    ("epochs", Shape::Epochs),
    ("series", Shape::Series),
    ("outage", Shape::Outage),
];

/// A column of a paper table.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// `series = f/x,… capacity`: the summed rate of the `(flow, subflow)`
    /// members over `capacity` bits/s.
    Series(Vec<(String, usize)>, f64),
    /// `column = jain`: Jain's index over the series whose flows run.
    Jain,
    /// `column = util`: those series, summed.
    Util,
    /// `column = alive`: the first `label`led flow that runs, or `-`.
    Alive,
}

const COLUMNS: [(&str, Column); 3] = [
    ("jain", Column::Jain),
    ("util", Column::Util),
    ("alive", Column::Alive),
];

/// `[measure]`: the `table` shape, the `title` every table's starts with,
/// the first column's header (`head`), the other `(header, column)`s in
/// file order, and the `(flow, text)` `labels` of an `alive` column.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Measure {
    pub table: Shape,
    pub title: String,
    pub head: String,
    pub columns: Vec<(String, Column)>,
    pub labels: Vec<(String, String)>,
}

impl Measure {
    /// The series columns: `(members, capacity)`.
    pub fn series(&self) -> impl Iterator<Item = (&[(String, usize)], f64)> {
        self.columns.iter().filter_map(|c| match &c.1 {
            Column::Series(members, cap) => Some((members.as_slice(), *cap)),
            _ => None,
        })
    }
}

/// A scenario's paper run, empty in a chaos run: the network, the epoch
/// (`unit_us`; every `[schedule]` time counts epochs), the sampling bin
/// (`None`: one per epoch), the epochs run, the `--quick` overrides, the
/// variants, the flows, the `(epoch, action, link)` events, and the
/// measure that makes it a paper run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Paper {
    pub topology: Topology,
    pub unit_us: u64,
    pub bin_us: Option<u64>,
    pub epochs: u64,
    pub quick: Option<Quick>,
    pub variants: Vec<Variant>,
    pub flows: Vec<PlannedFlow>,
    pub links: Vec<(u64, LinkAction, LinkRef)>,
    pub measure: Option<Measure>,
}

/// A full scenario — a chaos run, or a paper run when `paper.measure` is
/// set.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Simulation RNG seed.
    pub seed: u64,
    /// Fat-tree arity (even, 4..=[`MAX_K`]).
    pub k: usize,
    /// Sim-time horizon, microseconds.
    pub horizon_us: u64,
    /// Minimum RTO, microseconds.
    pub rto_min_us: u64,
    /// Base fast-path tuning shared by every leg.
    pub tuning: SimTuning,
    /// Queue discipline on every port.
    pub qdisc: QdiscSpec,
    /// Probe sampling interval, microseconds.
    pub probe_interval_us: u64,
    /// Re-sliced oracle legs: for each `n`, one more run cut into
    /// irregular windows drawn from `(seed, n)`.
    pub slices: Vec<usize>,
    /// Test-only hook: append a leg with a spurious timer injected, which
    /// must diverge — proves the shrink→replay pipeline end to end.
    pub inject_divergence: bool,
    /// The traffic.
    pub flows: Vec<FlowLine>,
    /// The fault-storm timeline.
    pub faults: Vec<FaultLine>,
    /// Seeded Bernoulli loss per link.
    pub loss: Vec<(LinkRef, f64)>,
    /// Seeded Bernoulli corruption per link.
    pub corruption: Vec<(LinkRef, f64)>,
    /// Watched queues `(link, dir)`.
    pub probes: Vec<(LinkRef, u8)>,
    /// Topology, schedule and measure of a paper run.
    pub paper: Paper,
}

/// The sections of a chaos run.
const CHAOS_SECTIONS: [&str; 5] = ["sim", "oracles", "flows", "faults", "probes"];

impl Scenario {
    /// Hosts in the configured tree (k³/4).
    pub fn host_count(&self) -> usize {
        self.k * self.k * self.k / 4
    }

    /// The `--quick` form of a paper run: `[quick]`'s epoch and bin, and
    /// its first variants.
    pub fn quick(&self) -> Scenario {
        let mut sc = self.clone();
        if let Some(q) = sc.paper.quick.take() {
            sc.paper.unit_us = q.unit_us.unwrap_or(sc.paper.unit_us);
            sc.paper.bin_us = q.bin_us.or(sc.paper.bin_us);
            sc.paper.variants.truncate(q.variants.unwrap_or(usize::MAX));
        }
        sc
    }

    /// Serialize to the scenario-file text format (round-trips through
    /// [`Scenario::parse`]).
    pub fn to_text(&self) -> String {
        let list = |v: &[usize]| v.iter().map(usize::to_string).collect::<Vec<_>>().join(",");
        let mut s = format!(
            "# simcheck scenario v1\n[sim]\nseed = {}\nk = {}\nhorizon_us = {}\nrto_min_us = {}\n\
             drop_unroutable = {}\nqdisc = {}\nprobe_interval_us = {}\n",
            self.seed,
            self.k,
            self.horizon_us,
            self.rto_min_us,
            self.tuning.drop_unroutable,
            self.qdisc,
            self.probe_interval_us
        );
        let p = &self.paper;
        if p.topology != Topology::FatTree {
            let _ = writeln!(s, "topology = {}", p.topology);
        }
        if p.unit_us != 0 {
            let _ = writeln!(s, "unit_us = {}", p.unit_us);
        }
        if let Some(bin) = p.bin_us {
            let _ = writeln!(s, "bin_us = {bin}");
        }
        if p.epochs != 0 {
            let _ = writeln!(s, "epochs = {}", p.epochs);
        }
        s.push_str("\n[oracles]\n");
        if !self.slices.is_empty() {
            let _ = writeln!(s, "slices = {}", list(&self.slices));
        }
        let inject = self.inject_divergence;
        let _ = writeln!(s, "inject_divergence = {inject}\n\n[flows]");
        for f in &self.flows {
            let (scheme, tags) = (scheme_to_text(f.scheme), list(&f.tags));
            let (src, dst, size, at) = (f.src, f.dst, f.size, f.start_us);
            let _ = writeln!(s, "flow = {src} {dst} {size} {scheme} {at} {tags}");
        }
        s.push_str("\n[faults]\n");
        for f in &self.faults {
            let _ = match f.event {
                FaultSpec::Down(l) => writeln!(s, "down = {} {l}", f.at_us),
                FaultSpec::Up(l) => writeln!(s, "up = {} {l}", f.at_us),
                FaultSpec::SwitchDown(n) => writeln!(s, "switch_down = {} {n}", f.at_us),
            };
        }
        for (key, links) in [("loss", &self.loss), ("corrupt", &self.corruption)] {
            for (l, p) in links {
                let _ = writeln!(s, "{key} = {l} {p}");
            }
        }
        s.push_str("\n[probes]\n");
        for (l, d) in &self.probes {
            let _ = writeln!(s, "watch = {l} {d}");
        }
        p.write_sections(&mut s);
        s
    }

    /// Parse the text format: a walk over [`text::parse`]'s tables. Keys
    /// outside a section, unknown sections or keys, quoted or malformed
    /// values, missing required `[sim]` keys and a variant's scheme with
    /// more subflows than a flow lists paths are all reported with their
    /// line number. A scalar key given twice keeps its last value; `flow`,
    /// fault, `watch` and the paper sections' lines accumulate in order.
    pub fn parse(text: &str) -> Result<Scenario, TextError> {
        let doc = text::parse(text)?;
        if let Some(f) = doc.top.fields.first() {
            return Err(f.err(format!("key `{}` before any [section]", f.key)));
        }
        let mut sc = Scenario {
            seed: 0,
            k: 0,
            horizon_us: 0,
            rto_min_us: 200_000,
            tuning: SimTuning::default(),
            qdisc: QdiscSpec::Ecn { cap: 100, k: 10 },
            probe_interval_us: 500,
            slices: Vec::new(),
            inject_divergence: false,
            flows: Vec::new(),
            faults: Vec::new(),
            loss: Vec::new(),
            corruption: Vec::new(),
            probes: Vec::new(),
            paper: Paper::default(),
        };
        let mut flow_lines = Vec::new();
        for t in &doc.tables {
            let p = &mut sc.paper;
            match (t.name, t.array) {
                ("variant", true) => p.variants.push(variant(t)?),
                ("quick", false) => p.quick = Some(quick(t, p.quick.unwrap_or_default())?),
                ("schedule", false) => schedule(t, p, &mut flow_lines)?,
                ("measure", false) => measure(t, p.measure.get_or_insert_with(Measure::default))?,
                (name, false) if CHAOS_SECTIONS.contains(&name) => {
                    for f in &t.fields {
                        chaos_field(&mut sc, name, f)?;
                    }
                }
                _ => return Err(t.err(format!("unknown section {}", t.header()))),
            }
        }
        let p = &sc.paper;
        let required: &[&str] = match (&p.measure, p.topology) {
            (None, _) => &["seed", "k", "horizon_us"],
            (Some(_), Topology::FatTree) => &["seed", "k", "unit_us", "epochs"],
            (Some(_), _) => &["seed", "unit_us", "epochs"],
        };
        let sim = doc.tables.iter().filter(|t| t.name == "sim");
        let given: Vec<&str> = sim.flat_map(|t| &t.fields).map(|f| f.key).collect();
        if let Some(name) = required.iter().find(|k| !given.contains(k)) {
            return Err(TextError::at(
                0,
                format!("[sim] missing required key `{name}`"),
            ));
        }
        for (fl, &line) in p.flows.iter().zip(&flow_lines) {
            let n = fl.paths.len();
            for v in &p.variants {
                let s = v.scheme(n);
                if s.subflow_count() > n {
                    let (name, title, s) = (&fl.name, &v.title, s.label());
                    let why =
                        format!("flow `{name}` lists {n} path(s); variant `{title}` runs {s}");
                    return Err(TextError::at(line, why));
                }
            }
        }
        Ok(sc)
    }

    /// [`Scenario::parse`] for the chaos harness: a paper run is refused at
    /// the first line that makes it one (a topology other than the fat
    /// tree, or a paper section).
    pub fn parse_chaos(text: &str) -> Result<Scenario, TextError> {
        let sc = Self::parse(text)?;
        let tree = Value::Bare("fattree");
        let mut lines = Vec::new();
        for t in &text::parse(text)?.tables {
            if !CHAOS_SECTIONS.contains(&t.name) {
                lines.push(t.line);
            }
            let topology = t.fields.iter().filter(|f| f.key == "topology");
            lines.extend(topology.filter(|f| f.value != tree).map(|f| f.line));
        }
        let why = "a paper run, not a chaos scenario: run it with `xmp-experiments run`";
        let first = lines.into_iter().min();
        first.map_or(Ok(sc), |line| Err(TextError::at(line, why)))
    }
}

/// One `[sim]`, `[oracles]`, `[flows]`, `[faults]` or `[probes]` field.
fn chaos_field(sc: &mut Scenario, section: &str, f: &Field<'_>) -> Result<(), TextError> {
    let msg = |m: String| f.err(m);
    match (section, f.key) {
        ("sim", "seed") => sc.seed = f.parse("integer")?,
        ("sim", "k") => match f.parse("integer")? {
            k if k > MAX_K => {
                let why = "the largest tree any command builds";
                return Err(msg(format!("k = {k} is above {MAX_K}, {why}")));
            }
            k => sc.k = k,
        },
        ("sim", "horizon_us") => sc.horizon_us = f.parse("integer")?,
        ("sim", "rto_min_us") => sc.rto_min_us = f.parse("integer")?,
        ("sim", "drop_unroutable") => sc.tuning.drop_unroutable = f.parse("bool")?,
        ("sim", "qdisc") => sc.qdisc = QdiscSpec::parse(f.bare()?).map_err(msg)?,
        // Zero would stall the probe clock (`ProbeConfig::every`).
        ("sim", "probe_interval_us") => {
            sc.probe_interval_us = f.parse::<NonZeroU64>("positive integer")?.get()
        }
        ("sim", "topology") => sc.paper.topology = Topology::parse(f.bare()?).map_err(msg)?,
        ("sim", "unit_us") => sc.paper.unit_us = unit(f)?,
        ("sim", "bin_us") => sc.paper.bin_us = Some(unit(f)?),
        ("sim", "epochs") => sc.paper.epochs = epoch(f, f.bare()?)?,
        ("oracles", "slices") => {
            let words = f.bare()?.split(',').map(str::trim);
            for w in words.filter(|w| !w.is_empty()) {
                sc.slices.push(f.parse_word(w, "slice count")?);
            }
        }
        ("oracles", "inject_divergence") => sc.inject_divergence = f.parse("bool")?,
        ("flows", "flow") => sc.flows.push(flow_line(f)?),
        ("faults", "down") => sc.faults.push(link_fault(f, FaultSpec::Down)?),
        ("faults", "up") => sc.faults.push(link_fault(f, FaultSpec::Up)?),
        ("faults", "switch_down") => {
            let (at, n) = pair(f, "at_us noderef")?;
            let event = FaultSpec::SwitchDown(NodeRef::parse(n).map_err(msg)?);
            let at_us = f.parse_word(at, "time")?;
            sc.faults.push(FaultLine { at_us, event });
        }
        ("faults", "loss") => sc.loss.push(link_rate(f)?),
        ("faults", "corrupt") => sc.corruption.push(link_rate(f)?),
        ("probes", "watch") => {
            let (l, d) = pair(f, "linkref dir")?;
            let link = LinkRef::parse(l).map_err(msg)?;
            match f.parse_word(d, "direction")? {
                dir @ (0 | 1) => sc.probes.push((link, dir)),
                dir => return Err(msg(format!("direction must be 0 or 1, got {dir}"))),
            }
        }
        (s, k) => return Err(msg(format!("unknown key `{k}` in section [{s}]"))),
    }
    Ok(())
}

/// `word` as a number in `min..=max`.
fn bounded(f: &Field<'_>, word: &str, min: u64, max: u64) -> Result<u64, TextError> {
    match f.parse_word(word, "number")? {
        n if (min..=max).contains(&n) => Ok(n),
        n => Err(f.err(format!("{} = {n} is outside {min}..={max}", f.key))),
    }
}

/// A `unit_us` or `bin_us`: at most an hour.
fn unit(f: &Field<'_>) -> Result<u64, TextError> {
    bounded(f, f.bare()?, 1, MAX_UNIT_US)
}

/// An epoch count or instant.
fn epoch(f: &Field<'_>, word: &str) -> Result<u64, TextError> {
    bounded(f, word, 0, MAX_EPOCHS)
}

fn unknown(f: &Field<'_>, t: &Table<'_>) -> TextError {
    f.err(format!("unknown key `{}` in section {}", f.key, t.header()))
}

/// A `[[variant]]` table.
fn variant(t: &Table<'_>) -> Result<Variant, TextError> {
    let (title, beta, scheme, k) = (String::new(), 4, None, None);
    let mut v = Variant {
        title,
        beta,
        scheme,
        k,
    };
    for f in &t.fields {
        let msg = |m: String| f.err(m);
        match f.key {
            "title" => v.title = f.bare()?.into(),
            "beta" => v.beta = beta_parse(f.bare()?).map_err(msg)?,
            "scheme" => v.scheme = Some(scheme_parse(f.bare()?).map_err(msg)?),
            "k" => v.k = Some(bounded(f, f.bare()?, 1, u32::MAX.into())? as usize),
            _ => return Err(unknown(f, t)),
        }
    }
    Ok(v)
}

/// A `[quick]` table, over what an earlier one set.
fn quick(t: &Table<'_>, mut q: Quick) -> Result<Quick, TextError> {
    for f in &t.fields {
        match f.key {
            "unit_us" => q.unit_us = Some(unit(f)?),
            "bin_us" => q.bin_us = Some(unit(f)?),
            "variants" => q.variants = Some(bounded(f, f.bare()?, 1, u32::MAX.into())? as usize),
            _ => return Err(unknown(f, t)),
        }
    }
    Ok(q)
}

/// A `[schedule]` table: `flow = name start stop path…` (stop `-`: never),
/// `join = name at path` and `down|up|close = at linkref`, all in epochs.
fn schedule(t: &Table<'_>, p: &mut Paper, lines: &mut Vec<usize>) -> Result<(), TextError> {
    for f in &t.fields {
        let words: Vec<&str> = f.bare()?.split_whitespace().collect();
        match (f.key, named(&LINK_ACTIONS, f.key), &words[..]) {
            ("flow", _, [name, start, stop, paths @ ..]) if !paths.is_empty() => {
                p.flows.push(PlannedFlow {
                    name: name.to_string(),
                    start: epoch(f, start)?,
                    stop: (*stop != "-").then(|| epoch(f, stop)).transpose()?,
                    paths: paths.iter().map(|w| w.to_string()).collect(),
                    joins: Vec::new(),
                });
                lines.push(f.line);
            }
            ("join", _, [name, at, path]) => {
                let flow = p.flows.iter_mut().find(|fl| fl.name == *name);
                let flow = flow.ok_or_else(|| f.err(format!("no flow `{name}` before")))?;
                flow.joins.push((epoch(f, at)?, path.to_string()));
            }
            (_, Some(action), [at, link]) => {
                let link = LinkRef::parse(link).map_err(|m| f.err(m))?;
                p.links.push((epoch(f, at)?, action, link));
            }
            (key, action, _) => {
                let shape = match key {
                    "flow" => "name start stop path…",
                    "join" => "name at path",
                    _ if action.is_some() => "at linkref",
                    _ => return Err(unknown(f, t)),
                };
                return Err(f.err(format!("{key} wants `{shape}`")));
            }
        }
    }
    Ok(())
}

/// A `[measure]` table: `table`, `title`, `head`, then `series = f/x,…
/// capacity header`, `column = kind header` and `label = flow text` lines.
fn measure(t: &Table<'_>, m: &mut Measure) -> Result<(), TextError> {
    for f in &t.fields {
        let value = f.bare()?;
        let (word, rest) = value.split_once(' ').unwrap_or((value, ""));
        let want = |shape: &str| f.err(format!("bad {} `{value}` (want {shape})", f.key));
        match f.key {
            "table" => m.table = named(&SHAPES, value).ok_or(want("epochs, series or outage"))?,
            "title" => m.title = value.into(),
            "head" => m.head = value.into(),
            "series" => {
                let (cap, header) = rest.split_once(' ').unwrap_or((rest, ""));
                let member = |w: &str| {
                    let (name, x) = w.split_once('/')?;
                    Some((name.to_string(), x.parse().ok()?))
                };
                let members = word.split(',').map(member).collect::<Option<_>>();
                let cap = cap.parse().ok().filter(|c: &f64| c.is_finite() && *c > 0.0);
                let (Some(members), Some(cap)) = (members, cap) else {
                    return Err(want("flow/subflow,… capacity header"));
                };
                m.columns
                    .push((header.into(), Column::Series(members, cap)));
            }
            "column" => {
                let column = named(&COLUMNS, word).ok_or(want("jain|util|alive header"))?;
                m.columns.push((rest.into(), column));
            }
            "label" => m.labels.push((word.into(), rest.into())),
            _ => return Err(unknown(f, t)),
        }
    }
    Ok(())
}

impl Paper {
    /// Whether the flow named `name` runs during epoch `e` (0-based).
    pub fn runs(&self, name: &str, e: u64) -> bool {
        let covers = |f: &PlannedFlow| f.start <= e && f.stop.is_none_or(|to| e < to);
        self.flows.iter().any(|f| f.name == name && covers(f))
    }

    /// The paper sections, for [`Scenario::to_text`].
    fn write_sections(&self, s: &mut String) {
        let mut out = |line: String| {
            s.push_str(&line);
            s.push('\n');
        };
        if let Some(q) = self.quick {
            out("\n[quick]".into());
            let (unit, bin, n) = (q.unit_us, q.bin_us, q.variants.map(|n| n as u64));
            for (key, v) in [("unit_us", unit), ("bin_us", bin), ("variants", n)] {
                if let Some(v) = v {
                    out(format!("{key} = {v}"));
                }
            }
        }
        for v in &self.variants {
            let scheme = v
                .scheme
                .map(|x| format!("\nscheme = {}", scheme_to_text(x)));
            let (scheme, k) = (
                scheme.unwrap_or_default(),
                v.k.map(|k| format!("\nk = {k}")),
            );
            let (title, beta, k) = (&v.title, v.beta, k.unwrap_or_default());
            out(format!(
                "\n[[variant]]\ntitle = {title}\nbeta = {beta}{scheme}{k}"
            ));
        }
        if !self.flows.is_empty() || !self.links.is_empty() {
            out("\n[schedule]".into());
        }
        for f in &self.flows {
            let (name, start, paths) = (&f.name, f.start, f.paths.join(" "));
            let stop = f.stop.map_or("-".into(), |e| e.to_string());
            out(format!("flow = {name} {start} {stop} {paths}"));
            for (at, path) in &f.joins {
                out(format!("join = {name} {at} {path}"));
            }
        }
        for (at, action, link) in &self.links {
            out(format!("{} = {at} {link}", name_of(&LINK_ACTIONS, action)));
        }
        let Some(m) = &self.measure else { return };
        let (table, title, head) = (name_of(&SHAPES, &m.table), &m.title, &m.head);
        out(format!("\n[measure]\ntable = {table}"));
        out(format!("title = {title}\nhead = {head}"));
        for (header, column) in &m.columns {
            out(match column {
                Column::Series(members, cap) => {
                    let list = members.iter().map(|(f, x)| format!("{f}/{x}"));
                    let list = list.collect::<Vec<_>>().join(",");
                    format!("series = {list} {cap} {header}")
                }
                c => format!("column = {} {header}", name_of(&COLUMNS, c)),
            });
        }
        for (flow, text) in &m.labels {
            out(format!("label = {flow} {text}"));
        }
    }
}

/// A two-word value, `first rest`, split at the first space.
fn pair<'a>(f: &Field<'a>, shape: &str) -> Result<(&'a str, &'a str), TextError> {
    let (a, b) = f
        .bare()?
        .split_once(' ')
        .ok_or_else(|| f.err(format!("{} wants `{shape}`", f.key)))?;
    Ok((a.trim(), b.trim()))
}

/// An `at_us linkref` fault: `event` (down or up) on that link.
fn link_fault(f: &Field<'_>, event: fn(LinkRef) -> FaultSpec) -> Result<FaultLine, TextError> {
    let (at, l) = pair(f, "at_us linkref")?;
    let event = event(LinkRef::parse(l).map_err(|m| f.err(m))?);
    let at_us = f.parse_word(at, "time")?;
    Ok(FaultLine { at_us, event })
}

/// A `linkref p` value: a link and a per-packet probability.
fn link_rate(f: &Field<'_>) -> Result<(LinkRef, f64), TextError> {
    let (l, p) = pair(f, "linkref p")?;
    let link = LinkRef::parse(l).map_err(|m| f.err(m))?;
    Ok((link, f.parse_word(p, "probability")?))
}

/// A `flow = src dst size scheme start_us tags` line.
fn flow_line(f: &Field<'_>) -> Result<FlowLine, TextError> {
    let w: Vec<&str> = f.bare()?.split_whitespace().collect();
    let [src, dst, size, scheme, start_us, tags] = w[..] else {
        let n = w.len();
        return Err(f.err(format!(
            "flow wants `src dst size scheme start_us tags`, got {n} fields"
        )));
    };
    let scheme = scheme_parse(scheme).map_err(|m| f.err(m))?;
    let tags = tags.split(',').map(|t| f.parse_word(t, "tag"));
    let tags: Vec<usize> = tags.collect::<Result<_, _>>()?;
    let (want, got) = (scheme.subflow_count(), tags.len());
    if want != got {
        let scheme = scheme_to_text(scheme);
        return Err(f.err(format!("flow scheme {scheme} wants {want} tags, got {got}")));
    }
    Ok(FlowLine {
        src: f.parse_word(src, "host")?,
        dst: f.parse_word(dst, "host")?,
        size: f.parse_word(size, "size")?,
        scheme,
        start_us: f.parse_word(start_us, "time")?,
        tags,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Scenario {
        Scenario {
            seed: 99,
            k: 4,
            horizon_us: 40_000,
            rto_min_us: 200_000,
            tuning: SimTuning {
                drop_unroutable: true,
                ..SimTuning::default()
            },
            qdisc: QdiscSpec::Ecn { cap: 100, k: 10 },
            probe_interval_us: 500,
            slices: vec![2, 4],
            inject_divergence: false,
            flows: vec![FlowLine {
                src: 0,
                dst: 9,
                size: 65536,
                scheme: Scheme::xmp(2),
                start_us: 10,
                tags: vec![0, 1],
            }],
            faults: vec![
                FaultLine {
                    at_us: 1000,
                    event: FaultSpec::Down(LinkRef::Core(0, 0, 0)),
                },
                FaultLine {
                    at_us: 9000,
                    event: FaultSpec::Up(LinkRef::Core(0, 0, 0)),
                },
                FaultLine {
                    at_us: 5000,
                    event: FaultSpec::SwitchDown(NodeRef::Agg(1)),
                },
            ],
            loss: vec![(LinkRef::Rack(0), 0.01)],
            corruption: vec![(LinkRef::Agg(1), 0.001)],
            probes: vec![(LinkRef::Core(0, 0, 0), 0)],
            paper: Paper::default(),
        }
    }

    #[test]
    fn round_trips_through_text() {
        let sc = sample();
        let text = sc.to_text();
        let back = Scenario::parse(&text).expect("parses");
        assert_eq!(sc, back, "round trip changed the scenario:\n{text}");
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = Scenario::parse("[sim]\nseed = x\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("bad integer"), "{e}");
        let e = Scenario::parse("seed = 1\n").unwrap_err();
        assert!(e.msg.contains("before any"), "{e}");
        let e = Scenario::parse("[sim]\nseed = 1\nk = 4\n").unwrap_err();
        assert!(e.msg.contains("horizon_us"), "{e}");
        // Keys of the removed tuning switches and oracle legs are unknown
        // keys like any other: an old replay file fails loudly, naming the
        // key. (Spelled in halves so a grep for the removed names stays
        // empty.)
        let burst_loop = concat!("bat", "ched");
        for (section, gone) in [
            ("sim", concat!("lazy", "_links")),
            ("sim", concat!("compiled", "_fib")),
            ("sim", burst_loop),
            ("oracles", burst_loop),
            ("oracles", "boxed"),
            ("oracles", concat!("wor", "kers")),
        ] {
            let text =
                format!("[sim]\nseed = 1\nk = 4\nhorizon_us = 9\n[{section}]\n{gone} = true\n");
            let e = Scenario::parse(&text).unwrap_err();
            assert_eq!(e.line, 6);
            assert!(e.msg.contains("unknown key") && e.msg.contains(gone), "{e}");
        }
    }

    /// Values that used to reach a constructor assert in `simcheck replay`
    /// are rejected at parse time, at their line.
    #[test]
    fn rejects_values_that_would_panic_the_run() {
        let head = "[sim]\nseed = 1\nk = 4\nhorizon_us = 9000\n";
        let e = Scenario::parse(&format!(
            "{head}probe_interval_us = 0\n[probes]\nwatch = rack/0 0\n"
        ))
        .unwrap_err();
        assert_eq!(e.line, 5, "{e}");
        assert!(e.msg.contains("bad positive integer `0`"), "{e}");
        for scheme in ["xmp:2:1", "bos:1", "uxmp:2:20", "xmp:2:4294967300"] {
            let text = format!("{head}[flows]\nflow = 0 1 100 {scheme} 0 0,1\n");
            let e = Scenario::parse(&text).unwrap_err();
            assert_eq!(e.line, 6, "{scheme}: {e}");
            assert!(e.msg.contains("want 2..=16"), "{scheme}: {e}");
        }
        let ok =
            format!("{head}[flows]\nflow = 0 1 100 uxmp:2:16 0 0,1\nflow = 0 1 100 bos:2 0 0\n");
        Scenario::parse(&ok).expect("β 2 and 16 are in range");
        // A parseable but huge tree: k = 254 would ask the allocator for
        // 14 GB before a replay started.
        let e = Scenario::parse("[sim]\nseed = 1\nk = 254\nhorizon_us = 1000\n").unwrap_err();
        assert_eq!(e.line, 3, "{e}");
        assert!(e.msg.contains("above 32"), "{e}");
        Scenario::parse("[sim]\nseed = 1\nk = 32\nhorizon_us = 1000\n").expect("k = 32 is built");
        for qdisc in [
            "ecn cap=10 k=11",
            "droptail cap=0",
            "red cap=9 wq=0 min=1 max=2 maxp=0.1 seed=1",
        ] {
            let e = Scenario::parse(&format!("{head}qdisc = {qdisc}\n")).unwrap_err();
            assert_eq!(e.line, 5, "{qdisc}: {e}");
            assert!(e.msg.contains("does not fit"), "{qdisc}: {e}");
        }
    }

    /// The `.scn` rules on top of the shared reader: bare values only, and
    /// scalar keys may repeat (the last wins) while list keys accumulate.
    #[test]
    fn scenario_rules_on_the_shared_reader() {
        let e = Scenario::parse("[sim]\nseed = \"1\"\n").unwrap_err();
        assert_eq!(e.line, 2, "{e}");
        let e = Scenario::parse("[sim]\nseed = 1\n[[flows]]\n").unwrap_err();
        assert_eq!(e.line, 3, "{e}");
        assert!(e.msg.contains("unknown section [[flows]]"), "{e}");
        let sc = Scenario::parse(
            "[sim]\nseed = 1\nseed = 2\nk = 4\nhorizon_us = 9\n[faults]\ndown = 5 agg/0\nswitch_down = 6 core/1\nup = 7 agg/0\n",
        )
        .unwrap();
        assert_eq!(sc.seed, 2);
        let at: Vec<u64> = sc.faults.iter().map(|f| f.at_us).collect();
        assert_eq!(at, [5, 6, 7]);
    }

    #[test]
    fn rejects_tag_count_mismatch() {
        let text = "[sim]\nseed=1\nk=4\nhorizon_us=1000\n[flows]\nflow = 0 1 100 xmp:2 0 0\n";
        let e = Scenario::parse(text).unwrap_err();
        assert!(e.msg.contains("wants 2 tags"), "{e}");
    }

    const PAPER_HEAD: &str = "[sim]\nseed = 1\ntopology = torus\nunit_us = 1000\nepochs = 4\n";

    /// A variant's scheme must fit every flow's paths: a load error at the
    /// flow's line, not an assert in the run.
    #[test]
    fn rejects_a_scheme_wider_than_a_flows_paths() {
        let text = format!(
            "{PAPER_HEAD}[[variant]]\nscheme = xmp:3\n[schedule]\nflow = a 0 - flow/0/0\n\
             flow = b 0 - flow/1/0 flow/1/1\n[measure]\nseries = b/1 1e9 b\n"
        );
        let e = Scenario::parse(&text).unwrap_err();
        assert_eq!(e.line, 9, "{e}");
        assert!(e.msg.contains("flow `a` lists 1 path(s)"), "{e}");
        let fits = text
            .replace("xmp:3", "xmp:2")
            .replace("flow = a 0 - flow/0/0\n", "");
        let sc = Scenario::parse(&fits).expect("two paths carry XMP-2");
        assert_eq!(sc.paper.flows[0].paths.len(), 2);
    }

    /// Malformed paper-run lines are refused at their line; flow names in
    /// `[measure]` and path refs are resolved by the run.
    #[test]
    fn paper_lines_are_checked_at_their_line() {
        let base = format!("{PAPER_HEAD}[[variant]]\n[schedule]\nflow = a 0 2 flow/0/0\n");
        for (tail, line, what) in [
            ("join = b 1 flow/0/0\n", 9, "no flow `b` before"),
            ("close = 3\n", 9, "close wants `at linkref`"),
            ("up = 1000001 bottleneck/0\n", 9, "outside 0..=1000000"),
            ("[measure]\nseries = a/0 0 x\n", 10, "bad series"),
            ("[measure]\nseries = a 1e9 x\n", 10, "flow/subflow"),
            ("[measure]\ncolumn = median m\n", 10, "bad column"),
            (
                "[measure]\ntable = rows\n",
                10,
                "want epochs, series or outage",
            ),
        ] {
            let e = Scenario::parse(&format!("{base}{tail}")).unwrap_err();
            assert_eq!(e.line, line, "{tail}: {e}");
            assert!(e.msg.contains(what), "{tail}: {e}");
        }
        let e = Scenario::parse(&PAPER_HEAD.replace("1000", "3600000001")).unwrap_err();
        assert_eq!(e.line, 4, "{e}");
    }

    /// The chaos harness refuses a paper run at the line that makes it one.
    #[test]
    fn parse_chaos_refuses_paper_runs() {
        let e =
            Scenario::parse_chaos(&format!("{PAPER_HEAD}[[variant]]\n[measure]\n")).unwrap_err();
        assert_eq!(e.line, 3, "{e}");
        assert!(e.msg.contains("xmp-experiments run"), "{e}");
        let chaos = "[sim]\nseed = 1\nk = 4\nhorizon_us = 9\ntopology = fattree\n";
        Scenario::parse_chaos(chaos).expect("a fat tree named as such is a chaos run");
    }

    #[test]
    fn quick_overrides_unit_bin_and_variants() {
        let text = format!(
            "{PAPER_HEAD}bin_us = 500\n[quick]\nunit_us = 10\nvariants = 1\n\
             [[variant]]\nbeta = 4\n[[variant]]\nbeta = 6\n[measure]\n"
        );
        let sc = Scenario::parse(&text).unwrap();
        let q = sc.quick();
        assert_eq!((q.paper.unit_us, q.paper.bin_us), (10, Some(500)));
        assert_eq!(q.paper.variants.len(), 1);
        assert_eq!(q.paper.quick, None);
        assert_eq!(Scenario::parse(&sc.to_text()).as_ref(), Ok(&sc));
    }
}
