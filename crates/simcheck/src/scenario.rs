//! The declarative scenario file: one fuzzed run, fully specified.
//!
//! A scenario pins everything a chaos run needs — topology size, tuning
//! knobs, qdisc, traffic, fault storm, probe placement and the oracle legs
//! to cross-check — in a small plain-text file that round-trips through
//! [`Scenario::to_text`] / [`Scenario::parse`]. The format is the first
//! cut of the ROADMAP's scenario DSL: `[section]` headers with
//! `key = value` lines and `#` comments, read by `xmp_conformance::text`
//! (the reader spec files share), with bare values only and all times in
//! microseconds so files stay grep-able and diffs stay small. A minimized
//! replay file produced by the shrinker is just another scenario file;
//! `simcheck replay` parses and re-executes it exactly.

use std::fmt;
use std::num::NonZeroU64;
use std::str::FromStr;
use xmp_conformance::text::{self, Field, TextError};
use xmp_netsim::{LinkId, NodeId, QdiscConfig, RedMode, SimTuning};
use xmp_topo::FatTree;
use xmp_workloads::Scheme;

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
        let words: Vec<&str> = s.split_whitespace().collect();
        let (&kind, params) = words.split_first().ok_or("empty qdisc spec")?;
        if let Some(w) = params.iter().find(|w| !w.contains('=')) {
            return Err(format!("bad qdisc param `{w}` (want key=value)"));
        }
        match kind {
            "droptail" => Ok(QdiscSpec::DropTail {
                cap: param(params, "cap")?,
            }),
            "ecn" => Ok(QdiscSpec::Ecn {
                cap: param(params, "cap")?,
                k: param(params, "k")?,
            }),
            "red" => Ok(QdiscSpec::Red {
                cap: param(params, "cap")?,
                wq: param(params, "wq")?,
                min_th: param(params, "min")?,
                max_th: param(params, "max")?,
                max_p: param(params, "maxp")?,
                drop: param::<String>(params, "mode").is_ok_and(|m| m == "drop"),
                seed: param(params, "seed")?,
            }),
            _ => Err(format!("unknown qdisc `{kind}`")),
        }
    }
}

/// The `key=value` word of a qdisc spec for `key` (the last one, if
/// repeated), parsed as `T`.
fn param<T: FromStr>(params: &[&str], key: &str) -> Result<T, String> {
    let v = params
        .iter()
        .rev()
        .find_map(|w| w.strip_prefix(key)?.strip_prefix('='));
    let v = v.ok_or_else(|| format!("qdisc missing {key}="))?;
    v.parse().map_err(|_| format!("bad qdisc {key}={v}"))
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
    // The β range `Xmp::new` accepts (Eq. 1 needs β ≥ 2).
    let beta = |p: &str| match p.parse::<u32>() {
        Ok(b) if (2..=16).contains(&b) => Ok(b),
        _ => Err(format!("bad beta in scheme `{s}` (want 2..=16)")),
    };
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
        let list = |v: &[usize]| v.iter().map(usize::to_string).collect::<Vec<_>>().join(",");
        let mut s = format!(
            "# simcheck scenario v1\n[sim]\nseed = {}\nk = {}\nhorizon_us = {}\nrto_min_us = {}\n\
             drop_unroutable = {}\nqdisc = {}\nprobe_interval_us = {}\n\n[oracles]\n",
            self.seed,
            self.k,
            self.horizon_us,
            self.rto_min_us,
            self.tuning.drop_unroutable,
            self.qdisc,
            self.probe_interval_us
        );
        if !self.workers.is_empty() {
            let _ = writeln!(s, "workers = {}", list(&self.workers));
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
        s
    }

    /// Parse the text format: a walk over [`text::parse`]'s tables. Keys
    /// outside a section, unknown sections or keys, quoted or malformed
    /// values and missing required `[sim]` keys are all reported with
    /// their line number. A scalar key given twice keeps its last value;
    /// `flow`, fault and `watch` lines accumulate in file order.
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
            workers: Vec::new(),
            inject_divergence: false,
            flows: Vec::new(),
            faults: Vec::new(),
            loss: Vec::new(),
            corruption: Vec::new(),
            probes: Vec::new(),
        };
        for t in &doc.tables {
            let known = ["sim", "oracles", "flows", "faults", "probes"].contains(&t.name);
            if t.array || !known {
                return Err(t.err(format!("unknown section {}", t.header())));
            }
            for f in &t.fields {
                let msg = |m: String| f.err(m);
                match (t.name, f.key) {
                    ("sim", "seed") => sc.seed = f.parse("integer")?,
                    ("sim", "k") => sc.k = f.parse("integer")?,
                    ("sim", "horizon_us") => sc.horizon_us = f.parse("integer")?,
                    ("sim", "rto_min_us") => sc.rto_min_us = f.parse("integer")?,
                    ("sim", "drop_unroutable") => sc.tuning.drop_unroutable = f.parse("bool")?,
                    ("sim", "qdisc") => sc.qdisc = QdiscSpec::parse(f.bare()?).map_err(msg)?,
                    // Zero would stall the probe clock (`ProbeConfig::every`).
                    ("sim", "probe_interval_us") => {
                        sc.probe_interval_us = f.parse::<NonZeroU64>("positive integer")?.get()
                    }
                    ("oracles", "workers") => {
                        let words = f.bare()?.split(',').map(str::trim);
                        for w in words.filter(|w| !w.is_empty()) {
                            sc.workers.push(f.parse_word(w, "worker count")?);
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
            }
        }
        let sim = doc.tables.iter().filter(|t| t.name == "sim");
        let given: Vec<&str> = sim.flat_map(|t| &t.fields).map(|f| f.key).collect();
        for name in ["seed", "k", "horizon_us"] {
            if !given.contains(&name) {
                return Err(TextError::at(
                    0,
                    format!("[sim] missing required key `{name}`"),
                ));
            }
        }
        Ok(sc)
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
}
