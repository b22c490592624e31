//! Time-series probes and the JSONL trace exporter.
//!
//! The aggregate counters in [`crate::stats`] answer "how did the run end",
//! but the paper's core evidence is *dynamics*: Fig. 2's NORMAL/REDUCED
//! cwnd sawtooth, queue occupancy oscillating around the marking threshold
//! K, per-round ECN mark rates. [`Probes`] records those series:
//!
//! * **periodic sampling** — [`Sim::install_probes`](crate::Sim::install_probes)
//!   schedules a self-rescheduling `Sample` engine event every
//!   [`ProbeConfig::interval`]; each tick appends one [`ProbeRecord::Queue`]
//!   and one [`ProbeRecord::Util`] per watched link direction,
//! * **on-change hooks** — with [`ProbeConfig::record_marks`], every
//!   CE-marked enqueue on a watched direction appends a
//!   [`ProbeRecord::Mark`] at the exact mark instant,
//! * **driver pushes** — higher layers (the workloads driver, experiments)
//!   append their own records (per-subflow cwnd snapshots) through
//!   [`Probes::push`].
//!
//! The determinism contract follows the [`FaultPlan`](crate::FaultPlan)
//! discipline: a sim on which `install_probes` was never called schedules
//! no event, touches no RNG stream, and is **bit-identical** to a build
//! without the subsystem. With probes installed, sampling observes but
//! never perturbs — flow outcomes and the conservation audit stay
//! bit-identical to an unprobed run (pinned by `tests/determinism.rs`).
//!
//! Records serialize to JSON Lines ([`ProbeRecord::to_json`], one object
//! per line) and parse back ([`ProbeRecord::parse`]) without any external
//! crates, matching the workspace's hermetic-build rule.

use crate::link::LinkId;
use std::fmt::Write as _;
use xmp_des::{SimDuration, SimTime};

/// Round-state snapshot of one subflow's congestion controller, embedded in
/// [`ProbeRecord::Cwnd`] for round-based algorithms (XMP/BOS). Defined here
/// — rather than in the transport crate — so the serializer and the
/// controllers share one type across the crate graph.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CcSnapshot {
    /// Whether the subflow is in the REDUCED state (cut already taken this
    /// round; further CE echoes ignored until `cwr_seq` is acknowledged).
    pub reduced: bool,
    /// The TraSh additive-increase gain δ (1.0 for standalone BOS).
    pub delta: f64,
    /// Completed rounds so far.
    pub rounds: u64,
    /// Rounds that triggered a window reduction (`reductions / rounds` is
    /// the empirical form of the paper's congestion metric p(t)).
    pub reductions: u64,
}

/// One observation in an exported time series. Each variant serializes to
/// one JSON object (`{"type": ...}`) per line.
#[derive(Clone, Debug, PartialEq)]
pub enum ProbeRecord {
    /// Run metadata, conventionally the first line of an export. Kept free
    /// of tuning knobs on purpose: exports must be byte-identical across
    /// `SimTuning` combinations.
    Meta {
        /// Experiment name (e.g. "dynamics").
        experiment: String,
        /// Scheme label (e.g. "XMP-2").
        scheme: String,
        /// RNG seed of the run.
        seed: u64,
        /// Free-form description (topology, K, epoch length, ...).
        note: String,
    },
    /// Per-subflow congestion window snapshot (driver-pushed, once per
    /// sampling epoch).
    Cwnd {
        /// Sample time.
        at: SimTime,
        /// Connection key.
        conn: u64,
        /// Subflow index within the connection.
        subflow: u32,
        /// Congestion window (packets).
        cwnd: f64,
        /// Slow-start threshold (packets; `f64::INFINITY` before the first
        /// cut, serialized as JSON `null`).
        ssthresh: f64,
        /// Round bookkeeping for round-based controllers, `None` otherwise.
        cc: Option<CcSnapshot>,
    },
    /// Watched queue state at a sampling tick: instantaneous depth plus the
    /// cumulative counters mark rates are computed from.
    Queue {
        /// Sample time.
        at: SimTime,
        /// Link id.
        link: u32,
        /// Direction index (0 = a→b).
        dir: u8,
        /// Instantaneous backlog in packets (queued + serializing), after
        /// every departure at or before the tick.
        depth: u64,
        /// Cumulative packets accepted by the queue.
        enqueued: u64,
        /// Cumulative packets CE-marked on acceptance.
        marked: u64,
        /// Cumulative packets dropped by the queue discipline.
        dropped: u64,
    },
    /// A packet was CE-marked on a watched direction (on-change hook; exact
    /// mark instants between sampling ticks).
    Mark {
        /// Mark time.
        at: SimTime,
        /// Link id.
        link: u32,
        /// Direction index.
        dir: u8,
    },
    /// Watched link-direction delivery progress at a sampling tick; rate
    /// deltas between ticks give the utilization series.
    Util {
        /// Sample time.
        at: SimTime,
        /// Link id.
        link: u32,
        /// Direction index.
        dir: u8,
        /// Cumulative bytes delivered to the far end.
        delivered_bytes: u64,
    },
}

/// Append `s` to `out` with JSON string escaping.
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Append an f64 to `out`; non-finite values (an uncut `ssthresh` is
/// `f64::INFINITY`) become JSON `null` and parse back as infinity.
fn f64_into(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{:?}` is the shortest representation that round-trips exactly.
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

/// A parsed flat-JSON value (the subset the exporter emits).
#[derive(Clone, Debug, PartialEq)]
enum JsonVal {
    Str(String),
    Num(f64),
    Null,
}

/// Parse one flat JSON object (string/number/null values only) into its
/// key/value pairs. This is the std-only checker `trace report` runs over
/// exported files; it rejects nesting, trailing garbage and bad escapes.
fn parse_flat_object(line: &str) -> Result<Vec<(String, JsonVal)>, String> {
    let mut cs = line.trim().chars().peekable();
    let mut out = Vec::new();
    if cs.next() != Some('{') {
        return Err("expected '{'".into());
    }
    loop {
        match cs.peek() {
            Some('}') => {
                cs.next();
                break;
            }
            Some('"') => {}
            other => return Err(format!("expected key string, found {other:?}")),
        }
        let key = parse_string(&mut cs)?;
        skip_ws(&mut cs);
        if cs.next() != Some(':') {
            return Err(format!("expected ':' after key {key:?}"));
        }
        skip_ws(&mut cs);
        let val = match cs.peek() {
            Some('"') => JsonVal::Str(parse_string(&mut cs)?),
            Some('n') => {
                for want in "null".chars() {
                    if cs.next() != Some(want) {
                        return Err("bad literal (expected null)".into());
                    }
                }
                JsonVal::Null
            }
            Some(&c) if c == '-' || c.is_ascii_digit() => {
                let mut num = String::new();
                while let Some(&c) = cs.peek() {
                    if c.is_ascii_digit() || "+-.eE".contains(c) {
                        num.push(c);
                        cs.next();
                    } else {
                        break;
                    }
                }
                JsonVal::Num(num.parse().map_err(|_| format!("bad number {num:?}"))?)
            }
            other => return Err(format!("unsupported value start {other:?}")),
        };
        out.push((key, val));
        skip_ws(&mut cs);
        match cs.next() {
            Some(',') => skip_ws(&mut cs),
            Some('}') => break,
            other => return Err(format!("expected ',' or '}}', found {other:?}")),
        }
    }
    skip_ws(&mut cs);
    if let Some(c) = cs.next() {
        return Err(format!("trailing garbage starting at {c:?}"));
    }
    Ok(out)
}

fn skip_ws(cs: &mut std::iter::Peekable<std::str::Chars<'_>>) {
    while cs.peek().is_some_and(|c| c.is_ascii_whitespace()) {
        cs.next();
    }
}

/// Parse a JSON string literal (opening quote still pending in `cs`).
fn parse_string(cs: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Result<String, String> {
    if cs.next() != Some('"') {
        return Err("expected '\"'".into());
    }
    let mut s = String::new();
    loop {
        match cs.next() {
            None => return Err("unterminated string".into()),
            Some('"') => return Ok(s),
            Some('\\') => match cs.next() {
                Some('"') => s.push('"'),
                Some('\\') => s.push('\\'),
                Some('/') => s.push('/'),
                Some('n') => s.push('\n'),
                Some('r') => s.push('\r'),
                Some('t') => s.push('\t'),
                Some('b') => s.push('\u{8}'),
                Some('f') => s.push('\u{c}'),
                Some('u') => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        let d = cs.next().and_then(|c| c.to_digit(16));
                        code = code * 16 + d.ok_or("bad \\u escape")?;
                    }
                    s.push(char::from_u32(code).ok_or("bad \\u codepoint")?);
                }
                other => return Err(format!("bad escape {other:?}")),
            },
            Some(c) => s.push(c),
        }
    }
}

struct Fields(Vec<(String, JsonVal)>);

impl Fields {
    fn get(&self, key: &str) -> Result<&JsonVal, String> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing key {key:?}"))
    }
    fn str(&self, key: &str) -> Result<String, String> {
        match self.get(key)? {
            JsonVal::Str(s) => Ok(s.clone()),
            other => Err(format!("{key:?}: expected string, found {other:?}")),
        }
    }
    fn num(&self, key: &str) -> Result<f64, String> {
        match self.get(key)? {
            JsonVal::Num(n) => Ok(*n),
            // `null` is how the exporter writes non-finite floats.
            JsonVal::Null => Ok(f64::INFINITY),
            other => Err(format!("{key:?}: expected number, found {other:?}")),
        }
    }
    fn int(&self, key: &str) -> Result<u64, String> {
        let n = self.num(key)?;
        if n.is_finite() && n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(63) {
            Ok(n as u64)
        } else {
            Err(format!("{key:?}: expected unsigned integer, found {n}"))
        }
    }
    /// An unsigned integer that must fit `T` (link ids, subflow and
    /// direction indices): out-of-range values are errors, not wraps.
    fn fit<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        let n = self.int(key)?;
        T::try_from(n).map_err(|_| format!("{key:?}: {n} is out of range"))
    }
    fn has(&self, key: &str) -> bool {
        self.0.iter().any(|(k, _)| k == key)
    }
}

impl ProbeRecord {
    /// Serialize to one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut o = String::with_capacity(96);
        match self {
            ProbeRecord::Meta {
                experiment,
                scheme,
                seed,
                note,
            } => {
                o.push_str("{\"type\":\"meta\",\"experiment\":\"");
                escape_into(&mut o, experiment);
                o.push_str("\",\"scheme\":\"");
                escape_into(&mut o, scheme);
                let _ = write!(o, "\",\"seed\":{seed},\"note\":\"");
                escape_into(&mut o, note);
                o.push_str("\"}");
            }
            ProbeRecord::Cwnd {
                at,
                conn,
                subflow,
                cwnd,
                ssthresh,
                cc,
            } => {
                let _ = write!(
                    o,
                    "{{\"type\":\"cwnd\",\"at_ns\":{},\"conn\":{conn},\"subflow\":{subflow},\"cwnd\":",
                    at.as_nanos()
                );
                f64_into(&mut o, *cwnd);
                o.push_str(",\"ssthresh\":");
                f64_into(&mut o, *ssthresh);
                if let Some(cc) = cc {
                    let _ = write!(
                        o,
                        ",\"reduced\":{},\"delta\":",
                        if cc.reduced { 1 } else { 0 }
                    );
                    f64_into(&mut o, cc.delta);
                    let _ = write!(
                        o,
                        ",\"rounds\":{},\"reductions\":{}",
                        cc.rounds, cc.reductions
                    );
                }
                o.push('}');
            }
            ProbeRecord::Queue {
                at,
                link,
                dir,
                depth,
                enqueued,
                marked,
                dropped,
            } => {
                let _ = write!(
                    o,
                    "{{\"type\":\"queue\",\"at_ns\":{},\"link\":{link},\"dir\":{dir},\"depth\":{depth},\"enqueued\":{enqueued},\"marked\":{marked},\"dropped\":{dropped}}}",
                    at.as_nanos()
                );
            }
            ProbeRecord::Mark { at, link, dir } => {
                let _ = write!(
                    o,
                    "{{\"type\":\"mark\",\"at_ns\":{},\"link\":{link},\"dir\":{dir}}}",
                    at.as_nanos()
                );
            }
            ProbeRecord::Util {
                at,
                link,
                dir,
                delivered_bytes,
            } => {
                let _ = write!(
                    o,
                    "{{\"type\":\"util\",\"at_ns\":{},\"link\":{link},\"dir\":{dir},\"delivered_bytes\":{delivered_bytes}}}",
                    at.as_nanos()
                );
            }
        }
        o
    }

    /// Parse one exported line back into a record.
    pub fn parse(line: &str) -> Result<ProbeRecord, String> {
        let f = Fields(parse_flat_object(line)?);
        let at = || f.int("at_ns").map(SimTime::from_nanos);
        match f.str("type")?.as_str() {
            "meta" => Ok(ProbeRecord::Meta {
                experiment: f.str("experiment")?,
                scheme: f.str("scheme")?,
                seed: f.int("seed")?,
                note: f.str("note")?,
            }),
            "cwnd" => Ok(ProbeRecord::Cwnd {
                at: at()?,
                conn: f.int("conn")?,
                subflow: f.fit("subflow")?,
                cwnd: f.num("cwnd")?,
                ssthresh: f.num("ssthresh")?,
                cc: if f.has("reduced") {
                    Some(CcSnapshot {
                        reduced: f.int("reduced")? != 0,
                        delta: f.num("delta")?,
                        rounds: f.int("rounds")?,
                        reductions: f.int("reductions")?,
                    })
                } else {
                    None
                },
            }),
            "queue" => Ok(ProbeRecord::Queue {
                at: at()?,
                link: f.fit("link")?,
                dir: f.fit("dir")?,
                depth: f.int("depth")?,
                enqueued: f.int("enqueued")?,
                marked: f.int("marked")?,
                dropped: f.int("dropped")?,
            }),
            "mark" => Ok(ProbeRecord::Mark {
                at: at()?,
                link: f.fit("link")?,
                dir: f.fit("dir")?,
            }),
            "util" => Ok(ProbeRecord::Util {
                at: at()?,
                link: f.fit("link")?,
                dir: f.fit("dir")?,
                delivered_bytes: f.int("delivered_bytes")?,
            }),
            other => Err(format!("unknown record type {other:?}")),
        }
    }
}

/// What to sample and how often; passed to
/// [`Sim::install_probes`](crate::Sim::install_probes).
#[derive(Clone, Debug)]
pub struct ProbeConfig {
    /// Sampling period (must be positive).
    pub interval: SimDuration,
    /// Last instant at which a sampling tick may fire; no event is
    /// scheduled past it (and none at all if `until < interval`).
    pub until: SimTime,
    /// Link directions whose queue/utilization series are sampled.
    pub watch: Vec<(LinkId, u8)>,
    /// Also record a [`ProbeRecord::Mark`] per CE-marked packet on watched
    /// directions (exact instants, not just per-tick counter deltas).
    pub record_marks: bool,
}

impl ProbeConfig {
    /// Sample every `interval` (builder start; add watches and an end time).
    pub fn every(interval: SimDuration) -> Self {
        assert!(
            interval > SimDuration::ZERO,
            "probe interval must be positive"
        );
        ProbeConfig {
            interval,
            until: SimTime::ZERO,
            watch: Vec::new(),
            record_marks: false,
        }
    }

    /// Sample up to and including `t`.
    pub fn until(mut self, t: SimTime) -> Self {
        self.until = t;
        self
    }

    /// Watch one link direction's queue and delivery counters.
    pub fn watch_queue(mut self, link: LinkId, dir: u8) -> Self {
        self.watch.push((link, dir));
        self
    }

    /// Record every CE mark on watched directions as it happens.
    pub fn with_marks(mut self) -> Self {
        self.record_marks = true;
        self
    }
}

/// The recorded series of one probed run. Owned by the sim once installed;
/// retrieve with [`Sim::probes`](crate::Sim::probes) /
/// [`Sim::take_probes`](crate::Sim::take_probes).
#[derive(Debug)]
pub struct Probes {
    pub(crate) interval: SimDuration,
    pub(crate) until: SimTime,
    pub(crate) watch: Vec<(LinkId, u8)>,
    pub(crate) record_marks: bool,
    records: Vec<ProbeRecord>,
    /// Merge-rank side channel, active only on partitioned shards: one
    /// `(primary, secondary)` rank per record, parallel to `records`. The
    /// primary is the identity key of the engine event being handled when
    /// the record was pushed; the secondary orders records within one event
    /// (sampling ticks) or driver operations. The cross-shard merge sorts
    /// by `(time, rank)` to reproduce the serial recording order exactly.
    pub(crate) ranks: Option<Vec<(u64, u64)>>,
}

impl Probes {
    pub(crate) fn new(cfg: ProbeConfig) -> Self {
        Probes {
            interval: cfg.interval,
            until: cfg.until,
            watch: cfg.watch,
            record_marks: cfg.record_marks,
            records: Vec::new(),
            ranks: None,
        }
    }

    /// The configuration these probes were installed with.
    pub(crate) fn config(&self) -> ProbeConfig {
        ProbeConfig {
            interval: self.interval,
            until: self.until,
            watch: self.watch.clone(),
            record_marks: self.record_marks,
        }
    }

    /// Append a record (sampling ticks do this; drivers push their own,
    /// e.g. per-subflow cwnd snapshots).
    pub fn push(&mut self, rec: ProbeRecord) {
        if let Some(ranks) = self.ranks.as_mut() {
            // Un-ranked pushes on a shard (none exist today) would sort
            // after everything at their instant.
            ranks.push((u64::MAX, u64::MAX));
        }
        self.records.push(rec);
    }

    /// Append a record with an explicit merge rank (partitioned shards;
    /// the rank is dropped when the side channel is inactive).
    pub(crate) fn push_ranked(&mut self, rec: ProbeRecord, rank: (u64, u64)) {
        if let Some(ranks) = self.ranks.as_mut() {
            ranks.push(rank);
        }
        self.records.push(rec);
    }

    /// All records in recording order.
    pub fn records(&self) -> &[ProbeRecord] {
        &self.records
    }

    /// Move all records out (the partitioned merge re-orders per-shard
    /// records into the serial recording order).
    pub(crate) fn take_records(&mut self) -> Vec<ProbeRecord> {
        std::mem::take(&mut self.records)
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Watched link directions.
    pub fn watched(&self) -> &[(LinkId, u8)] {
        &self.watch
    }

    /// On-change hook for CE marks (called from the enqueue paths).
    /// `rank` is the processing event's merge rank on partitioned shards,
    /// `None` in serial runs.
    pub(crate) fn on_mark(&mut self, at: SimTime, link: LinkId, dir: u8, rank: Option<(u64, u64)>) {
        if self.record_marks && self.watch.contains(&(link, dir)) {
            self.push_ranked(
                ProbeRecord::Mark {
                    at,
                    link: link.0,
                    dir,
                },
                rank.unwrap_or((u64::MAX, u64::MAX)),
            );
        }
    }

    /// Render all records as JSON Lines (one object per line, trailing
    /// newline included when non-empty).
    pub fn export_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.records.len() * 96);
        for r in &self.records {
            out.push_str(&r.to_json());
            out.push('\n');
        }
        out
    }
}

/// Always-on engine-loop profiling counters (pure observation: no events,
/// no RNG, no behavioural effect; excluded from determinism digests).
/// Surfaced by the suite runner.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimProfile {
    /// `Deliver` events handled.
    pub deliver: u64,
    /// Retired with the `TxDone` event: always 0 (the engine books a
    /// packet's transmission window on arrival and schedules no such
    /// event).
    pub tx_done: u64,
    /// `Timer` events handled.
    pub timer: u64,
    /// `Fault` events handled.
    pub fault: u64,
    /// `Sample` probe ticks handled.
    pub sample: u64,
    /// Emit-buffer pool pops that reused a recycled buffer.
    pub pool_hits: u64,
    /// Emit-buffer pool pops that had to allocate.
    pub pool_misses: u64,
    /// Wall-clock nanoseconds spent inside the `run_until` event loop.
    pub run_wall_ns: u64,
    /// Conservative synchronization rounds run (partitioned runs only;
    /// one round = one run-to-horizon + barrier + outbox exchange cycle).
    pub sync_rounds: u64,
    /// Cross-shard packet handoffs exchanged through round outboxes
    /// (partitioned runs only; `handoffs / sync_rounds` = mean per-round
    /// handoff count).
    pub handoffs: u64,
    /// Fluid rate-update ticks handled (`SimTuning::hybrid`; 0 on
    /// packet-only runs).
    pub fluid_ticks: u64,
}

impl SimProfile {
    /// Total events handled, all kinds.
    pub fn events_handled(&self) -> u64 {
        self.deliver + self.timer + self.fault + self.sample + self.fluid_ticks
    }

    /// Macro throughput: events handled per wall-clock second inside
    /// `run_until` windows (wall clock alone depends on workload size);
    /// 0.0 before anything has run.
    pub fn events_per_sec(&self) -> f64 {
        if self.run_wall_ns == 0 {
            0.0
        } else {
            self.events_handled() as f64 / (self.run_wall_ns as f64 / 1e9)
        }
    }

    /// Fraction of emit-buffer pops served from the pool (1.0 = no
    /// allocation after warmup).
    pub fn pool_hit_rate(&self) -> f64 {
        let total = self.pool_hits + self.pool_misses;
        if total == 0 {
            0.0
        } else {
            self.pool_hits as f64 / total as f64
        }
    }

    /// Mean cross-shard handoffs per synchronization round (0.0 outside
    /// partitioned runs).
    pub fn handoffs_per_round(&self) -> f64 {
        if self.sync_rounds == 0 {
            0.0
        } else {
            self.handoffs as f64 / self.sync_rounds as f64
        }
    }

    /// One-line human summary (suite output).
    pub fn summary(&self) -> String {
        let mut s = format!(
            "events deliver={} timer={} fault={} sample={} | pool hit {:.3} | run {:.1} ms | {:.2} Mev/s",
            self.deliver,
            self.timer,
            self.fault,
            self.sample,
            self.pool_hit_rate(),
            self.run_wall_ns as f64 / 1e6,
            self.events_per_sec() / 1e6,
        );
        if self.sync_rounds > 0 {
            s.push_str(&format!(
                " | rounds {} ({:.1} handoffs/round)",
                self.sync_rounds,
                self.handoffs_per_round()
            ));
        }
        if self.fluid_ticks > 0 {
            s.push_str(&format!(" | fluid ticks {}", self.fluid_ticks));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(rec: ProbeRecord) {
        let line = rec.to_json();
        let back =
            ProbeRecord::parse(&line).unwrap_or_else(|e| panic!("parse failed for {line}: {e}"));
        assert_eq!(back, rec, "round-trip mismatch for {line}");
    }

    #[test]
    fn every_record_type_round_trips() {
        roundtrip(ProbeRecord::Meta {
            experiment: "dynamics".into(),
            scheme: "XMP-2".into(),
            seed: 42,
            note: "dumbbell 1 Gbps, K=10".into(),
        });
        roundtrip(ProbeRecord::Cwnd {
            at: SimTime::from_micros(125),
            conn: 3,
            subflow: 1,
            cwnd: 17.333333333333332,
            ssthresh: 12.0,
            cc: Some(CcSnapshot {
                reduced: true,
                delta: 0.625,
                rounds: 44,
                reductions: 7,
            }),
        });
        roundtrip(ProbeRecord::Cwnd {
            at: SimTime::ZERO,
            conn: 1,
            subflow: 0,
            cwnd: 10.0,
            ssthresh: f64::INFINITY, // serialized as null
            cc: None,
        });
        roundtrip(ProbeRecord::Queue {
            at: SimTime::from_millis(3),
            link: 0,
            dir: 0,
            depth: 11,
            enqueued: 12345,
            marked: 321,
            dropped: 2,
        });
        roundtrip(ProbeRecord::Mark {
            at: SimTime::from_nanos(999_999_999_999),
            link: 7,
            dir: 1,
        });
        roundtrip(ProbeRecord::Util {
            at: SimTime::from_secs(2),
            link: 4,
            dir: 0,
            delivered_bytes: u64::from(u32::MAX) * 3,
        });
    }

    #[test]
    fn string_escaping_round_trips() {
        let nasty = "quote\" backslash\\ newline\n tab\t control\u{1} unicode\u{2603}";
        let rec = ProbeRecord::Meta {
            experiment: nasty.into(),
            scheme: "s".into(),
            seed: 0,
            note: String::new(),
        };
        let line = rec.to_json();
        assert!(!line.contains('\n'), "escaped newline leaked: {line}");
        assert_eq!(ProbeRecord::parse(&line).unwrap(), rec);
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        for bad in [
            "",
            "{",
            "{\"type\":\"queue\"}",        // missing fields
            "{\"type\":\"nope\",\"x\":1}", // unknown type
            "not json at all",
            "{\"type\":\"mark\",\"at_ns\":1,\"link\":0,\"dir\":0} trailing",
            "{\"type\":\"mark\",\"at_ns\":-4,\"link\":0,\"dir\":0}", // negative count
            "{\"type\":\"mark\",\"at_ns\":1.5,\"link\":0,\"dir\":0}", // fractional int
            // Out of range for the field's type.
            "{\"type\":\"mark\",\"at_ns\":1,\"link\":0,\"dir\":256}",
            "{\"type\":\"util\",\"at_ns\":1,\"link\":4294967296,\"dir\":0,\"delivered_bytes\":0}",
            "{\"type\":\"cwnd\",\"at_ns\":1,\"conn\":1,\"subflow\":4294967296,\"cwnd\":1.0,\"ssthresh\":null}",
        ] {
            assert!(
                ProbeRecord::parse(bad).is_err(),
                "accepted malformed line {bad:?}"
            );
        }
    }

    #[test]
    fn export_is_one_line_per_record() {
        let mut p = Probes::new(
            ProbeConfig::every(SimDuration::from_millis(1)).until(SimTime::from_secs(1)),
        );
        p.push(ProbeRecord::Mark {
            at: SimTime::ZERO,
            link: 0,
            dir: 0,
        });
        p.push(ProbeRecord::Queue {
            at: SimTime::from_millis(1),
            link: 0,
            dir: 0,
            depth: 1,
            enqueued: 1,
            marked: 0,
            dropped: 0,
        });
        let text = p.export_jsonl();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            ProbeRecord::parse(line).expect("exported line parses");
        }
    }

    #[test]
    fn mark_hook_respects_watch_list_and_flag() {
        let cfg = ProbeConfig::every(SimDuration::from_millis(1))
            .until(SimTime::from_secs(1))
            .watch_queue(LinkId(3), 0);
        let mut p = Probes::new(cfg.clone().with_marks());
        p.on_mark(SimTime::ZERO, LinkId(3), 0, None); // watched
        p.on_mark(SimTime::ZERO, LinkId(3), 1, None); // wrong dir
        p.on_mark(SimTime::ZERO, LinkId(4), 0, None); // wrong link
        assert_eq!(p.len(), 1);
        let mut quiet = Probes::new(cfg); // record_marks off
        quiet.on_mark(SimTime::ZERO, LinkId(3), 0, None);
        assert!(quiet.is_empty());
    }

    #[test]
    fn profile_rates() {
        let mut pr = SimProfile::default();
        assert_eq!(pr.pool_hit_rate(), 0.0);
        pr.pool_hits = 3;
        pr.pool_misses = 1;
        pr.deliver = 10;
        pr.timer = 5;
        assert_eq!(pr.events_handled(), 15);
        assert!((pr.pool_hit_rate() - 0.75).abs() < 1e-12);
        assert!(pr.summary().contains("deliver=10"));
    }
}
