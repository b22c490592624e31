//! The repository's one fixed benchmark. See `README.md` beside this file
//! for the workloads, the metrics and what each is expected to move.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one workload; last stdout line is the result
//! benchmark [--seed N] [--seconds S] [--traced] [--out F]   every workload; writes a result JSON
//! benchmark --self-test                                     every workload at 1/20 size, with assertions
//! ```
//!
//! It is a host-time benchmark of a deterministic simulator: counts and
//! simulated statistics repeat exactly for a seed, host times within the
//! bounds `BENCHMARK.json` fixes.

mod alloc;
mod cli;
mod kernels;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Ev;
use workloads::{Bare, InProc, Rep, Sizes, Traced};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const WORKLOADS: [&str; 6] = [
    "ft8_perm",
    "ft8_incast",
    "ft16_wave",
    "db_long",
    "hybrid_mix",
    "cli_all_quick",
];

/// End-to-end metrics: (name, unit). All lower-is-better; the bounds live
/// in `BENCHMARK.json`. Failures are reported as `failed` / `attempted`.
const END_TO_END: [(&str, &str); 3] = [("wall_s", "s"), ("setup_s", "s"), ("peak_heap_mib", "MiB")];

/// Per-layer metrics: (name, unit), layer = crate. A metric a workload has
/// no use for (fluid ticks on a packet workload, everything in-process on
/// the subprocess workload) reads 0.
const PER_LAYER: [(&str, &str); 45] = [
    ("des.events", "count"),
    ("des.events_per_hop", "ratio"),
    ("des.pending_mean", "count"),
    ("des.hold_ns", "ns"),
    ("des.share", "frac"),
    ("netsim.self_s", "s"),
    ("netsim.hops", "count"),
    ("netsim.hop_ns", "ns"),
    ("netsim.timers", "count"),
    ("netsim.qdisc_ns", "ns"),
    ("netsim.fib_lookup_ns", "ns"),
    ("netsim.fib_compile_s", "s"),
    ("netsim.pool_hit_rate", "frac"),
    ("netsim.allocs_per_hop", "ratio"),
    ("netsim.marks", "count"),
    ("netsim.drops", "count"),
    ("netsim.mark_frac", "frac"),
    ("netsim.fluid_ticks", "count"),
    ("netsim.fluid_tick_ns", "ns"),
    ("netsim.unattributed_frac", "frac"),
    ("transport.self_s", "s"),
    ("transport.calls", "count"),
    ("transport.call_ns", "ns"),
    ("transport.ack_ns", "ns"),
    ("transport.data_ns", "ns"),
    ("transport.rtos", "count"),
    ("transport.fast_retransmits", "count"),
    ("transport.conns_opened", "count"),
    ("core.cc_ack_ns", "ns"),
    ("core.share", "frac"),
    ("topo.build_s", "s"),
    ("topo.nodes", "count"),
    ("topo.links", "count"),
    ("workloads.submit_s", "s"),
    ("workloads.self_s", "s"),
    ("workloads.collect_s", "s"),
    ("workloads.flows_submitted", "count"),
    ("workloads.flows_completed", "count"),
    ("workloads.goodput_mbps", "Mbps"),
    ("workloads.fct_p99_ms", "ms"),
    ("experiments.stdout_bytes", "B"),
    ("trace.overhead_frac", "frac"),
    ("trace.residual_frac", "frac"),
    ("model_err", "frac"),
    ("failed_frac", "frac"),
];

/// Repetitions per run: at least this many, then until `--seconds` is spent.
const MIN_REPS: usize = 3;
/// `setup_s` is the median of at least this many set-ups per run, and of
/// as many more (up to the cap) as fit in `SETUP_MIN_TIME`, so that a
/// set-up of microseconds is sampled often enough for a steady median.
const SETUP_SAMPLES: usize = 9;
const SETUP_SAMPLES_MAX: usize = 400;
const SETUP_MIN_TIME: Duration = Duration::from_millis(100);
/// The in-tree band of the hybrid validation cell (`HybridConfig`).
const MODEL_ERR_BAND: f64 = 0.25;
/// The three traced layers are exhaustive; more than this outside them
/// is a harness bug.
const RESIDUAL_MAX: f64 = 0.02;

fn in_proc(name: &str) -> Option<InProc> {
    match name {
        "ft8_perm" => Some(InProc::Ft8Perm),
        "ft8_incast" => Some(InProc::Ft8Incast),
        "ft16_wave" => Some(InProc::Ft16Wave),
        "db_long" => Some(InProc::DbLong),
        "hybrid_mix" => Some(InProc::HybridMix),
        _ => None,
    }
}

/// Median and quartiles by the method of Python's
/// `statistics.quantiles(v, n=4)`, which `compare` and the driver use.
fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let at = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

fn median(samples: &[f64]) -> f64 {
    quartiles(samples).1
}

/// What the untraced run of one workload produced.
#[derive(Default)]
struct EndToEnd {
    wall_s: Vec<f64>,
    setup_s: Vec<f64>,
    peak_heap_mib: Vec<f64>,
    attempted: u64,
    failed: u64,
    digest: u64,
    /// Packet-hops and engine events of one repetition (0 for the
    /// subprocess): exact for a seed, printed so that a wall time can be
    /// read against the work behind it.
    hops: u64,
    events: u64,
    /// `hybrid_mix` only: error of the hybrid plane against the packet
    /// plane on the in-tree validation cell.
    model_err: Option<f64>,
    /// Why the outputs are not correct (empty when they are).
    faults: Vec<String>,
}

impl EndToEnd {
    fn samples(&self, metric: &str) -> &[f64] {
        match metric {
            "wall_s" => &self.wall_s,
            "setup_s" => &self.setup_s,
            "peak_heap_mib" => &self.peak_heap_mib,
            _ => unreachable!("not an end-to-end metric: {metric}"),
        }
    }
}

const MIB: f64 = (1u64 << 20) as f64;

/// What `cli_all_quick` runs (the seed is appended).
const CLI_ARGS: [&str; 2] = ["all", "--quick"];

/// Run `one` repetition after another, handing each to `keep`, until
/// `budget` is measured and at least [`MIN_REPS`] are done. Every
/// repetition is kept, the slow ones too.
fn repeat<R>(
    budget: Duration,
    mut one: impl FnMut() -> Result<R, String>,
    mut keep: impl FnMut(R),
) -> Result<(), String> {
    let t0 = Instant::now();
    let mut n = 0;
    while n < MIN_REPS || t0.elapsed() < budget {
        keep(one()?);
        n += 1;
    }
    Ok(())
}

fn run_untraced(name: &str, seed: u64, seconds: f64, sizes: &Sizes) -> Result<EndToEnd, String> {
    let budget = Duration::from_secs_f64(seconds);
    let mut e = EndToEnd::default();
    let mut digests = Vec::new();
    let more_setups = |n: usize, since: Instant| {
        n < SETUP_SAMPLES || (n < SETUP_SAMPLES_MAX && since.elapsed() < SETUP_MIN_TIME)
    };
    if let Some(w) = in_proc(name) {
        if w == InProc::HybridMix {
            e.model_err = Some(model_err(&mut e.faults));
        }
        // One untimed repetition first: the first run in a process pays
        // for fresh heap pages and cold code, which no later one does.
        digests.push(workloads::rep::<Bare>(w, seed, sizes).outcome.digest);
        repeat(
            budget,
            || Ok(workloads::rep::<Bare>(w, seed, sizes)),
            |r: Rep| {
                e.wall_s.push(r.wall_s());
                e.setup_s.push(r.setup_s());
                e.peak_heap_mib.push(r.peak_heap_bytes as f64 / MIB);
                (e.attempted, e.failed) = (r.outcome.attempted, r.outcome.failed);
                (e.hops, e.events) = (r.outcome.counts.hops, r.outcome.counts.events);
                if !r.outcome.audit_ok {
                    e.faults.push("packet conservation audit failed".into());
                }
                digests.push(r.outcome.digest);
            },
        )?;
        let t0 = Instant::now();
        while more_setups(e.setup_s.len(), t0) {
            e.setup_s.push(workloads::setup_only(w, seed, sizes));
        }
    } else {
        // No warm-up here: starting the process is part of what the user
        // waits for, and every repetition is a fresh process anyway.
        let bin = cli::find_binary()?;
        repeat(
            budget,
            || cli::run_once(&bin, &CLI_ARGS, seed),
            |r| {
                e.wall_s.push(r.wall_s);
                e.peak_heap_mib.push(r.peak_rss_bytes as f64 / MIB);
                e.attempted += 1;
                if !r.ok {
                    e.failed += 1;
                    e.faults.push("xmp-experiments exited nonzero".into());
                }
                digests.push(r.digest);
            },
        )?;
        let t0 = Instant::now();
        while more_setups(e.setup_s.len(), t0) {
            e.setup_s.push(cli::setup_once(&bin)?);
        }
    }
    e.digest = digests[0];
    if digests.iter().any(|&d| d != e.digest) {
        e.faults
            .push("repetitions of one seed disagree on the outcome digest".into());
    }
    if e.attempted == 0 {
        e.faults.push("nothing was attempted".into());
        e.attempted = 1;
    }
    if !e.faults.is_empty() {
        e.failed = e.attempted;
    }
    Ok(e)
}

/// Error of the hybrid plane against the packet plane on the in-tree
/// validation cell, run both ways: the larger of the relative errors of
/// elephant goodput and mice FCT p99. Deterministic; above the in-tree band
/// the outputs are not correct.
fn model_err(faults: &mut Vec<String>) -> f64 {
    let cell = xmp_experiments::hybrid::run(&xmp_experiments::hybrid::HybridConfig::default_cfg());
    let err = cell.goodput_err().max(cell.fct_p99_err());
    if err > MODEL_ERR_BAND {
        faults.push(format!(
            "hybrid model error {err:.3} above the {MODEL_ERR_BAND} band"
        ));
    }
    err
}

/// One isolated kernel beside the traced bucket it is meant to explain.
#[derive(Clone)]
struct KernelLine {
    name: &'static str,
    ns: f64,
    count: u64,
    bucket: &'static str,
    bucket_s: f64,
}

/// What the traced run of one workload produced.
struct Layers {
    values: Vec<(&'static str, f64)>,
    digest: u64,
    faults: Vec<String>,
    record: Option<trace::Record>,
    kernels: Vec<KernelLine>,
}

impl Layers {
    fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn run_traced(name: &str, seed: u64, sizes: &Sizes) -> Result<Layers, String> {
    let mut values: Vec<(&'static str, f64)> = PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect();
    let mut set = |name: &str, v: f64| {
        let slot = values
            .iter_mut()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("undeclared per-layer metric {name}"));
        slot.1 = if v.is_finite() { v } else { 0.0 };
    };
    let mut faults = Vec::new();
    let Some(w) = in_proc(name) else {
        // The subprocess has no layers the harness can see; its split is
        // the sum of the in-process workloads'.
        let bin = cli::find_binary()?;
        let r = cli::run_once(&bin, &CLI_ARGS, seed)?;
        if !r.ok {
            faults.push("xmp-experiments exited nonzero".into());
        }
        set("experiments.stdout_bytes", r.stdout_bytes as f64);
        set("failed_frac", if r.ok { 0.0 } else { 1.0 });
        return Ok(Layers {
            values,
            digest: r.digest,
            faults,
            record: None,
            kernels: Vec::new(),
        });
    };

    // The untraced twin gives the wall that shares and overhead refer to.
    let bare: Rep = workloads::rep::<Bare>(w, seed, sizes);
    let tr: Rep = workloads::rep::<Traced>(w, seed, sizes);
    let (bo, to) = (&bare.outcome, &tr.outcome);
    if bo.digest != to.digest {
        faults.push("traced and untraced runs disagree on the outcome digest".into());
    }
    if !to.audit_ok {
        faults.push("packet conservation audit failed".into());
    }
    let c = &to.counts;
    if (bo.counts.hops, bo.counts.events) != (c.hops, c.events) {
        faults.push("traced and untraced runs disagree on hop or event counts".into());
    }
    let rec = &tr.record;
    let bare_wall_ns = bare.wall_s() * 1e9;
    let traced_wall = tr.wall_s();
    let agg = |e: Ev| rec.agg[e as usize];

    // Self time per layer; `collect` is workloads code outside any span.
    let collect_self = rec.phase_self_secs("workloads.collect");
    let run_self = rec.phase_self_secs("workloads.run");
    let netsim_self = rec.self_secs(&[Ev::RunSignals, Ev::WithHost, Ev::AdvanceTo, Ev::FluidCall]);
    let transport_evs = [Ev::OnPacket, Ev::OnTimer, Ev::HostClosure];
    let transport_self = rec.self_secs(&transport_evs);
    let workloads_self = rec.self_secs(&[Ev::DriverRun, Ev::OnSignal]) + collect_self;
    let transport_calls: u64 = transport_evs.iter().map(|&e| agg(e).count).sum();
    let host_deliveries = agg(Ev::OnPacket).count;
    let switch_hops = c.hops.saturating_sub(host_deliveries);
    let acks = host_deliveries.saturating_sub(rec.data_delivered);
    let mark_frac = ratio(c.marks as f64, c.enqueued as f64);
    let ce_frac = ratio(rec.ce_delivered as f64, rec.data_delivered as f64);

    // Kernels, each sized by what the traced run just reported.
    let stack = xmp_transport::StackConfig::default();
    let hold_ns = kernels::des_hold(c, stack.rto_min);
    let qdisc_ns = kernels::qdisc(mark_frac);
    let fib_ns = tr.fib_lookup_ns.unwrap_or(0.0);
    let flow_bytes = (c.mean_flow_bytes as u64).clamp(16 << 10, 64 << 20);
    let data_budget = rec.data_delivered.min(600_000);
    let (mut ack_ns, mut data_ns, mut cc_ns) = (0.0, 0.0, 0.0);
    for &(scheme, share) in to.scheme_mix.iter().filter(|(_, share)| *share > 0.0) {
        let budget = (data_budget as f64 * share) as u64;
        let (a, d) = kernels::transport_loop(scheme, flow_bytes, ce_frac, budget.max(1000), &stack);
        ack_ns += share * a;
        data_ns += share * d;
        cc_ns += share * kernels::cc_ack(scheme, ce_frac);
    }
    let (fluid_tick_ns, hybrid_err) = if w == InProc::HybridMix {
        // The same workload with no mice: the fluid plane runs alone.
        let alone = workloads::rep::<Bare>(
            w,
            seed,
            &Sizes {
                mice: 0,
                ..sizes.clone()
            },
        );
        let (secs, ticks) = (alone.wall_s(), alone.outcome.counts.fluid_ticks);
        (ratio(secs * 1e9, ticks as f64), model_err(&mut faults))
    } else {
        (0.0, 0.0)
    };

    let explained_ns = hold_ns * c.events as f64
        + qdisc_ns * c.enqueued as f64
        + fib_ns * switch_hops as f64
        + fluid_tick_ns * c.fluid_ticks as f64;
    let residual = ratio(run_self, traced_wall);
    if residual > RESIDUAL_MAX {
        faults.push(format!("trace residual {residual:.4} above {RESIDUAL_MAX}"));
    }

    set("des.events", c.events as f64);
    set("des.events_per_hop", ratio(c.events as f64, c.hops as f64));
    set("des.pending_mean", c.pending_mean);
    set("des.hold_ns", hold_ns);
    set("des.share", ratio(hold_ns * c.events as f64, bare_wall_ns));
    set("netsim.self_s", netsim_self);
    set("netsim.hops", c.hops as f64);
    set("netsim.hop_ns", ratio(netsim_self * 1e9, c.hops as f64));
    set("netsim.timers", c.timers as f64);
    set("netsim.qdisc_ns", qdisc_ns);
    set("netsim.fib_lookup_ns", fib_ns);
    set(
        "netsim.fib_compile_s",
        rec.phase_secs("netsim.compile_fibs"),
    );
    set(
        "netsim.pool_hit_rate",
        ratio(c.pool_hits as f64, (c.pool_hits + c.pool_misses) as f64),
    );
    set(
        "netsim.allocs_per_hop",
        ratio(bo.counts.steady_allocs as f64, bo.counts.steady_hops as f64),
    );
    set("netsim.marks", c.marks as f64);
    set("netsim.drops", c.drops as f64);
    set("netsim.mark_frac", mark_frac);
    set("netsim.fluid_ticks", c.fluid_ticks as f64);
    set("netsim.fluid_tick_ns", fluid_tick_ns);
    set(
        "netsim.unattributed_frac",
        1.0 - ratio(explained_ns, netsim_self * 1e9).min(1.0),
    );
    set("transport.self_s", transport_self);
    set("transport.calls", transport_calls as f64);
    set(
        "transport.call_ns",
        ratio(transport_self * 1e9, transport_calls as f64),
    );
    set("transport.ack_ns", ack_ns);
    set("transport.data_ns", data_ns);
    set("transport.rtos", c.rtos as f64);
    set("transport.fast_retransmits", c.fast_retransmits as f64);
    set("transport.conns_opened", c.flows_submitted as f64);
    set("core.cc_ack_ns", cc_ns);
    set("core.share", ratio(cc_ns * acks as f64, bare_wall_ns));
    set("topo.build_s", rec.phase_secs("topo.build"));
    set("topo.nodes", c.nodes as f64);
    set("topo.links", c.links as f64);
    set("workloads.submit_s", rec.phase_secs("workloads.submit"));
    set("workloads.self_s", workloads_self);
    set("workloads.collect_s", rec.phase_secs("workloads.collect"));
    set("workloads.flows_submitted", c.flows_submitted as f64);
    set("workloads.flows_completed", c.flows_completed as f64);
    set("workloads.goodput_mbps", c.goodput_mbps);
    set("workloads.fct_p99_ms", c.fct_p99_ms);
    set(
        "trace.overhead_frac",
        ratio(traced_wall, bare.wall_s()) - 1.0,
    );
    set("trace.residual_frac", residual);
    set("model_err", hybrid_err);
    set("failed_frac", ratio(to.failed as f64, to.attempted as f64));
    if to.failed > 0 {
        faults.push(format!("{} of {} flows failed", to.failed, to.attempted));
    }

    let kernels = [
        (
            "des.hold_ns",
            hold_ns,
            c.events,
            "netsim.self_s",
            netsim_self,
        ),
        (
            "netsim.qdisc_ns",
            qdisc_ns,
            c.enqueued,
            "netsim.self_s",
            netsim_self,
        ),
        (
            "netsim.fib_lookup_ns",
            fib_ns,
            switch_hops,
            "netsim.self_s",
            netsim_self,
        ),
        (
            "netsim.fluid_tick_ns",
            fluid_tick_ns,
            c.fluid_ticks,
            "netsim.self_s",
            netsim_self,
        ),
        (
            "transport.ack_ns",
            ack_ns,
            acks,
            "transport.self_s",
            transport_self,
        ),
        (
            "transport.data_ns",
            data_ns,
            rec.data_delivered,
            "transport.self_s",
            transport_self,
        ),
        (
            "core.cc_ack_ns",
            cc_ns,
            acks,
            "transport.self_s",
            transport_self,
        ),
    ]
    .map(|(name, ns, count, bucket, bucket_s)| KernelLine {
        name,
        ns,
        count,
        bucket,
        bucket_s,
    })
    .to_vec();
    Ok(Layers {
        values,
        digest: tr.outcome.digest,
        faults,
        record: Some(tr.record),
        kernels,
    })
}

/// `<target>/benchmark`, where `<target>` is the build directory this
/// executable lives in: the one place the benchmark writes files.
fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_else(|_| PathBuf::from("target/release/benchmark"));
    let target = exe
        .ancestors()
        .find(|p| {
            p.file_name()
                .is_some_and(|n| n == "release" || n == "debug")
        })
        .and_then(|p| p.parent())
        .unwrap_or_else(|| exe.parent().unwrap_or(&exe));
    target.join("benchmark")
}

fn write_file(name: &str, body: &str) -> Result<PathBuf, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// A finite JSON number with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to string"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn trace_json(workload: &str, l: &Layers) -> String {
    let mut s = format!("{{\"workload\": {}, \"phases\": [", json_str(workload));
    let rec = l.record.as_ref();
    for (i, p) in rec.map_or(&[][..], |r| &r.phases).iter().enumerate() {
        let parent = p.parent.map_or("null".to_string(), |id| id.to_string());
        write!(
            s,
            "{}{{\"id\": {}, \"parent\": {parent}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
            if i > 0 { ", " } else { "" },
            p.id,
            json_str(p.name),
            p.start_ns,
            p.end_ns,
            p.self_ns(),
        )
        .expect("write to string");
    }
    s.push_str("], \"events\": [");
    for (i, name) in trace::EV_NAMES.iter().enumerate() {
        let a = rec.map(|r| r.agg[i]).unwrap_or_default();
        write!(
            s,
            "{}{{\"name\": {}, \"count\": {}, \"total_ns\": {}, \"self_ns\": {}, \"max_ns\": {}}}",
            if i > 0 { ", " } else { "" },
            json_str(name),
            a.count,
            a.total_ns,
            a.self_ns,
            a.max_ns,
        )
        .expect("write to string");
    }
    s.push_str("], \"kernels\": [");
    for (i, k) in l.kernels.iter().enumerate() {
        write!(
            s,
            "{}{{\"name\": {}, \"ns\": {}, \"count\": {}, \"explains\": {}, \"bucket_s\": {}, \"kernel_s\": {}}}",
            if i > 0 { ", " } else { "" },
            json_str(k.name),
            num(k.ns),
            k.count,
            json_str(k.bucket),
            num(k.bucket_s),
            num(k.ns * k.count as f64 / 1e9),
        )
        .expect("write to string");
    }
    s.push_str("]}\n");
    s
}

fn unit_of(table: &[(&'static str, &'static str)], name: &str) -> &'static str {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

fn print_end_to_end(name: &str, e: &EndToEnd) {
    println!("== {name}: end to end (untraced) ==");
    for (metric, unit) in END_TO_END {
        let v = e.samples(metric);
        let (q1, med, q3) = quartiles(v);
        println!(
            "  {metric:<28} {med:>14.6} {unit:<5} n={} q1={q1:.6} q3={q3:.6}",
            v.len()
        );
        if metric == "wall_s" {
            let all: Vec<String> = v.iter().map(|x| format!("{x:.3}")).collect();
            println!("  {:<28} {}", "  samples", all.join(" "));
        }
    }
    println!(
        "  {:<28} {:>14.6} frac  ({} failed of {} attempted)",
        "failed_frac",
        ratio(e.failed as f64, e.attempted as f64),
        e.failed,
        e.attempted
    );
    if let Some(err) = e.model_err {
        println!(
            "  {:<28} {err:>14.6} frac  (in-tree band {MODEL_ERR_BAND})",
            "model_err"
        );
    }
    println!("  {:<28} {:016x}", "outcome digest", e.digest);
    if e.hops > 0 {
        let ns_per_hop = median(&e.wall_s) * 1e9 / e.hops as f64;
        println!(
            "  {:<28} {} hops, {} events, {ns_per_hop:.1} ns/hop",
            "work per repetition", e.hops, e.events
        );
    }
    for f in &e.faults {
        println!("  INCORRECT: {f}");
    }
}

fn print_layers(name: &str, l: &Layers) {
    println!("== {name}: per layer (traced, one repetition) ==");
    for (metric, v) in &l.values {
        println!("  {metric:<28} {v:>16.6} {}", unit_of(&PER_LAYER, metric));
    }
    println!("  {:<28} {:016x}", "outcome digest", l.digest);
    if !l.kernels.is_empty() {
        println!("  kernel x count beside the traced bucket it explains:");
    }
    for k in l.kernels.iter().filter(|k| k.count > 0 && k.ns > 0.0) {
        println!(
            "    {:<24} {:>9.1} ns x {:>10} = {:>8.4} s of {} = {:.4} s",
            k.name,
            k.ns,
            k.count,
            k.ns * k.count as f64 / 1e9,
            k.bucket,
            k.bucket_s
        );
    }
    for f in &l.faults {
        println!("  INCORRECT: {f}");
    }
}

/// The contract's result line.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(n),
                num(*v),
                json_str(u)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn end_to_end_line(e: &EndToEnd) -> String {
    let metrics: Vec<(&str, f64, &str)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n, median(e.samples(n)), u))
        .collect();
    result_line(
        e.faults.is_empty() && e.failed == 0,
        e.attempted,
        e.failed,
        &metrics,
    )
}

fn layers_line(l: &Layers) -> String {
    let metrics: Vec<(&str, f64, &str)> = l
        .values
        .iter()
        .map(|&(n, v)| (n, v, unit_of(&PER_LAYER, n)))
        .collect();
    let ok = l.faults.is_empty();
    result_line(ok, 1, u64::from(!ok), &metrics)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Seed, host and toolchain of this run, for the result file.
fn run_record(seed: u64, seconds: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let load1: f64 = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0);
    let noisy = load1 > nproc.saturating_sub(1) as f64;
    if noisy {
        println!("NOISY: 1-min load average {load1} on {nproc} cores; host times are suspect");
    }
    format!(
        "{{\"seed\": {seed}, \"seconds\": {}, \"min_repetitions\": {MIN_REPS}, \"nproc\": {nproc}, \"rustc\": {}, \"git_rev\": {}, \"load1_start\": {}, \"noisy\": {noisy}}}",
        num(seconds),
        json_str(&command_line("rustc", &["--version"])),
        json_str(&command_line("git", &["rev-parse", "--short", "HEAD"])),
        num(load1),
    )
}

/// Every workload, untraced and (with `--traced`) traced; the result file
/// is what `compare` reads.
fn run_all(seed: u64, seconds: f64, traced: bool, out: Option<String>) -> Result<bool, String> {
    let sizes = Sizes::full();
    let mut json = format!(
        "{{\"record\": {}, \"workloads\": {{",
        run_record(seed, seconds)
    );
    let mut all_ok = true;
    for (i, name) in WORKLOADS.iter().enumerate() {
        let e = run_untraced(name, seed, seconds, &sizes)?;
        print_end_to_end(name, &e);
        all_ok &= e.faults.is_empty() && e.failed == 0;
        write!(
            json,
            "{}{}: {{\"repetitions\": {}, \"attempted\": {}, \"failed\": {}, \"model_err\": {}, \"digest\": \"{:016x}\", \"correct\": {}, \"end_to_end\": {{",
            if i > 0 { ", " } else { "" },
            json_str(name),
            e.wall_s.len(),
            e.attempted,
            e.failed,
            e.model_err.map_or("null".into(), num),
            e.digest,
            e.faults.is_empty() && e.failed == 0,
        )
        .expect("write to string");
        for (j, (metric, unit)) in END_TO_END.iter().enumerate() {
            let v = e.samples(metric);
            let (q1, med, q3) = quartiles(v);
            let samples: Vec<String> = v.iter().map(|&x| num(x)).collect();
            write!(
                json,
                "{}{}: {{\"unit\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"samples\": [{}]}}",
                if j > 0 { ", " } else { "" },
                json_str(metric),
                json_str(unit),
                num(med),
                num(q1),
                num(q3),
                v.len(),
                samples.join(", ")
            )
            .expect("write to string");
        }
        json.push_str("}, \"per_layer\": {");
        if traced {
            let l = run_traced(name, seed, &sizes)?;
            print_layers(name, &l);
            if l.digest != e.digest {
                println!("  INCORRECT: traced digest differs from the untraced run's");
                all_ok = false;
            }
            all_ok &= l.faults.is_empty();
            for (j, (metric, v)) in l.values.iter().enumerate() {
                write!(
                    json,
                    "{}{}: {{\"unit\": {}, \"value\": {}}}",
                    if j > 0 { ", " } else { "" },
                    json_str(metric),
                    json_str(unit_of(&PER_LAYER, metric)),
                    num(*v)
                )
                .expect("write to string");
            }
            let path = write_file(&format!("trace-{name}.json"), &trace_json(name, &l))?;
            println!("  trace written to {}", path.display());
        }
        json.push_str("}}");
    }
    json.push_str("}}\n");
    let path = match out {
        Some(p) => {
            std::fs::write(&p, &json).map_err(|e| format!("{p}: {e}"))?;
            PathBuf::from(p)
        }
        None => write_file(&format!("result-seed{seed}.json"), &json)?,
    };
    println!("result written to {}", path.display());
    Ok(all_ok)
}

/// The smoke the builder and CI run: every workload at 1/20 size, every
/// declared metric present, digests agreeing across repetitions and between
/// the traced and the untraced run, nothing failed, residual under 2 %.
fn self_test() -> Result<bool, String> {
    let sizes = Sizes::scaled(0.05);
    let t0 = Instant::now();
    let mut ok = true;
    let mut check = |what: String, cond: bool| {
        if !cond {
            println!("FAIL: {what}");
            ok = false;
        }
    };
    let declared = std::fs::read_to_string("BENCHMARK.json").ok();
    if let Some(text) = &declared {
        for (n, u) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("{{\"name\": \"{n}\", \"unit\": \"{u}\"");
            check(
                format!("BENCHMARK.json declares {n} in {u}"),
                text.contains(&entry),
            );
        }
        for w in WORKLOADS {
            check(
                format!("BENCHMARK.json names workload {w}"),
                text.contains(&format!("\"name\": \"{w}\"")),
            );
        }
    } else {
        println!(
            "note: no BENCHMARK.json in the working directory; declarations not cross-checked"
        );
    }
    for name in WORKLOADS {
        let in_process = in_proc(name).is_some();
        let e = if in_process {
            run_untraced(name, 42, 0.0, &sizes)?
        } else {
            // The subprocess cannot be shrunk below `--quick`; one of its
            // experiments stands in for all of them here.
            let bin = cli::find_binary()?;
            let a = cli::run_once(&bin, &["dynamics", "--quick"], 42)?;
            let b = cli::run_once(&bin, &["dynamics", "--quick"], 42)?;
            check(format!("{name}: exit status"), a.ok && b.ok);
            check(
                format!("{name}: stdout digest repeats"),
                a.digest == b.digest,
            );
            check(format!("{name}: child VmHWM read"), a.peak_rss_bytes > 0);
            continue;
        };
        check(
            format!("{name}: at least two repetitions"),
            e.wall_s.len() >= 2,
        );
        check(
            format!("{name}: outputs correct {:?}", e.faults),
            e.faults.is_empty(),
        );
        check(
            format!("{name}: failed_frac == 0 ({} of {})", e.failed, e.attempted),
            e.failed == 0,
        );
        for (metric, _) in END_TO_END {
            check(
                format!("{name}: {metric} > 0"),
                median(e.samples(metric)) > 0.0,
            );
        }
        let l = run_traced(name, 42, &sizes)?;
        check(
            format!("{name}: traced run correct {:?}", l.faults),
            l.faults.is_empty(),
        );
        check(
            format!("{name}: traced digest equals untraced"),
            l.digest == e.digest,
        );
        check(
            format!("{name}: every per-layer metric present"),
            l.values.len() == PER_LAYER.len(),
        );
        check(
            format!(
                "{name}: trace.residual_frac {} < {RESIDUAL_MAX}",
                l.get("trace.residual_frac")
            ),
            l.get("trace.residual_frac") < RESIDUAL_MAX,
        );
        check(format!("{name}: hops counted"), l.get("netsim.hops") > 0.0);
        if name == "db_long" {
            // Its flows open in the first 10 ms and nothing chains, so the
            // steady window must not allocate at all. (Where completions
            // open new flows that costs about one allocation per thousand
            // hops; `ft16_wave` is all start-up at self-test size.)
            check(
                format!(
                    "{name}: netsim.allocs_per_hop {} == 0",
                    l.get("netsim.allocs_per_hop")
                ),
                l.get("netsim.allocs_per_hop") == 0.0,
            );
        }
        println!(
            "ok {name:<12} wall {:.3} s  hops {}  digest {:016x}",
            median(&e.wall_s),
            l.get("netsim.hops"),
            e.digest
        );
    }
    println!(
        "self-test {} in {:.1} s",
        if ok { "passed" } else { "FAILED" },
        t0.elapsed().as_secs_f64()
    );
    Ok(ok)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: 10.0,
        trace: false,
        self_test: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload `{w}`; one of {}",
                        WORKLOADS.join(", ")
                    ));
                }
                a.workload = Some(w);
            }
            "--seed" => {
                let v = value("a number")?;
                a.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: `{v}` is not a whole number"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                a.seconds = v
                    .parse()
                    .map_err(|_| format!("--seconds: `{v}` is not a number"))?;
                if !(0.0..=600.0).contains(&a.seconds) {
                    return Err(format!("--seconds: {v} is outside 0..=600"));
                }
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: `{other}` is neither 0 nor 1")),
                };
            }
            "--traced" => a.trace = true,
            "--self-test" => a.self_test = true,
            "--out" => a.out = Some(value("a file name")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    if args.self_test {
        return self_test();
    }
    let Some(name) = args.workload else {
        return run_all(args.seed, args.seconds, args.trace, args.out);
    };
    let sizes = Sizes::full();
    // The result goes last on stdout; a failed correctness check is a
    // result (`correct: false`), not a crash.
    if args.trace {
        let l = run_traced(&name, args.seed, &sizes)?;
        print_layers(&name, &l);
        write_file(&format!("trace-{name}.json"), &trace_json(&name, &l))?;
        println!("{}", layers_line(&l));
    } else {
        let e = run_untraced(&name, args.seed, args.seconds, &sizes)?;
        print_end_to_end(&name, &e);
        println!("{}", end_to_end_line(&e));
    }
    Ok(true)
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(2);
        }
    }
}
