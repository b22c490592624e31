//! # xmp-bench — in-tree benchmark harness (std-only)
//!
//! Replaces the former Criterion dependency so the workspace builds and
//! benches **offline with zero external crates**. The harness is
//! deliberately tiny: wall-clock trials via [`std::time::Instant`] with a
//! warmup pass, reporting median/min/mean, plus a hand-rolled JSON writer
//! (the shape of the committed `BENCH_pr*.json` history). The repository's
//! benchmark is `examples/benchmark/`; this crate only times the
//! per-figure benches.
//!
//! Every `benches/*.rs` target is a plain `fn main()` (`harness = false`)
//! that first renders its paper artifact once (stderr, so `cargo bench`
//! output still contains the regenerated rows) and then measures the run
//! through [`measure`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// How many heap allocations the process has performed (when
/// [`CountingAlloc`] is installed as the global allocator; always 0
/// otherwise). Signature matches `xmp_netsim::set_alloc_probe`, so the
/// engine can attribute allocations to event-loop windows.
pub fn alloc_count() -> u64 {
    ALLOC_COUNT.load(Ordering::Relaxed)
}

/// Heap bytes currently allocated and not yet freed (when
/// [`CountingAlloc`] is installed; always 0 otherwise). Signature matches
/// `xmp_netsim::set_alloc_bytes_probe`, so the engine can record the
/// high-water mark of memory-bounded cells (the million-flow hybrid
/// scenario) as a measured number.
pub fn alloc_live_bytes() -> u64 {
    ALLOC_LIVE_BYTES.load(Ordering::Relaxed)
}

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

/// A counting wrapper over the system allocator, for bench binaries only
/// (`#[global_allocator] static A: CountingAlloc = CountingAlloc;`).
/// Counts every `alloc`/`alloc_zeroed`/`realloc` — frees are not counted,
/// since the zero-allocation claim is about *acquiring* memory on the hot
/// path. The counter is process-global and monotone; callers diff
/// [`alloc_count`] across a window. Live bytes ([`alloc_live_bytes`]) are
/// tracked separately: allocations add their layout size, frees subtract
/// it, and reallocs apply the delta, so the reading is the current heap
/// footprint rather than cumulative traffic.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        ALLOC_LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        let old = layout.size() as u64;
        let new = new_size as u64;
        if new >= old {
            ALLOC_LIVE_BYTES.fetch_add(new - old, Ordering::Relaxed);
        } else {
            ALLOC_LIVE_BYTES.fetch_sub(old - new, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Trial-count configuration. A single iteration here is a whole
/// simulation, so counts stay small (Criterion's `sample_size(10)`
/// equivalent).
#[derive(Clone, Copy, Debug)]
pub struct BenchConfig {
    /// Untimed iterations to warm caches and the allocator.
    pub warmup: usize,
    /// Timed iterations.
    pub trials: usize,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            warmup: 1,
            trials: 5,
        }
    }
}

impl BenchConfig {
    /// Quick preset for heavyweight benches (one warmup, three trials).
    pub fn heavy() -> Self {
        BenchConfig {
            warmup: 1,
            trials: 3,
        }
    }
}

/// Wall-clock statistics over the timed trials, in nanoseconds.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Median trial.
    pub median_ns: u64,
    /// Fastest trial.
    pub min_ns: u64,
    /// Slowest trial.
    pub max_ns: u64,
    /// Arithmetic mean.
    pub mean_ns: u64,
    /// Number of timed trials.
    pub trials: usize,
}

impl Sample {
    /// Median in fractional milliseconds.
    pub fn median_ms(&self) -> f64 {
        self.median_ns as f64 / 1e6
    }

    /// Minimum in fractional milliseconds.
    pub fn min_ms(&self) -> f64 {
        self.min_ns as f64 / 1e6
    }
}

impl fmt::Display for Sample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "median {:.3} ms, min {:.3} ms, mean {:.3} ms over {} trials",
            self.median_ns as f64 / 1e6,
            self.min_ns as f64 / 1e6,
            self.mean_ns as f64 / 1e6,
            self.trials
        )
    }
}

/// Time `f` for `cfg.trials` iterations after `cfg.warmup` untimed ones.
/// The closure's return value is passed through [`std::hint::black_box`]
/// so the compiler cannot elide the work.
pub fn measure<R>(cfg: BenchConfig, mut f: impl FnMut() -> R) -> Sample {
    for _ in 0..cfg.warmup {
        std::hint::black_box(f());
    }
    let mut times: Vec<u64> = Vec::with_capacity(cfg.trials);
    for _ in 0..cfg.trials.max(1) {
        let t0 = Instant::now();
        std::hint::black_box(f());
        times.push(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
    }
    times.sort_unstable();
    let n = times.len();
    Sample {
        median_ns: times[n / 2],
        min_ns: times[0],
        max_ns: times[n - 1],
        mean_ns: (times.iter().map(|&t| t as u128).sum::<u128>() / n as u128) as u64,
        trials: n,
    }
}

/// Convenience wrapper used by the `benches/*.rs` targets: measure with the
/// default config and print one Criterion-style summary line to stdout.
pub fn bench_main<R>(name: &str, f: impl FnMut() -> R) -> Sample {
    let s = measure(BenchConfig::default(), f);
    println!("{name:<32} {s}");
    s
}

/// First line of a command's stdout, or `"unknown"` if the command is
/// missing or fails (benches must run on hermetic hosts without git or a
/// rustc on PATH).
fn first_line_of(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            let s = String::from_utf8_lossy(&o.stdout);
            s.lines().next().map(|l| l.trim().to_string())
        })
        .filter(|l| !l.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host metadata block every `BENCH_*.json` report embeds, so perf numbers
/// stay interpretable across machines: available parallelism, the
/// toolchain, and the exact source revision measured.
pub fn host_meta() -> Json {
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj()
        .set("parallelism", parallelism)
        .set("rustc", first_line_of("rustc", &["--version"]))
        .set(
            "git_rev",
            first_line_of("git", &["rev-parse", "--short", "HEAD"]),
        )
        .set("os", std::env::consts::OS)
        .set("arch", std::env::consts::ARCH)
}

/// A minimal JSON value — just enough structure for the bench reports.
#[derive(Clone, Debug)]
pub enum Json {
    /// Float (serialized with enough digits to round-trip perf numbers).
    Num(f64),
    /// Unsigned integer.
    Int(u64),
    /// Boolean.
    Bool(bool),
    /// String (escaped on output).
    Str(String),
    /// Ordered key/value object.
    Obj(Vec<(String, Json)>),
    /// Array.
    Arr(Vec<Json>),
}

impl Json {
    /// Empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Insert/append a field (objects only).
    pub fn set(mut self, key: &str, val: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), val.into())),
            _ => panic!("Json::set on a non-object"),
        }
        self
    }

    fn write(&self, out: &mut String, indent: usize) {
        use std::fmt::Write;
        match self {
            Json::Num(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x:.3}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Int(x) => {
                let _ = write!(out, "{x}");
            }
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    let _ = write!(out, "{:1$}\"{k}\": ", "", (indent + 1) * 2);
                    v.write(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                let _ = write!(out, "{:1$}}}", "", indent * 2);
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.write(out, indent);
                }
                out.push(']');
            }
        }
    }

    /// Pretty-printed serialization.
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, 0);
        s.push('\n');
        s
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}
impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Int(x)
    }
}
impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Int(x as u64)
    }
}
impl From<bool> for Json {
    fn from(x: bool) -> Json {
        Json::Bool(x)
    }
}
impl From<&str> for Json {
    fn from(x: &str) -> Json {
        Json::Str(x.to_string())
    }
}
impl From<String> for Json {
    fn from(x: String) -> Json {
        Json::Str(x)
    }
}

impl From<Sample> for Json {
    fn from(s: Sample) -> Json {
        Json::obj()
            .set("median_ms", s.median_ns as f64 / 1e6)
            .set("min_ms", s.min_ns as f64 / 1e6)
            .set("max_ms", s.max_ns as f64 / 1e6)
            .set("mean_ms", s.mean_ns as f64 / 1e6)
            .set("trials", s.trials)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_ordered_stats() {
        let mut i = 0u64;
        let s = measure(
            BenchConfig {
                warmup: 0,
                trials: 5,
            },
            || {
                i += 1;
                std::thread::sleep(std::time::Duration::from_micros(50 * (i % 3)));
            },
        );
        assert_eq!(s.trials, 5);
        assert!(s.min_ns <= s.median_ns && s.median_ns <= s.max_ns);
    }

    #[test]
    fn json_renders_nested_objects() {
        let j = Json::obj()
            .set("a", 1u64)
            .set("b", Json::obj().set("c", 2.5).set("s", "x\"y"))
            .set("arr", Json::Arr(vec![Json::Int(1), Json::Bool(true)]));
        let s = j.render();
        assert!(s.contains("\"a\": 1"));
        assert!(s.contains("\"c\": 2.500"));
        assert!(s.contains("\\\"y"));
        assert!(s.contains("[1, true]"));
    }
}
