//! `xmp-experiments` — command-line driver regenerating the paper's tables
//! and figures.
//!
//! ```text
//! xmp-experiments <command> [--quick] [--seed N] [--scale N] [--flows N]
//!                 [--pattern P]
//!
//! commands:
//!   run FILE  one paper run from a scenario file with a [measure]
//!             (scenarios/paper/*.scn); --seed overrides the file's; its
//!             [probes] export to results/<file stem>_<variant>.jsonl
//!   fig1      DCTCP vs constant-cut convergence/fairness
//!   fig4      traffic shifting on the Fig.3a testbed (beta 4 vs 6)
//!   fig6      fairness with 3/2/1/1 subflows (beta 4 vs 6)
//!   fig7      torus rate compensation (beta 4/5/6)
//!   failover  goodput through a mid-transfer core-link failure
//!   fattree   the fat-tree suite: Table 1, Figs. 8/9/10/11, Table 3
//!             (also as table1, table3, fig8, fig9, fig10, fig11)
//!   table2    XMP coexistence with LIA / TCP / DCTCP
//!   dynamics  Fig.2-style cwnd/queue time series, exported to
//!             results/dynamics_<variant>.jsonl (exits 2 naming the path
//!             when results/ cannot be written)
//!             (these eight run scenarios/paper/<command>.scn, built in)
//!   ablation  beta/K sweep and TraSh-coupling ablation
//!             (scenarios/paper/{sweep,coupling}.scn, built in), OLIA
//!             comparison
//!   scale     wall clock, peak RSS and outcome digest of one large serial
//!             cell; `scale mega` runs the k=32 (8192-host) memory cell
//!   hybrid    hybrid fluid/packet mode vs packet baseline, per-class
//!             tolerance check (exits nonzero when out of tolerance);
//!             `hybrid million` runs the million-flow fluid scale cell
//!   trace     export | report [files...] — write / summarize JSONL traces
//!   all       the paper commands: fig1, fig4, fig6, fig7, fattree,
//!             table2, failover, dynamics
//! ```
//!
//! `--scale`, `--flows` and `--pattern` reach a `[pattern]` run only (`all`:
//! `fattree` and `table2`), after `--quick`. A flag the command does not
//! read, a pattern filter that leaves nothing, a file that does not load
//! or a scenario that does not build exits 2 before anything is simulated.
//! Every cell ends with the one end-of-run audit (`runner::Cell::finish`);
//! once the command is done, exit 1 names each failure.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;
use xmp_experiments::scenario::{pattern_number, PatternSpec, Scenario};
use xmp_experiments::{ablation, hybrid, report, runner, scale};

#[derive(Debug, Clone, Default)]
struct Opts {
    quick: bool,
    /// `None`: a scenario file's own seed, 42 for the other commands.
    seed: Option<u64>,
    scale: Option<u64>,
    flows: Option<u64>,
    pattern: Option<String>,
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts::default();
    fn arg<T: std::str::FromStr>(flag: &str, val: Option<&String>) -> T {
        let Some(val) = val else {
            eprintln!("{flag} needs a value (e.g. `{flag} 4`)");
            std::process::exit(2);
        };
        val.parse().unwrap_or_else(|_| {
            eprintln!("{flag}: `{val}` is not a valid value");
            std::process::exit(2);
        })
    }
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => o.quick = true,
            "--seed" => o.seed = Some(arg("--seed", it.next())),
            "--scale" => o.scale = Some(arg("--scale", it.next())),
            "--flows" => o.flows = Some(arg("--flows", it.next())),
            "--pattern" => o.pattern = Some(arg::<String>("--pattern", it.next()).to_lowercase()),
            other => {
                eprintln!("unknown option {other}");
                std::process::exit(2);
            }
        }
    }
    o
}

impl Opts {
    fn seed(&self) -> u64 {
        self.seed.unwrap_or(42)
    }

    /// Exit 2 naming the first flag given that command `label` does not
    /// read (`--quick` only if `quick`; `--seed` always).
    fn only_seed(&self, label: &str, quick: bool) {
        let given = [
            ("--quick", self.quick && !quick),
            ("--scale", self.scale.is_some()),
            ("--flows", self.flows.is_some()),
            ("--pattern", self.pattern.is_some()),
        ];
        if let Some((flag, _)) = given.iter().find(|g| g.1) {
            refuse(
                label,
                format!("{flag} does not apply: this run does not read it"),
            );
        }
    }
}

fn timed<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let r = f();
    eprintln!("[{label}] wall time {:.1}s", t0.elapsed().as_secs_f64());
    r
}

/// A paper run that cannot start: exit 2 naming it.
fn refuse(label: &str, e: impl std::fmt::Display) -> ! {
    eprintln!("{label}: {e}");
    std::process::exit(2);
}

/// Paper run `label` from scenario-file `text`, with `o` applied: `--quick`,
/// `--seed`, then a `[pattern]`'s `--scale`, `--flows` and `--pattern`.
fn paper(label: &str, text: &str, o: &Opts) -> Scenario {
    let mut sc = runner::load(text).unwrap_or_else(|e| refuse(label, e));
    if o.quick {
        sc = sc.quick();
    }
    sc.seed = o.seed.unwrap_or(sc.seed);
    let Some(p) = sc.paper.pattern.as_mut() else {
        o.only_seed(label, true);
        return sc;
    };
    let set = |key, n: Option<u64>, was| {
        let n = n.map(|n| pattern_number(key, n).map_err(|e| format!("--{key} {e}")));
        n.unwrap_or(Ok(was)).unwrap_or_else(|e| refuse(label, e))
    };
    (p.scale, p.flows) = (
        set("scale", o.scale, p.scale),
        set("flows", o.flows, p.flows),
    );
    if let Some(want) = &o.pattern {
        let names = PatternSpec::kind_names(&p.kinds);
        p.kinds.retain(|k| k.name().starts_with(want.as_str()));
        if p.kinds.is_empty() {
            let why = format!("unknown pattern, want {names} (or a prefix)");
            refuse(label, format!("--pattern {want}: {why}"));
        }
    }
    sc
}

/// Run paper scenario `sc`, named `label` in messages and `name` in its
/// exports; print its tables, write its probe exports under `results/` and
/// return its audit failures.
fn run_paper(label: &str, name: &str, sc: &Scenario) -> Vec<String> {
    let r = timed(label, || runner::run(name, sc)).unwrap_or_else(|e| refuse(label, e));
    for c in &r.cells {
        eprint!("  -> {}", c.result);
        eprintln!("  -> profile: {}", c.outcome.profile.summary());
    }
    print!("{r}");
    let mut exports = r.exports().peekable();
    if exports.peek().is_some() {
        std::fs::create_dir_all("results").unwrap_or_else(|e| refuse("create results/", e));
    }
    for (file, export) in exports {
        let path = format!("results/{file}");
        let write = || {
            let mut w = BufWriter::new(File::create(&path)?);
            write!(w, "{export}")?;
            w.flush()
        };
        write().unwrap_or_else(|e| refuse(&format!("write {path}"), e));
        println!("wrote {path} ({} lines)", export.lines());
    }
    r.audit_failures()
}

/// The committed run `name` (`scenarios/paper/<name>.scn`), with `o`
/// applied.
fn committed(name: &str, o: &Opts) -> Scenario {
    let text = runner::PAPER_RUNS.iter().find(|r| r.0 == name).map(|r| r.1);
    paper(name, text.unwrap_or_default(), o)
}

/// `trace report [files...]` — defaults to every results/*.jsonl: the
/// `dynamics` exports and those of any probed `run FILE.scn`.
fn run_trace_report(paths: &[String]) {
    let paths: Vec<String> = if paths.is_empty() {
        let mut found: Vec<String> = std::fs::read_dir("results")
            .into_iter()
            .flatten()
            .flatten()
            .map(|e| e.path().to_string_lossy().into_owned())
            .filter(|p| p.ends_with(".jsonl"))
            .collect();
        found.sort();
        if found.is_empty() {
            eprintln!("no .jsonl traces under results/ — run `dynamics` or `trace export` first");
            std::process::exit(2);
        }
        found
    } else {
        paths.to_vec()
    };
    for path in &paths {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("read {path}: {e}");
            std::process::exit(2);
        });
        match report::parse_jsonl(&text) {
            Ok(records) => {
                println!("-- {path} --");
                print!("{}", report::summarize(&records));
            }
            Err(e) => {
                eprintln!("{path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// The hybrid cell's audit failures; exit 1 when it is out of tolerance
/// but audits clean.
fn run_hybrid(o: &Opts) -> Vec<String> {
    o.only_seed("hybrid", true);
    let mut cfg = if o.quick {
        hybrid::HybridConfig::quick()
    } else {
        hybrid::HybridConfig::default_cfg()
    };
    cfg.seed = o.seed();
    let r = timed("hybrid", || hybrid::run(&cfg));
    println!("{r}");
    let failures = r.audit_failures();
    if failures.is_empty() && !r.within_tolerance() {
        std::process::exit(1);
    }
    failures
}

fn run_hybrid_million(o: &Opts) -> Vec<String> {
    o.only_seed("hybrid million", true);
    let mut cfg = if o.quick {
        hybrid::MillionConfig::quick()
    } else {
        hybrid::MillionConfig::default_cfg()
    };
    cfg.seed = o.seed();
    let r = timed("hybrid million", || hybrid::run_million(&cfg));
    println!("{r}");
    r.outcome.failures
}

/// Exit 2 with `usage`.
fn usage(usage: &str) -> ! {
    eprintln!("usage: xmp-experiments {usage}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let words: Vec<&str> = args.iter().map(String::as_str).collect();
    // A subcommand word or a file path comes before the flags.
    let (cmd, rest) = match words[..] {
        [] => usage("<run FILE|fig1|fig4|fig6|fig7|fattree|table2|ablation|failover|dynamics|scale|hybrid|trace|all> [--quick] [--seed N] [--scale N] [--flows N] [--pattern P]"),
        ["trace", "report", ..] => return run_trace_report(&args[2..]),
        ["trace", "export", ..] => ("dynamics".to_string(), &args[2..]),
        ["trace", ..] => usage("trace <export [--quick] [--seed N] | report [files...]>"),
        ["run", path, ..] if !path.starts_with("--") => (path.to_string(), &args[2..]),
        ["run", ..] => usage("run FILE.scn [--quick] [--seed N] [--scale N] [--flows N] [--pattern P]"),
        [c @ ("scale" | "hybrid"), sub @ ("mega" | "million"), ..] => (format!("{c} {sub}"), &args[2..]),
        [c, ..] => (c.to_string(), &args[1..]),
    };
    let (cmd, o) = (cmd.as_str(), &parse_opts(rest));
    let failures = match cmd {
        path if words[0] == "run" => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| refuse(path, format!("cannot read: {e}")));
            let stem = Path::new(path).file_stem().unwrap_or_default();
            run_paper(path, &stem.to_string_lossy(), &paper(path, &text, o))
        }
        "fig1" | "fig4" | "fig6" | "fig7" | "failover" | "table2" | "dynamics" => {
            run_paper(cmd, cmd, &committed(cmd, o))
        }
        "fattree" | "table1" | "fig8" | "fig9" | "fig10" | "fig11" | "table3" => {
            run_paper("fattree", "fattree", &committed("fattree", o))
        }
        "scale" | "scale mega" => {
            // The k = 32 memory-footprint cell has no quick form.
            o.only_seed(cmd, cmd == "scale");
            let cell = match (cmd, o.quick) {
                ("scale mega", _) => scale::mega,
                (_, true) => scale::quick,
                _ => scale::headline,
            };
            let r = timed(cmd, || scale::run(cell(o.seed()))).unwrap_or_else(|e| refuse(cmd, e));
            println!("{r}");
            r.outcome.failures
        }
        "hybrid" => run_hybrid(o),
        "hybrid million" => run_hybrid_million(o),
        "ablation" => {
            o.only_seed("ablation", true);
            let r = timed("ablation", || ablation::run(o.quick, o.seed));
            let r = r.unwrap_or_else(|e| refuse("ablation", e));
            println!("{r}");
            r.audit
        }
        "all" => {
            // The suite's flags are checked before anything runs.
            let (fattree, table2) = (committed("fattree", o), committed("table2", o));
            let mut series = o.clone();
            (series.scale, series.flows, series.pattern) = (None, None, None);
            let mut failures = Vec::new();
            let mut run = |r: &str, sc: &Scenario| {
                let each = run_paper(r, r, sc).into_iter();
                failures.extend(each.map(|f| format!("{r}: {f}")));
            };
            for fig in ["fig1", "fig4", "fig6", "fig7"] {
                run(fig, &committed(fig, &series));
            }
            run("fattree", &fattree);
            run("table2", &table2);
            for r in ["failover", "dynamics"] {
                run(r, &committed(r, &series));
            }
            failures
        }
        other => {
            eprintln!("unknown command {other}");
            std::process::exit(2);
        }
    };
    // Every end-of-run audit failure, named; exit 1 if any.
    for f in &failures {
        eprintln!("{cmd}: audit failed: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
