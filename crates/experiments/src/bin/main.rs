//! `xmp-experiments` — command-line driver regenerating the paper's tables
//! and figures.
//!
//! ```text
//! xmp-experiments <command> [--quick] [--seed N] [--scale N] [--flows N]
//!                 [--pattern P]
//!
//! commands:
//!   run FILE  one paper run from a scenario file with a [measure]
//!             (scenarios/paper/*.scn); --seed overrides the file's
//!   fig1      DCTCP vs constant-cut convergence/fairness
//!   fig4      traffic shifting on the Fig.3a testbed (beta 4 vs 6)
//!   fig6      fairness with 3/2/1/1 subflows (beta 4 vs 6)
//!   fig7      torus rate compensation (beta 4/5/6)
//!   failover  goodput through a mid-transfer core-link failure
//!             (these five run scenarios/paper/<command>.scn, built in)
//!   fattree   the fat-tree suite: Table 1, Figs. 8/9/10/11, Table 3
//!   table2    XMP coexistence with LIA / TCP / DCTCP
//!   ablation  beta/K sweep, TraSh-coupling ablation, OLIA comparison
//!   dynamics  Fig.2-style cwnd/queue time series, exported to results/
//!             (exits 2 naming the path when results/ cannot be written)
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
//! A paper run exits 2 on a file that does not load or a scenario that does
//! not build. Every command that simulates ends each cell with the full
//! end-of-run audit and exits 1 naming a cell whose audit fails.

use std::time::Instant;
use xmp_experiments::suite::{self, Pattern, SuiteConfig};
use xmp_experiments::{ablation, dynamics, hybrid, report, runner, scale, table2};
use xmp_workloads::Scheme;

#[derive(Debug, Clone)]
struct Opts {
    quick: bool,
    /// `None`: a scenario file's own seed, 42 for the other commands.
    seed: Option<u64>,
    scale: u64,
    flows: usize,
    pattern: Option<String>,
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts {
        quick: false,
        seed: None,
        scale: 128,
        flows: 2000,
        pattern: None,
    };
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
            "--scale" => {
                o.scale = arg("--scale", it.next());
                if o.scale == 0 {
                    eprintln!(
                        "--scale 0 is out of range: flow sizes are divided by it, pick 1 or more"
                    );
                    std::process::exit(2);
                }
            }
            "--flows" => o.flows = arg("--flows", it.next()),
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

/// One paper run from scenario-file `text`.
fn run_paper(label: &str, text: &str, o: &Opts) {
    let mut sc = runner::load(text).unwrap_or_else(|e| refuse(label, e));
    if o.quick {
        sc = sc.quick();
    }
    sc.seed = o.seed.unwrap_or(sc.seed);
    let r = timed(label, || runner::run(&sc)).unwrap_or_else(|e| refuse(label, e));
    println!("{r}");
    exit_on_audit_failures(label, &r.audit_failures());
}

/// Name every end-of-run audit failure of run `label`; exit 1 if any.
fn exit_on_audit_failures(label: &str, failures: &[String]) {
    for f in failures {
        eprintln!("{label}: audit failed: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

/// The committed run `name` (`scenarios/paper/<name>.scn`).
fn run_committed(name: &str, o: &Opts) {
    if let Some((_, text)) = runner::PAPER_RUNS.iter().find(|r| r.0 == name) {
        run_paper(name, text, o);
    }
}

fn suite_cfg(o: &Opts, scheme: Scheme, pattern: Pattern) -> SuiteConfig {
    let mut cfg = if o.quick {
        SuiteConfig::quick(scheme, pattern)
    } else {
        SuiteConfig::new(scheme, pattern)
    };
    cfg.seed = o.seed();
    if !o.quick {
        cfg.scale = o.scale;
        cfg.target_flows = o.flows;
    }
    cfg
}

fn run_fattree(o: &Opts) {
    let schemes = [
        Scheme::Dctcp,
        Scheme::lia(2),
        Scheme::lia(4),
        Scheme::xmp(2),
        Scheme::xmp(4),
    ];
    let all = [Pattern::Permutation, Pattern::Random, Pattern::Incast];
    let patterns: Vec<Pattern> = all
        .iter()
        .copied()
        .filter(|p| {
            o.pattern
                .as_deref()
                .is_none_or(|want| p.label().to_lowercase().starts_with(want))
        })
        .collect();
    if patterns.is_empty() {
        eprintln!(
            "--pattern {}: unknown pattern, want permutation, random or incast (or a prefix)",
            o.pattern.as_deref().unwrap_or_default()
        );
        std::process::exit(2);
    }
    let mut results = Vec::new();
    let mut failures = Vec::new();
    for &p in &patterns {
        for &s in &schemes {
            let cfg = suite_cfg(o, s, p);
            let label = format!("{}/{}", s.label(), p.label());
            let (r, profile, audit) = timed(&label, || suite::run_suite_profiled(&cfg));
            eprintln!("  -> {r}");
            eprintln!("  -> profile: {}", profile.summary());
            failures.extend(audit.into_iter().map(|f| format!("{label}: {f}")));
            results.push(r);
        }
    }
    println!("{}", suite::render_table1(&results));
    for &p in &patterns {
        for t in suite::render_fig8(&results, p) {
            println!("{t}");
        }
    }
    for t in suite::render_jobs(&results) {
        println!("{t}");
    }
    for &p in &patterns {
        println!("{}", suite::render_fig10(&results, p));
    }
    for &p in &patterns {
        println!("{}", suite::render_fig11(&results, p));
    }
    for &p in &patterns {
        println!("{}", suite::render_occupancy(&results, p));
    }
    exit_on_audit_failures("fattree", &failures);
}

fn run_table2(o: &Opts) {
    let mut cfg = if o.quick {
        table2::Table2Config::quick()
    } else {
        table2::Table2Config::default()
    };
    cfg.base = suite_cfg(o, Scheme::xmp(2), Pattern::Random);
    let r = timed("table2", || table2::run(&cfg));
    println!("{r}");
    exit_on_audit_failures("table2", &r.audit);
}

fn run_dynamics(o: &Opts) {
    let mut cfg = if o.quick {
        dynamics::DynamicsConfig::quick()
    } else {
        dynamics::DynamicsConfig::default()
    };
    cfg.seed = o.seed();
    let r = timed("dynamics", || dynamics::run(&cfg));
    print!("{r}");
    std::fs::create_dir_all("results").unwrap_or_else(|e| refuse("create results/", e));
    for tr in &r.traces {
        let path = format!("results/{}", tr.filename());
        std::fs::write(&path, &tr.jsonl).unwrap_or_else(|e| refuse(&format!("write {path}"), e));
        println!("wrote {path} ({} lines)", tr.jsonl.lines().count());
    }
    exit_on_audit_failures("dynamics", &r.audit_failures());
}

/// `trace report [files...]` — defaults to every results/dynamics_*.jsonl.
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

/// One scale cell, `label` naming it.
fn run_scale(label: &str, sc: xmp_experiments::scenario::Scenario) {
    let r = timed(label, || scale::run(sc)).unwrap_or_else(|e| refuse(label, e));
    println!("{r}");
    exit_on_audit_failures(label, &r.audit);
}

fn run_hybrid(o: &Opts) {
    let mut cfg = if o.quick {
        hybrid::HybridConfig::quick()
    } else {
        hybrid::HybridConfig::default_cfg()
    };
    cfg.seed = o.seed();
    let r = timed("hybrid", || hybrid::run(&cfg));
    println!("{r}");
    exit_on_audit_failures("hybrid", &r.audit_failures());
    if !r.within_tolerance() {
        std::process::exit(1);
    }
}

fn run_hybrid_million(o: &Opts) {
    let mut cfg = if o.quick {
        hybrid::MillionConfig::quick()
    } else {
        hybrid::MillionConfig::default_cfg()
    };
    cfg.seed = o.seed();
    let r = timed("hybrid million", || hybrid::run_million(&cfg));
    println!("{r}");
    exit_on_audit_failures("hybrid million", &r.audit);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("usage: xmp-experiments <run FILE|fig1|fig4|fig6|fig7|fattree|table2|ablation|failover|dynamics|scale|hybrid|trace|all> [--quick] [--seed N] [--scale N] [--flows N] [--pattern P]");
        std::process::exit(2);
    };
    // `trace` takes file paths, which parse_opts would reject.
    if cmd == "trace" {
        match rest.split_first() {
            Some((sub, tail)) if sub == "export" => run_dynamics(&parse_opts(tail)),
            Some((sub, tail)) if sub == "report" => run_trace_report(tail),
            _ => {
                eprintln!("usage: xmp-experiments trace <export [--quick] [--seed N] | report [files...]>");
                std::process::exit(2);
            }
        }
        return;
    }
    // `hybrid` has a `million` subcommand, which parse_opts would reject.
    if cmd == "hybrid" {
        match rest.split_first() {
            Some((sub, tail)) if sub == "million" => run_hybrid_million(&parse_opts(tail)),
            _ => run_hybrid(&parse_opts(rest)),
        }
        return;
    }
    // `scale` has a `mega` subcommand (k = 32 memory-footprint cell).
    if cmd == "scale" {
        match rest.split_first() {
            Some((sub, tail)) if sub == "mega" => {
                run_scale("scale mega", scale::mega(parse_opts(tail).seed()))
            }
            _ => {
                let o = parse_opts(rest);
                let cell = if o.quick {
                    scale::quick
                } else {
                    scale::headline
                };
                run_scale("scale", cell(o.seed()))
            }
        }
        return;
    }
    // `run` takes the scenario file first.
    if cmd == "run" {
        let Some((path, tail)) = rest.split_first().filter(|(p, _)| !p.starts_with("--")) else {
            eprintln!("usage: xmp-experiments run FILE.scn [--quick] [--seed N]");
            std::process::exit(2);
        };
        let o = parse_opts(tail);
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| refuse(path, format!("cannot read: {e}")));
        run_paper(path, &text, &o);
        return;
    }
    let o = parse_opts(rest);
    match cmd.as_str() {
        "fig1" | "fig4" | "fig6" | "fig7" | "failover" => run_committed(cmd, &o),
        "fattree" | "table1" | "fig8" | "fig9" | "fig10" | "fig11" | "table3" => run_fattree(&o),
        "table2" => run_table2(&o),
        "dynamics" => run_dynamics(&o),
        "ablation" => {
            let cfg = if o.quick {
                ablation::AblationConfig::quick()
            } else {
                ablation::AblationConfig::default()
            };
            let r = timed("ablation", || ablation::run(&cfg));
            println!("{r}");
            exit_on_audit_failures("ablation", &r.audit);
        }
        "all" => {
            for fig in ["fig1", "fig4", "fig6", "fig7"] {
                run_committed(fig, &o);
            }
            run_fattree(&o);
            run_table2(&o);
            run_committed("failover", &o);
            run_dynamics(&o);
        }
        other => {
            eprintln!("unknown command {other}");
            std::process::exit(2);
        }
    }
}
