//! `xmp-experiments` — command-line driver regenerating the paper's tables
//! and figures.
//!
//! ```text
//! xmp-experiments <command> [--quick] [--seed N] [--scale N] [--flows N]
//!                 [--pattern P] [--workers N]
//!
//! commands:
//!   fig1      DCTCP vs constant-cut convergence/fairness
//!   fig4      traffic shifting on the Fig.3a testbed (beta 4 vs 6)
//!   fig6      fairness with 3/2/1/1 subflows (beta 4 vs 6)
//!   fig7      torus rate compensation (beta 4/5/6)
//!   fattree   the fat-tree suite: Table 1, Figs. 8/9/10/11, Table 3
//!   table2    XMP coexistence with LIA / TCP / DCTCP
//!   ablation  beta/K sweep, TraSh-coupling ablation, OLIA comparison
//!   failover  goodput through a mid-transfer core-link failure
//!   dynamics  Fig.2-style cwnd/queue time series, exported to results/
//!   scale     partitioned vs serial wall clock on one large cell,
//!             digest-checked (exits nonzero on a digest mismatch);
//!             `scale mega` runs the k=32 (8192-host) memory cell
//!   hybrid    hybrid fluid/packet mode vs packet baseline, per-class
//!             tolerance check (exits nonzero when out of tolerance);
//!             `hybrid million` runs the million-flow fluid scale cell
//!   trace     export | report [files...] — write / summarize JSONL traces
//!   all       the paper commands: fig1, fig4, fig6, fig7, fattree,
//!             table2, failover, dynamics
//! ```

use std::time::Instant;
use xmp_experiments::suite::{self, Pattern, SuiteConfig};
use xmp_experiments::{
    ablation, dynamics, failover, fig1, fig4, fig6, fig7, hybrid, report, scale, table2,
};
use xmp_workloads::Scheme;

#[derive(Debug, Clone)]
struct Opts {
    quick: bool,
    seed: u64,
    scale: u64,
    flows: usize,
    pattern: Option<String>,
    workers: usize,
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts {
        quick: false,
        seed: 42,
        scale: 128,
        flows: 2000,
        pattern: None,
        workers: 4,
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
            "--seed" => o.seed = arg("--seed", it.next()),
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
            "--workers" => o.workers = arg("--workers", it.next()),
            other => {
                eprintln!("unknown option {other}");
                std::process::exit(2);
            }
        }
    }
    o
}

fn timed<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let r = f();
    eprintln!("[{label}] wall time {:.1}s", t0.elapsed().as_secs_f64());
    r
}

fn run_fig1(o: &Opts) {
    let mut cfg = if o.quick {
        fig1::Fig1Config::quick()
    } else {
        fig1::Fig1Config::default()
    };
    cfg.seed = o.seed;
    let r = timed("fig1", || fig1::run(&cfg));
    println!("{r}");
}

fn run_fig4(o: &Opts) {
    let mut cfg = if o.quick {
        fig4::Fig4Config::quick()
    } else {
        fig4::Fig4Config::default()
    };
    cfg.seed = o.seed;
    let r = timed("fig4", || fig4::run(&cfg));
    println!("{r}");
}

fn run_fig6(o: &Opts) {
    let mut cfg = if o.quick {
        fig6::Fig6Config::quick()
    } else {
        fig6::Fig6Config::default()
    };
    cfg.seed = o.seed;
    let r = timed("fig6", || fig6::run(&cfg));
    println!("{r}");
}

fn run_fig7(o: &Opts) {
    let mut cfg = if o.quick {
        fig7::Fig7Config::quick()
    } else {
        fig7::Fig7Config::default()
    };
    cfg.seed = o.seed;
    let r = timed("fig7", || fig7::run(&cfg));
    println!("{r}");
}

fn suite_cfg(o: &Opts, scheme: Scheme, pattern: Pattern) -> SuiteConfig {
    let mut cfg = if o.quick {
        SuiteConfig::quick(scheme, pattern)
    } else {
        SuiteConfig::new(scheme, pattern)
    };
    cfg.seed = o.seed;
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
    for &p in &patterns {
        for &s in &schemes {
            let cfg = suite_cfg(o, s, p);
            let label = format!("{}/{}", s.label(), p.label());
            let (r, profile) = timed(&label, || suite::run_suite_profiled(&cfg));
            eprintln!("  -> {r}");
            eprintln!("  -> profile: {}", profile.summary());
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
}

fn run_dynamics(o: &Opts) {
    let mut cfg = if o.quick {
        dynamics::DynamicsConfig::quick()
    } else {
        dynamics::DynamicsConfig::default()
    };
    cfg.seed = o.seed;
    let r = timed("dynamics", || dynamics::run(&cfg));
    print!("{r}");
    std::fs::create_dir_all("results").expect("create results/");
    for tr in &r.traces {
        let path = format!("results/{}", tr.filename());
        std::fs::write(&path, &tr.jsonl).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path} ({} lines)", tr.jsonl.lines().count());
    }
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

fn run_failover(o: &Opts) {
    let mut cfg = if o.quick {
        failover::FailoverConfig::quick()
    } else {
        failover::FailoverConfig::default()
    };
    cfg.seed = o.seed;
    let r = timed("failover", || failover::run(&cfg));
    println!("{r}");
}

fn run_scale(o: &Opts) {
    let mut cfg = if o.quick {
        scale::ScaleConfig::quick()
    } else {
        scale::ScaleConfig::default_cfg()
    };
    cfg.seed = o.seed;
    cfg.workers = vec![1, o.workers];
    // Surface bad worker counts as a CLI error instead of a panic deep in
    // the partition planner (workers are capped by the pod count).
    if o.workers == 0 || o.workers > cfg.k {
        eprintln!(
            "--workers {} is out of range for the k={} cell: pick 1..={} \
             (each shard takes at least one pod)",
            o.workers, cfg.k, cfg.k
        );
        std::process::exit(2);
    }
    let r = timed("scale", || scale::run(&cfg));
    println!("{r}");
    if !r.digests_match {
        std::process::exit(1);
    }
}

fn run_scale_mega(o: &Opts) {
    let mut cfg = scale::ScaleConfig::mega();
    cfg.seed = o.seed;
    let r = timed("scale mega", || scale::run(&cfg));
    println!("{r}");
}

fn run_hybrid(o: &Opts) {
    let mut cfg = if o.quick {
        hybrid::HybridConfig::quick()
    } else {
        hybrid::HybridConfig::default_cfg()
    };
    cfg.seed = o.seed;
    let r = timed("hybrid", || hybrid::run(&cfg));
    println!("{r}");
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
    cfg.seed = o.seed;
    let r = timed("hybrid million", || hybrid::run_million(&cfg));
    println!("{r}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("usage: xmp-experiments <fig1|fig4|fig6|fig7|fattree|table2|ablation|failover|dynamics|scale|hybrid|trace|all> [--quick] [--seed N] [--scale N] [--flows N] [--pattern P] [--workers N]");
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
            Some((sub, tail)) if sub == "mega" => run_scale_mega(&parse_opts(tail)),
            _ => run_scale(&parse_opts(rest)),
        }
        return;
    }
    let o = parse_opts(rest);
    match cmd.as_str() {
        "fig1" => run_fig1(&o),
        "fig4" => run_fig4(&o),
        "fig6" => run_fig6(&o),
        "fig7" => run_fig7(&o),
        "fattree" | "table1" | "fig8" | "fig9" | "fig10" | "fig11" | "table3" => run_fattree(&o),
        "table2" => run_table2(&o),
        "failover" => run_failover(&o),
        "dynamics" => run_dynamics(&o),
        "ablation" => {
            let cfg = if o.quick {
                ablation::AblationConfig::quick()
            } else {
                ablation::AblationConfig::default()
            };
            let r = timed("ablation", || ablation::run(&cfg));
            println!("{r}");
        }
        "all" => {
            run_fig1(&o);
            run_fig4(&o);
            run_fig6(&o);
            run_fig7(&o);
            run_fattree(&o);
            run_table2(&o);
            run_failover(&o);
            run_dynamics(&o);
        }
        other => {
            eprintln!("unknown command {other}");
            std::process::exit(2);
        }
    }
}
