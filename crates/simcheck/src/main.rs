//! `simcheck` — the chaos-harness CLI.
//!
//! ```text
//! simcheck run [--seed S] [--count N] [--budget quick] [--out DIR]
//! simcheck generate [--seed S] [--count N] [--out DIR]
//! simcheck replay FILE
//! simcheck shrink FILE [--out FILE]
//! ```
//!
//! `run` fuzzes N seeded scenarios through every oracle pair; on the
//! first failure it shrinks the scenario and writes a minimized replay
//! file, then exits nonzero. `--budget quick` pins the CI configuration
//! (fixed seed, 50 scenarios). `replay` re-executes a scenario file
//! exactly and exits nonzero if it still fails — so replaying a replay
//! file reproduces the original failure deterministically.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use xmp_simcheck::gen::{QUICK_COUNT, QUICK_SEED};
use xmp_simcheck::scenario::Kind;
use xmp_simcheck::{exec, gen, shrink, Scenario};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter().map(String::as_str);
    let cmd = it.next().unwrap_or("help");
    let rest: Vec<&str> = it.collect();
    match cmd {
        "run" => cmd_run(&rest),
        "generate" => cmd_generate(&rest),
        "replay" => cmd_replay(&rest),
        "shrink" => cmd_shrink(&rest),
        "help" | "--help" | "-h" => {
            print!("{}", usage());
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command `{other}`\n{}", usage());
            ExitCode::from(2)
        }
    }
}

fn usage() -> String {
    "\
usage:
  simcheck run [--seed S] [--count N] [--budget quick] [--out DIR]
      fuzz N seeded scenarios across every oracle pair; on failure,
      shrink and write a minimized replay file to DIR, exit nonzero
  simcheck generate [--seed S] [--count N] [--out DIR]
      write the N scenarios a `run` with the same seed would execute
  simcheck replay FILE
      re-execute one scenario file exactly; exit nonzero if it fails
  simcheck shrink FILE [--out FILE]
      minimize a failing scenario file and write the reproducer
"
    .to_string()
}

struct Opts {
    seed: u64,
    count: u64,
    out: PathBuf,
    files: Vec<String>,
}

fn parse_opts(args: &[&str]) -> Result<Opts, String> {
    let mut o = Opts {
        seed: 1,
        count: 20,
        out: PathBuf::from("results/simcheck"),
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(&a) = it.next() {
        let mut val = |name: &str| -> Result<&str, String> {
            it.next()
                .copied()
                .ok_or_else(|| format!("{name} wants a value"))
        };
        match a {
            "--seed" => {
                let v = val("--seed")?;
                o.seed = v
                    .parse()
                    .map_err(|_| format!("bad seed `{v}` (want a u64)"))?;
            }
            "--count" => {
                let v = val("--count")?;
                o.count = v
                    .parse()
                    .map_err(|_| format!("bad count `{v}` (want a u64)"))?;
            }
            "--budget" => {
                let v = val("--budget")?;
                if v != "quick" {
                    return Err(format!("unknown budget `{v}` (only `quick`)"));
                }
                o.seed = QUICK_SEED;
                o.count = QUICK_COUNT;
            }
            "--out" => o.out = PathBuf::from(val("--out")?),
            other if !other.starts_with('-') => o.files.push(other.to_string()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(o)
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("simcheck: {msg}");
    ExitCode::from(2)
}

fn cmd_run(args: &[&str]) -> ExitCode {
    let o = match parse_opts(args) {
        Ok(o) => o,
        Err(e) => return fail(&e),
    };
    let mut failures = 0u64;
    let mut replay_paths: Vec<PathBuf> = Vec::new();
    for i in 0..o.count {
        let sc = gen::generate(o.seed, i);
        let pairs = exec::legs(&sc).len() - 1;
        match exec::run_scenario(&sc) {
            Ok(out) if out.passed() => {
                println!(
                    "scenario {i:>3}: ok      k={} flows={:>2} faults={} oracle-pairs={} completed={}",
                    sc.k,
                    sc.flows.len(),
                    sc.faults.len(),
                    pairs,
                    out.legs[0].completed,
                );
            }
            Ok(out) => {
                failures += 1;
                println!("scenario {i:>3}: FAILED  (seed {} index {i})", o.seed);
                for l in &out.divergent {
                    println!("  digest divergence: {l} vs serial baseline");
                }
                for f in out.audit_failures() {
                    println!("  invariant audit: {f}");
                }
                println!("  shrinking…");
                let (min, runs) = shrink::shrink(&sc);
                match write_replay(&o.out, o.seed, i, &min, &out) {
                    Ok(p) => {
                        println!("  minimized after {runs} candidate runs → {}", p.display());
                        replay_paths.push(p);
                    }
                    Err(e) => eprintln!("  could not write replay file: {e}"),
                }
            }
            Err(e) => {
                // Construction errors are harness bugs: report and count.
                failures += 1;
                println!("scenario {i:>3}: ERROR   {e}");
            }
        }
    }
    println!(
        "\n{} scenario(s), {} failure(s){}",
        o.count,
        failures,
        if replay_paths.is_empty() {
            String::new()
        } else {
            format!(
                " — replay file(s): {}",
                replay_paths
                    .iter()
                    .map(|p| p.display().to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        }
    );
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_generate(args: &[&str]) -> ExitCode {
    let o = match parse_opts(args) {
        Ok(o) => o,
        Err(e) => return fail(&e),
    };
    if let Err(e) = std::fs::create_dir_all(&o.out) {
        return fail(&format!("creating {}: {e}", o.out.display()));
    }
    for i in 0..o.count {
        let sc = gen::generate(o.seed, i);
        let path = o.out.join(format!("scenario-{:016x}-{i:03}.scn", o.seed));
        if let Err(e) = std::fs::write(&path, sc.to_text()) {
            return fail(&format!("writing {}: {e}", path.display()));
        }
        println!("{}", path.display());
    }
    ExitCode::SUCCESS
}

fn cmd_replay(args: &[&str]) -> ExitCode {
    let [file] = args else {
        return fail("replay wants exactly one FILE");
    };
    let sc = match load(file) {
        Ok(sc) => sc,
        Err(e) => return fail(&e),
    };
    match exec::run_scenario(&sc) {
        Ok(out) if out.passed() => {
            println!("replay {file}: ok — every oracle leg agrees");
            for l in &out.legs {
                println!(
                    "  {:<16} digest {:016x} completed {}",
                    l.label, l.digest, l.completed
                );
            }
            ExitCode::SUCCESS
        }
        Ok(out) => {
            println!("replay {file}: FAILED (reproduced)");
            for l in &out.legs {
                println!(
                    "  {:<16} digest {:016x} completed {}",
                    l.label, l.digest, l.completed
                );
            }
            for l in &out.divergent {
                println!("  digest divergence: {l} vs serial baseline");
            }
            for f in out.audit_failures() {
                println!("  invariant audit: {f}");
            }
            ExitCode::FAILURE
        }
        Err(e) => fail(&format!("replay {file}: {e}")),
    }
}

fn cmd_shrink(args: &[&str]) -> ExitCode {
    let mut file = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(&a) = it.next() {
        match a {
            "--out" => out = it.next().map(|s| s.to_string()),
            other if !other.starts_with('-') => file = Some(other.to_string()),
            other => return fail(&format!("unknown flag `{other}`")),
        }
    }
    let Some(file) = file else {
        return fail("shrink wants a FILE");
    };
    let sc = match load(&file) {
        Ok(sc) => sc,
        Err(e) => return fail(&e),
    };
    let (min, runs) = shrink::shrink(&sc);
    let out = out.unwrap_or_else(|| format!("{file}.min"));
    if let Err(e) = std::fs::write(&out, min.to_text()) {
        return fail(&format!("writing {out}: {e}"));
    }
    println!(
        "shrunk after {runs} candidate runs: {} flows, {} faults, horizon {} µs → {out}",
        min.flows.len(),
        min.faults.len(),
        min.horizon_us
    );
    ExitCode::SUCCESS
}

fn load(path: &str) -> Result<Scenario, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Scenario::parse_as(&text, &[Kind::Chaos]).map_err(|e| format!("{path}: {e}"))
}

/// Write the minimized reproducer, annotated with what failed.
fn write_replay(
    dir: &Path,
    seed: u64,
    index: u64,
    min: &Scenario,
    outcome: &exec::RunOutcome,
) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("replay-{seed:016x}-{index:03}.scn"));
    let mut text = String::new();
    text.push_str(&format!(
        "# minimized reproducer for scenario index {index} of seed {seed:#x}\n"
    ));
    for l in &outcome.divergent {
        text.push_str(&format!(
            "# original failure: digest divergence on leg {l}\n"
        ));
    }
    for f in outcome.audit_failures() {
        text.push_str(&format!("# original failure: invariant audit: {f}\n"));
    }
    text.push_str(&min.to_text());
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}
