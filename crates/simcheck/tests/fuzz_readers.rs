//! Seeded mutation fuzz of the workspace's untrusted-text readers:
//! `.scn` scenarios (`Scenario::parse`), spec TOML (`SpecFile::parse`) and
//! probe JSONL (`ProbeRecord::parse`, `report::parse_jsonl`).
//!
//! Each reader gets well-formed seeds — the `--budget quick` scenarios'
//! `to_text` and the committed paper runs `scenarios/paper/*.scn`, every
//! committed `specs/**/*.toml`, one JSONL export of every record type — and a fixed number of mutants per seed drawn from
//! `SimRng`: byte flips, line drops, duplicates and swaps, truncation.
//! The fat-tree suite files also go through the paper-run loader.
//! Every mutant must come back `Ok` or as an error whose line number lies
//! inside the mutant; a panic is a failure, caught and reported with the
//! input that caused it. A `.scn` that loads — seed or mutant — must also
//! round-trip: its `to_text` loads through the same loader as itself.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use xmp_conformance::text::TextError;
use xmp_conformance::SpecFile;
use xmp_des::{SimRng, SimTime};
use xmp_experiments::{report, runner};
use xmp_netsim::{CcSnapshot, ProbeRecord};
use xmp_simcheck::gen::{self, QUICK_COUNT, QUICK_SEED};
use xmp_simcheck::scenario::{Kind, MAX_FLOWS};
use xmp_simcheck::Scenario;

/// Bytes a flip may write besides a flipped bit: the grammars' own
/// punctuation, so mutants reach the readers' branches, not only their
/// "not a number" errors.
const PUNCT: &[u8] = b"=[]\"'#,:/{} \n0-9.e";

/// One to three stacked edits of `text`.
fn mutate(rng: &mut SimRng, text: &str) -> String {
    let mut out = text.to_string();
    for _ in 0..=rng.index(3) {
        out = match rng.index(5) {
            0 => {
                let mut b = out.into_bytes();
                if !b.is_empty() {
                    let i = rng.index(b.len());
                    b[i] = if rng.chance(0.5) {
                        b[i] ^ (1 << rng.index(8))
                    } else {
                        PUNCT[rng.index(PUNCT.len())]
                    };
                }
                String::from_utf8_lossy(&b).into_owned()
            }
            1 => {
                let cut = rng.index(out.len() + 1);
                String::from_utf8_lossy(&out.as_bytes()[..cut]).into_owned()
            }
            op => {
                let mut lines: Vec<&str> = out.lines().collect();
                if !lines.is_empty() {
                    let i = rng.index(lines.len());
                    let j = rng.index(lines.len());
                    match op {
                        2 => {
                            lines.remove(i);
                        }
                        3 => lines.insert(j, lines[i]),
                        _ => lines.swap(i, j),
                    }
                }
                lines.join("\n")
            }
        };
    }
    out
}

/// Run `parse` on `input`; it returns the line of its error, if any. A
/// panic, or an error line past the end of `input`, fails the test.
fn check_mutant(reader: &str, input: &str, parse: impl FnOnce() -> Option<usize>) {
    let Ok(line) = catch_unwind(AssertUnwindSafe(parse)) else {
        panic!("{reader} panicked on:\n{input}");
    };
    let lines = input.lines().count();
    if let Some(line) = line {
        assert!(
            line <= lines,
            "{reader}: error at line {line} of a {lines}-line input:\n{input}"
        );
    }
}

/// Fuzz one reader over its seeds.
fn fuzz(
    reader: &str,
    seeds: &[String],
    mutants: usize,
    salt: u64,
    parse: impl Fn(&str) -> Option<usize>,
) {
    let mut rng = SimRng::new(0xF022).derive(salt);
    for seed in seeds {
        for _ in 0..mutants {
            let m = mutate(&mut rng, seed);
            check_mutant(reader, &m, || parse(&m));
        }
    }
}

/// Every `.ext` file under `dir`, recursively.
fn files(dir: &Path, ext: &str, out: &mut Vec<PathBuf>) {
    for e in std::fs::read_dir(dir).expect("directory is readable") {
        let path = e.expect("dir entry").path();
        if path.is_dir() {
            files(&path, ext, out);
        } else if path.extension().is_some_and(|x| x == ext) {
            out.push(path);
        }
    }
}

/// The committed files under `dir` (from the workspace root) ending `.ext`,
/// sorted.
fn committed(dir: &str, ext: &str) -> Vec<PathBuf> {
    let mut paths = Vec::new();
    files(
        &Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(dir),
        ext,
        &mut paths,
    );
    paths.sort();
    paths
}

fn records() -> Vec<ProbeRecord> {
    let at = SimTime::from_micros(125);
    vec![
        ProbeRecord::Meta {
            experiment: "dynamics".into(),
            scheme: "XMP-2".into(),
            seed: 42,
            note: "quote\" backslash\\ newline\n tab\t unicode\u{2603}".into(),
        },
        ProbeRecord::Cwnd {
            at,
            conn: 3,
            subflow: 1,
            cwnd: 17.333333333333332,
            ssthresh: f64::INFINITY,
            cc: Some(CcSnapshot {
                reduced: true,
                delta: 0.625,
                rounds: 44,
                reductions: 7,
            }),
        },
        ProbeRecord::Queue {
            at,
            link: 4,
            dir: 0,
            depth: 11,
            enqueued: 12345,
            marked: 321,
            dropped: 2,
        },
        ProbeRecord::Mark {
            at,
            link: 7,
            dir: 1,
        },
        ProbeRecord::Util {
            at,
            link: 4,
            dir: 0,
            delivered_bytes: u64::from(u32::MAX) * 3,
        },
    ]
}

/// A hand-written seed spelling what the generator never writes (β
/// suffixes, `bos`/`olia`/`uxmp`, RED in drop mode, node refs), so mutants
/// reach those branches too.
const EVERY_SPELLING: &str = "\
[sim]
seed = 1
k = 4
horizon_us = 9000
qdisc = red cap=50 wq=0.2 min=5 max=15 maxp=0.1 mode=drop seed=3
probe_interval_us = 100
[oracles]
slices = 2,4
inject_divergence = false
[flows]
flow = 0 1 100 bos:2 0 0
flow = 0 2 100 xmp:2:6 5 0,1
flow = 0 3 100 uxmp:2:16 5 0,1
flow = 0 4 100 olia:2 5 0,1
flow = 0 5 100 lia:3 5 0,1,2
flow = 1 6 100 dctcp 5 3
flow = 1 7 100 tcp 5 2
[faults]
down = 10 core/0/1/2
up = 20 core/0/1/2
switch_down = 30 edge/1
loss = agg/3 0.01
corrupt = rack/2 0.001
[probes]
watch = rack/0 1
";

/// A `.scn` loader: [`Scenario::parse`], the chaos harness's or the paper
/// runs'.
type Load = fn(&str) -> Result<Scenario, TextError>;

/// `sc`, loaded by `load`, reloads from its own text as itself.
fn assert_round_trip(sc: &Scenario, load: Load) {
    let text = sc.to_text();
    assert_eq!(
        load(&text).as_ref(),
        Ok(sc),
        "did not reload as itself:\n{text}"
    );
}

/// `m` through `load`: its error or, if it loads, `None` once its text
/// reloads as itself.
fn load_back(load: Load, m: &str) -> Option<TextError> {
    load(m).map(|sc| assert_round_trip(&sc, load)).err()
}

#[test]
fn scenario_reader_survives_mutation_and_round_trips_the_quick_batch() {
    let seeds: Vec<String> = (0..QUICK_COUNT)
        .map(|i| {
            let sc = gen::generate(QUICK_SEED, i);
            assert_round_trip(&sc, Scenario::parse);
            assert_round_trip(&sc, |text| Scenario::parse_as(text, &[Kind::Chaos]));
            sc.to_text()
        })
        .collect();
    let parse = |m: &str| load_back(Scenario::parse, m).map(|e| e.line);
    fuzz(".scn", &seeds, 100, 1, parse);
    Scenario::parse(EVERY_SPELLING).expect("hand-written seed parses");
    fuzz(".scn", &[EVERY_SPELLING.to_string()], 5000, 4, parse);
}

/// A file at the `[flows]` bound round-trips, and its mutants — a
/// duplicated flow line crosses the bound — come back `Ok` or refused at
/// a line inside them.
#[test]
fn scenario_reader_survives_mutation_at_the_flow_bound() {
    let mut sc = gen::generate(QUICK_SEED, 0);
    let flow = sc.flows[0].clone();
    sc.flows.resize(MAX_FLOWS, flow);
    let text = sc.to_text();
    assert_eq!(Scenario::parse(&text).as_ref(), Ok(&sc));
    let over = Cell::new(0);
    fuzz(".scn", &[text], 60, 6, |m| {
        let e = Scenario::parse(m).err()?;
        over.set(over.get() + usize::from(e.msg.contains("flows, one per host")));
        Some(e.line)
    });
    assert!(over.get() > 0, "no mutant crossed the flow bound");
}

/// Every committed paper run and its `--quick` form reload from their
/// text through the paper-run loader; every mutant that parses reloads
/// from its own.
#[test]
fn paper_runs_round_trip_and_survive_mutation() {
    let paths = committed("scenarios/paper", "scn");
    assert!(paths.len() >= 10, "found {} paper runs", paths.len());
    let seeds: Vec<String> = paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).expect("paper run is readable");
            let sc = runner::load(&text).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
            assert!(sc.paper.measure.is_some(), "{}", p.display());
            assert_round_trip(&sc, runner::load);
            assert_round_trip(&sc.quick(), runner::load);
            text
        })
        .collect();
    fuzz(".scn", &seeds, 1000, 5, |m| {
        load_back(Scenario::parse, m).map(|e| e.line)
    });
}

/// The fat-tree suite files: every mutant comes back from the paper-run
/// loader `Ok`, reloading from its own text, or refused at a line inside
/// it, and some reach the `[pattern]` rules (a bad kind or bound, a
/// pattern-only key without a `[pattern]`).
#[test]
fn pattern_runs_survive_mutation() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/paper");
    let seeds: Vec<String> = ["fattree.scn", "table2.scn"]
        .iter()
        .map(|f| std::fs::read_to_string(root.join(f)).expect("paper run is readable"))
        .collect();
    let pattern = Cell::new(0);
    fuzz(".scn", &seeds, 2000, 7, |m| {
        let e = load_back(runner::load, m)?;
        let rules = ["[pattern]", "out of range", "unknown kind"];
        pattern.set(pattern.get() + usize::from(rules.iter().any(|r| e.msg.contains(r))));
        Some(e.line)
    });
    assert!(pattern.get() > 0, "no mutant reached the [pattern] rules");
}

#[test]
fn spec_reader_survives_mutation() {
    let paths = committed("specs", "toml");
    assert!(paths.len() >= 10, "found {} spec files", paths.len());
    let seeds: Vec<String> = paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).expect("spec file is readable");
            SpecFile::parse(p, &text).unwrap_or_else(|e| panic!("committed spec: {e}"));
            text
        })
        .collect();
    fuzz("spec TOML", &seeds, 500, 2, |m| {
        SpecFile::parse(Path::new("mutant.toml"), m)
            .err()
            .map(|e| e.line)
    });
}

#[test]
fn jsonl_readers_survive_mutation() {
    let seed: Vec<String> = records().iter().map(ProbeRecord::to_json).collect();
    let seed = seed.join("\n");
    assert_eq!(report::parse_jsonl(&seed), Ok(records()));
    fuzz("JSONL", &[seed], 5000, 3, |m| {
        for line in m.lines() {
            let _ = ProbeRecord::parse(line);
        }
        let e = report::parse_jsonl(m).err()?;
        let n = e
            .strip_prefix("line ")
            .and_then(|r| r.split(':').next())
            .and_then(|n| n.parse::<usize>().ok());
        assert!(matches!(n, Some(1..)), "untyped JSONL error `{e}`:\n{m}");
        n
    });
}
