//! The `simcheck` command-line contract for a file it cannot run: exit 2
//! naming the file and the line.

use std::process::Command;

#[test]
fn replay_refuses_a_paper_run_at_its_topology_line() {
    let file = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/paper/fig7.scn"
    );
    let text = std::fs::read_to_string(file).expect("fig7.scn is readable");
    let line = 1 + text
        .lines()
        .position(|l| l.starts_with("topology = torus"))
        .expect("a torus");
    let out = Command::new(env!("CARGO_BIN_EXE_simcheck"))
        .args(["replay", file])
        .output()
        .expect("simcheck runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let err = String::from_utf8_lossy(&out.stderr);
    let want = format!("simcheck: {file}: line {line}: a paper run");
    assert!(err.starts_with(&want), "{err}");
    assert!(err.contains("xmp-experiments run"), "{err}");
}

/// Every quick-batch file reads back to the same bytes; one whose horizon
/// would wrap on its way to nanoseconds is refused at that line (it once
/// replayed as "ok").
#[test]
fn replay_refuses_a_horizon_that_would_wrap_at_its_line() {
    use xmp_simcheck::gen::{self, QUICK_COUNT, QUICK_SEED};
    use xmp_simcheck::Scenario;
    for i in 0..QUICK_COUNT {
        let text = gen::generate(QUICK_SEED, i).to_text();
        let back = Scenario::parse(&text).unwrap_or_else(|e| panic!("scenario {i}: {e}"));
        assert_eq!(back.to_text(), text, "scenario {i}");
    }
    let text = gen::generate(QUICK_SEED, 7).to_text();
    let line = 1 + text
        .lines()
        .position(|l| l.starts_with("horizon_us = "))
        .expect("a horizon");
    let bad: String = text
        .lines()
        .map(|l| {
            let l = if l.starts_with("horizon_us = ") {
                "horizon_us = 18446744073709551615"
            } else {
                l
            };
            format!("{l}\n")
        })
        .collect();
    let file = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("wrapping-horizon.scn");
    std::fs::write(&file, bad).expect("scratch file is writable");
    let out = Command::new(env!("CARGO_BIN_EXE_simcheck"))
        .arg("replay")
        .arg(&file)
        .output()
        .expect("simcheck runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let err = String::from_utf8_lossy(&out.stderr);
    let want = format!(
        "simcheck: {}: line {line}: horizon_us = 18446744073709551615 is outside 0..=3600000000",
        file.display()
    );
    assert!(err.starts_with(&want), "{err}");
}
