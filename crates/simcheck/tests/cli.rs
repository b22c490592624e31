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
