//! End-to-end acceptance for the chaos harness:
//!
//! * a slice of the CI quick batch runs clean across every oracle pair,
//! * the test-only injected divergence is detected, shrinks to a minimal
//!   scenario, and the minimized replay file reproduces the failure
//!   deterministically after a text round trip — the whole
//!   divergence → shrink → replay pipeline.

use xmp_simcheck::gen::QUICK_SEED;
use xmp_simcheck::scenario::Kind;
use xmp_simcheck::{exec, gen, shrink, Scenario};

#[test]
fn quick_batch_slice_has_no_divergence() {
    // A debug-build-sized slice of the 50-scenario CI batch; the full
    // batch runs in scripts/check.sh and the debug-assertions CI job.
    for i in 0..6 {
        let sc = gen::generate(QUICK_SEED, i);
        let out = exec::run_scenario(&sc)
            .unwrap_or_else(|e| panic!("scenario {i} failed to construct: {e}"));
        assert!(
            out.passed(),
            "scenario {i} diverged: {:?} / audits {:?}",
            out.divergent,
            out.audit_failures()
        );
        assert!(out.legs.len() >= 2, "scenario {i} had no oracle pair");
    }
}

#[test]
fn injected_divergence_shrinks_to_deterministic_replay() {
    // Arm the chaos hook on a generated scenario: one leg gets a spurious
    // timer event, which must perturb its digest and nothing else.
    let mut sc = gen::generate(QUICK_SEED, 0);
    sc.inject_divergence = true;
    let out = exec::run_scenario(&sc).expect("constructs");
    assert!(!out.passed(), "injected divergence went undetected");
    assert_eq!(
        out.divergent,
        vec!["serial-injected".to_string()],
        "only the injected leg may diverge"
    );

    // Shrink: the minimal reproducer keeps the injection and the failing
    // oracle pair, and drops everything droppable.
    let (min, runs) = shrink::shrink(&sc);
    assert!(runs > 1, "shrinker never ran a candidate");
    assert!(
        min.inject_divergence,
        "shrinker lost the failing ingredient"
    );
    assert!(
        min.flows.len() <= sc.flows.len() && min.horizon_us <= sc.horizon_us,
        "shrinker grew the scenario"
    );
    assert!(
        min.slices.is_empty(),
        "injected failure should minimize to the serial-vs-injected pair, got \
         slices {:?}",
        min.slices
    );
    let min_out = exec::run_scenario(&min).expect("minimized scenario constructs");
    assert!(!min_out.passed(), "minimized scenario no longer fails");

    // Replay determinism: the minimized scenario round-trips through the
    // replay-file text format and reproduces leg-for-leg identical digests
    // on every execution.
    let replayed = Scenario::parse(&min.to_text()).expect("replay file parses");
    assert_eq!(replayed, min, "replay file changed the scenario");
    let a = exec::run_scenario(&replayed).expect("replay runs");
    let b = exec::run_scenario(&replayed).expect("replay runs again");
    assert!(!a.passed() && !b.passed(), "replay did not reproduce");
    let digests = |o: &exec::RunOutcome| {
        o.legs
            .iter()
            .map(|l| (l.label.clone(), l.digest))
            .collect::<Vec<_>>()
    };
    assert_eq!(digests(&a), digests(&b), "replay is not deterministic");
    assert_eq!(a.divergent, b.divergent);
}

#[test]
fn construction_errors_are_reported_not_panics() {
    // Out-of-range references in a hand-written scenario surface as typed
    // errors through the executor, never panics.
    let text = "\
[sim]
seed = 1
k = 4
horizon_us = 10000
[flows]
flow = 0 99 65536 xmp:2 0 0,1
";
    let sc = Scenario::parse(text).expect("parses");
    let err = exec::run_scenario(&sc).expect_err("host 99 does not exist in a k=4 tree");
    assert!(err.contains("out of range"), "unhelpful error: {err}");

    let text = "\
[sim]
seed = 1
k = 5
horizon_us = 10000
[flows]
flow = 0 1 65536 tcp 0 0
";
    let sc = Scenario::parse(text).expect("parses");
    let err = exec::run_scenario(&sc).expect_err("odd k must be rejected");
    assert!(err.contains("even"), "unhelpful error: {err}");
}

/// `scale --quick`'s cell is a chaos scenario like any other: it replays
/// from its text, and cutting its flapped, probed k = 8 wave into seeded
/// windows changes nothing.
#[test]
fn the_scale_cell_is_a_replayable_scenario() {
    let mut sc = xmp_experiments::scale::quick(42);
    let back = Scenario::parse_as(&sc.to_text(), &[Kind::Chaos]).expect("the cell's text parses");
    assert_eq!(back, sc, "the text changed the cell");
    sc.slices = vec![2];
    let out = exec::run_scenario(&sc).expect("the cell builds");
    assert!(
        out.passed(),
        "divergent {:?} / audits {:?}",
        out.divergent,
        out.audit_failures()
    );
    assert_eq!(out.legs[0].completed, sc.flows.len(), "the wave finishes");
}
