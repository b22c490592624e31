//! Differential validation of the hybrid fluid/packet mode
//! (`SimTuning::hybrid`, DESIGN.md §18) at the experiment level:
//!
//! 1. **Tolerance bands hold across seeds.** The fluid plane is an
//!    approximation, so hybrid-vs-packet equivalence is a *banded* claim:
//!    per-class elephant goodput within `GOODPUT_TOL` and mice FCT
//!    p50/p99 within `FCT_TOL` (both documented and calibrated in
//!    EXPERIMENTS.md). A band that only holds on the default seed would
//!    be a fit, not a model — so the claim is checked across seeds, which
//!    reshuffle mice placement, path draws and start times.
//! 2. **The flag alone changes nothing.** With `hybrid` enabled but no
//!    fluid flow registered, every coupling term is structurally zero
//!    (fluid backlog, fluid delay, fluid occupancy in marking) and no
//!    fluid event is ever scheduled — so the run must be **bit-identical**
//!    to the same workload with the flag off. This is the "hybrid off ⇒
//!    exactly PR 9 behaviour" guarantee, plus one notch: hybrid *on but
//!    unused* is also exact.
//!
//! Digests compare full `Debug` renderings — f64 Debug round-trips, so
//! equal strings mean bit-equal goodputs, FCTs and queue statistics.

use xmp_experiments::hybrid::{self, HybridConfig};
use xmp_experiments::suite::{quick_cell, run_suite, Pattern};
use xmp_netsim::SimTuning;
use xmp_workloads::Scheme;

/// The hybrid validation cell across seeds: both traffic classes must
/// land inside their documented tolerance bands on every one of them, and
/// both modes must pass the end-of-run audits.
#[test]
fn hybrid_tolerance_bands_hold_across_seeds() {
    for seed in [7, 19, 101] {
        let cfg = HybridConfig {
            seed,
            ..HybridConfig::quick()
        };
        let r = hybrid::run(&cfg);
        let ticks = |c: &hybrid::HybridCell| c.outcome.profile.fluid_ticks;
        assert!(ticks(&r.hybrid) > 0, "seed {seed}: hybrid never ticked");
        assert_eq!(ticks(&r.packet), 0, "seed {seed}: packet run ticked");
        assert!(
            r.within_tolerance(),
            "seed {seed}: hybrid cell out of tolerance\n{r}"
        );
        let audits = r.audit_failures();
        assert!(audits.is_empty(), "seed {seed}: {audits:?}");
    }
}

fn suite_digest(seed: u64, scheme: Scheme, tuning: SimTuning) -> String {
    let (mut sc, v) = quick_cell(Pattern::Permutation, scheme);
    let p = sc
        .paper
        .pattern
        .as_mut()
        .expect("fattree.scn has a [pattern]");
    (sc.seed, sc.tuning, p.flows, p.max_sim_us) = (seed, tuning, 6, 2_000_000);
    let r = run_suite(&sc, &v).expect("the cell builds");
    assert_eq!(r.outcome.failures, Vec::<String>::new());
    format!("{:?}", r.result)
}

/// `hybrid: true` with zero fluid flows must be bit-identical to
/// `hybrid: false` — the coupling terms are structurally zero and no
/// fluid event exists to reorder anything.
#[test]
fn hybrid_flag_without_fluid_flows_is_bit_identical() {
    let armed = SimTuning {
        hybrid: true,
        ..SimTuning::default()
    };
    for (seed, scheme) in [(1, Scheme::xmp(2)), (2, Scheme::Dctcp)] {
        assert_eq!(
            suite_digest(seed, scheme, SimTuning::default()),
            suite_digest(seed, scheme, armed),
            "seed {seed}: the hybrid flag alone perturbed a packet-only run"
        );
    }
}
