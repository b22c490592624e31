//! The paper's workloads, held to the outcomes recorded from the two-event
//! link pipeline (`TxDone` + `Deliver`) at commit ce843ca — the last one
//! that had it, and where it was asserted bit-identical to compiled FIBs
//! with one event per packet-hop. The engine that remains must keep
//! reproducing them.
//!
//! Each digest is FNV-1a over the `Debug` rendering of the result — f64
//! Debug formatting round-trips exactly, so equal digests mean bit-equal
//! rates, Jain indices, goodputs and queue statistics.

use xmp_experiments::runner::{self, PAPER_RUNS};
use xmp_experiments::suite::{quick_cell, run_suite, Pattern};
use xmp_workloads::Scheme;

fn digest(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[test]
fn fig1_matches_the_recorded_outcome_multi_seed() {
    // The four-flow dumbbell draws no network-side randomness, so the
    // seeds agree with each other — that, too, is part of the record. The
    // digest is over every variant's per-bin normalized rates, bit-equal to
    // the bins of the `fig1` module that `scenarios/paper/fig1.scn` replaced.
    const RECORDED: u64 = 11738406904076764245;
    let text = PAPER_RUNS
        .iter()
        .find(|r| r.0 == "fig1")
        .expect("committed")
        .1;
    for seed in [3, 7, 11] {
        let mut sc = runner::load(text).expect("fig1.scn parses");
        (sc.seed, sc.paper.unit_us, sc.paper.bin_us) = (seed, 60_000, Some(20_000));
        let r = runner::run("fig1", &sc).expect("fig1.scn runs");
        let bins: Vec<_> = r.runs.iter().map(|v| &v.bins).collect();
        assert_eq!(
            digest(&format!("{bins:?}")),
            RECORDED,
            "seed {seed}: fig1 moved off the recorded digest"
        );
    }
}

#[test]
fn table1_cells_match_the_recorded_outcome() {
    // The fat-tree cell exercises ECMP hashing on every hop, ECN marking
    // at the paper's K, retransmission timers and multi-subflow transport —
    // the full event soup the one-event pipeline has to reproduce.
    for (seed, scheme, recorded) in [
        (1, Scheme::xmp(2), 10312447510474682670u64),
        (2, Scheme::Dctcp, 685983094799295037),
    ] {
        let (mut sc, v) = quick_cell(Pattern::Permutation, scheme);
        let p = sc
            .paper
            .pattern
            .as_mut()
            .expect("fattree.scn has a [pattern]");
        (sc.seed, p.flows, p.max_sim_us) = (seed, 6, 2_000_000);
        let r = run_suite(&sc, &v).expect("the cell builds");
        assert_eq!(r.outcome.failures, Vec::<String>::new());
        assert_eq!(
            digest(&format!("{:?}", r.result)),
            recorded,
            "seed {seed}: table1 cell moved off the recorded digest"
        );
    }
}
