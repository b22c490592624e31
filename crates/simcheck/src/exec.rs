//! Scenario execution: run one scenario through every applicable oracle
//! leg, digest each leg, and audit runtime invariants mid-run.
//!
//! Every leg simulates the *same* scenario, ends in
//! [`Cell::finish`](xmp_experiments::runner::Cell::finish) and must
//! produce a bit-identical
//! [`Cell::digest`](xmp_experiments::runner::Cell::digest) (final clock,
//! every flow record, the conservation report, every probe record and the
//! per-kind event counts). The baseline drives the run in
//! fixed slices and may stop early once every flow completed; a
//! `slices-N` leg drives it through a seeded sequence of irregular windows
//! drawn from `(seed, N)` and ends at exactly the baseline's final instant
//! — so state that depends on where a run window falls, and not only on
//! the events, shows up as a divergence. Any digest mismatch or
//! invariant-audit failure marks the scenario as failing, which sends it
//! to the shrinker.

use crate::scenario::Scenario;
use xmp_des::{SimDuration, SimRng, SimTime};
use xmp_experiments::runner::{audit, build, Outcome};

/// One oracle leg: how this run is cut into run windows.
#[derive(Debug, Clone)]
pub struct LegSpec {
    /// Display label, e.g. `serial`, `slices-4`.
    pub label: String,
    /// `0`: the baseline's fixed slices. `n`: irregular windows drawn from
    /// `(seed, n)`, about `16 n` of them.
    pub slices: usize,
    /// Fire the spurious-timer chaos hook on this leg (test-only).
    pub inject: bool,
}

/// What one leg produced.
#[derive(Debug, Clone)]
pub struct LegOutcome {
    /// The leg's label.
    pub label: String,
    /// Digest over clock + records + audit + probes + event counts.
    pub digest: u64,
    /// How the leg finished: every audit failure observed on it (mid-run
    /// ones first), the flows completed before the horizon and its final
    /// instant.
    pub outcome: Outcome,
}

/// The verdict for a whole scenario.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Every leg, baseline first.
    pub legs: Vec<LegOutcome>,
    /// Labels of legs whose digest diverged from the baseline.
    pub divergent: Vec<String>,
}

impl RunOutcome {
    /// No divergence and no audit failure anywhere.
    pub fn passed(&self) -> bool {
        self.divergent.is_empty() && self.legs.iter().all(|l| l.outcome.failures.is_empty())
    }

    /// All audit failures across legs, each prefixed with its leg label.
    pub fn audit_failures(&self) -> Vec<String> {
        self.legs
            .iter()
            .flat_map(|l| {
                l.outcome
                    .failures
                    .iter()
                    .map(move |f| format!("[{}] {f}", l.label))
            })
            .collect()
    }
}

/// The oracle legs a scenario requests, baseline first.
pub fn legs(sc: &Scenario) -> Vec<LegSpec> {
    let leg = |label: String, slices, inject| LegSpec {
        label,
        slices,
        inject,
    };
    let mut v = vec![leg("serial".into(), 0, false)];
    let sliced = sc
        .slices
        .iter()
        .map(|&n| leg(format!("slices-{n}"), n, false));
    v.extend(sliced);
    if sc.inject_divergence {
        v.push(leg("serial-injected".into(), 0, true));
    }
    v
}

/// Validate and run every leg, compare digests against the baseline, and
/// collect audit failures. A scenario that cannot even be constructed
/// (bad topology, bad refs, bad fault plan: whatever `runner::build`
/// refuses) is an `Err` — that is a harness/generator bug, not a
/// divergence.
pub fn run_scenario(sc: &Scenario) -> Result<RunOutcome, String> {
    let specs = legs(sc);
    let mut out: Vec<LegOutcome> = Vec::with_capacity(specs.len());
    for leg in &specs {
        let end = out.first().map(|base| base.outcome.end);
        out.push(run_leg(sc, leg, end)?);
    }
    let base = out[0].digest;
    let divergent = out
        .iter()
        .skip(1)
        .filter(|l| l.digest != base)
        .map(|l| l.label.clone())
        .collect();
    Ok(RunOutcome {
        legs: out,
        divergent,
    })
}

/// Run one leg of the scenario, built by `runner::build`, and digest
/// everything an observer could see. Fixed-slice legs run `runner::audit`
/// at every slice boundary of `Driver::drive`; a re-sliced leg, which
/// needs the baseline's final instant `end`, audits when it gets there.
/// Both end in `Cell::finish`, whose audit is the same call on the same
/// state.
fn run_leg(sc: &Scenario, leg: &LegSpec, end: Option<SimTime>) -> Result<LegOutcome, String> {
    let mut cell = build(sc, None)?;
    let deadline = SimTime::ZERO + SimDuration::from_micros(sc.horizon_us);
    if leg.inject {
        // Chaos hook: a timer event for a token that was never armed. The
        // timer layer ignores it, but the event count perturbs the digest
        // deterministically — the intended, detectable divergence. Injected
        // 1 µs in so it fires even if every flow completes early.
        let ft = cell
            .net
            .tree()
            .ok_or("the injected leg needs the fat tree")?;
        let at = SimTime::ZERO + SimDuration::from_micros(1);
        cell.sim.debug_inject_spurious_timer(ft.host(0), at);
    }

    // Everything is pre-submitted and nothing chains on completion, so
    // where the windows fall must not change what happens.
    let mut failures = Vec::new();
    match (leg.slices, end) {
        (n @ 1.., Some(end)) => {
            let (sim, driver) = (&mut cell.sim, &mut cell.driver);
            let mut rng = SimRng::new(sc.seed).derive(n as u64);
            let longest = (2 * end.as_nanos() / (16 * n as u64)).max(1);
            while sim.now() < end {
                let window = SimDuration::from_nanos(rng.uniform_u64(1, longest));
                let t = (sim.now() + window).min(end);
                driver.run(sim, t, |_, _, _| {});
            }
        }
        _ => {
            let span = deadline - SimTime::ZERO;
            let slice = SimDuration::from_nanos((span.as_nanos() / 16).max(100_000));
            let (sim, inv, flows) = (&mut cell.sim, &mut cell.invariants, cell.conns.len());
            cell.driver.drive(sim, deadline, slice, flows, |s, d| {
                failures.extend(audit(s, d, inv));
            });
        }
    }
    let mut outcome = cell.finish();
    outcome.failures.splice(0..0, failures);
    Ok(LegOutcome {
        label: leg.label.clone(),
        digest: cell.digest(),
        outcome,
    })
}
