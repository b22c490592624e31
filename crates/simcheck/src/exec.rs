//! Scenario execution: run one scenario through every applicable oracle
//! leg, digest each leg, and audit runtime invariants mid-run.
//!
//! Every leg simulates the *same* scenario and must produce a
//! bit-identical [`Driver::outcome_digest`] (final clock, every flow
//! record, the conservation audit, every probe record and the per-kind
//! event counts). The baseline drives the run in fixed slices and may stop
//! early once every flow completed; a `slices-N` leg drives it through a
//! seeded sequence of irregular windows drawn from `(seed, N)` and ends at
//! exactly the baseline's final instant — so state that depends on where
//! a run window falls, and not only on the events, shows up as a
//! divergence. Any digest mismatch or invariant-audit failure marks the
//! scenario as failing, which sends it to the shrinker.

use crate::scenario::Scenario;
use xmp_des::{SimDuration, SimRng, SimTime};
use xmp_experiments::runner::build;
use xmp_netsim::InvariantState;
use xmp_workloads::{Driver, FlowSim};

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
    /// Flows that completed before the horizon.
    pub completed: usize,
    /// Invariant-audit failures observed on this leg.
    pub audit_failures: Vec<String>,
    /// The leg's final instant.
    pub end: SimTime,
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
        self.divergent.is_empty() && self.legs.iter().all(|l| l.audit_failures.is_empty())
    }

    /// All audit failures across legs, each prefixed with its leg label.
    pub fn audit_failures(&self) -> Vec<String> {
        self.legs
            .iter()
            .flat_map(|l| {
                l.audit_failures
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
        let end = out.first().map(|base| base.end);
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
/// everything an observer could see. Fixed-slice legs run the mid-run
/// invariant audits at every slice boundary; a re-sliced leg, which needs
/// the baseline's final instant `end`, audits when it gets there.
fn run_leg(sc: &Scenario, leg: &LegSpec, end: Option<SimTime>) -> Result<LegOutcome, String> {
    let mut cell = build(sc, None)?;
    let (sim, driver, conns) = (&mut cell.sim, &mut cell.driver, &cell.conns);
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
        sim.debug_inject_spurious_timer(ft.host(0), SimTime::ZERO + SimDuration::from_micros(1));
    }

    // Everything is pre-submitted and nothing chains on completion, so
    // where the windows fall must not change what happens.
    let mut audit_failures = Vec::new();
    let mut inv = InvariantState::default();
    match (leg.slices, end) {
        (n @ 1.., Some(end)) => {
            let mut rng = SimRng::new(sc.seed).derive(n as u64);
            let longest = (2 * end.as_nanos() / (16 * n as u64)).max(1);
            while sim.now() < end {
                let window = SimDuration::from_nanos(rng.uniform_u64(1, longest));
                let t = (sim.now() + window).min(end);
                driver.run(sim, t, |_, _, _| {});
            }
            driver.finalize_running(sim);
        }
        _ => {
            let span = deadline - SimTime::ZERO;
            let slice = SimDuration::from_nanos((span.as_nanos() / 16).max(100_000));
            driver.drive(sim, deadline, slice, conns.len(), |s, d| {
                s.audit_invariants(&mut inv, &mut audit_failures);
                audit_windows(s, d, conns, &mut audit_failures);
            });
        }
    }
    sim.audit_invariants(&mut inv, &mut audit_failures);

    let digest = driver.outcome_digest(sim, &sim.try_audit_conservation());

    let completed = driver.records().filter(|r| r.completed.is_some()).count();
    Ok(LegOutcome {
        label: leg.label.clone(),
        digest,
        completed,
        audit_failures,
        end: sim.now(),
    })
}

/// Per-flow congestion-window sanity at an audit boundary: cwnd finite and
/// ≥ 1 packet, ssthresh positive (∞ allowed before the first cut).
fn audit_windows<S: FlowSim>(
    sim: &mut S,
    driver: &mut Driver,
    conns: &[xmp_transport::ConnKey],
    failures: &mut Vec<String>,
) {
    for &conn in conns {
        for s in driver.subflow_snapshots(sim, conn) {
            if !s.cwnd.is_finite() || s.cwnd < 1.0 {
                failures.push(format!(
                    "conn {conn} subflow {}: cwnd {} out of bounds",
                    s.subflow, s.cwnd
                ));
            }
            if s.ssthresh.is_nan() || s.ssthresh <= 0.0 {
                failures.push(format!(
                    "conn {conn} subflow {}: ssthresh {} out of bounds",
                    s.subflow, s.ssthresh
                ));
            }
        }
    }
}
