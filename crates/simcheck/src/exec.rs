//! Scenario execution: run one scenario through every applicable oracle
//! leg, digest each leg, and audit runtime invariants mid-run.
//!
//! Every leg simulates the *same* scenario under a different
//! proven-equivalent implementation choice — serial vs partitioned across
//! 2–4 workers — and must produce a bit-identical
//! [`Driver::outcome_digest`] (final clock, every flow record, the
//! conservation audit, every probe record and the per-kind event counts).
//! Any digest mismatch or invariant-audit failure marks the scenario as
//! failing, which sends it to the shrinker.

use crate::scenario::{FaultSpec, Scenario};
use xmp_des::{SimDuration, SimTime};
use xmp_netsim::{FaultPlan, InvariantState, PartitionedSim, PortId, ProbeConfig, Sim};
use xmp_topo::{FatTree, FatTreeConfig};
use xmp_transport::{HostStack, Segment, StackConfig, SubflowSpec};
use xmp_workloads::{Driver, FlowSim, FlowSpecBuilder, Host};

/// One oracle leg: which implementation choices this run flips.
#[derive(Debug, Clone)]
pub struct LegSpec {
    /// Display label, e.g. `serial`, `workers-4`.
    pub label: String,
    /// Worker threads (1 = serial).
    pub workers: usize,
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
    let leg = |label: String, workers, inject| LegSpec {
        label,
        workers,
        inject,
    };
    let mut v = vec![leg("serial".into(), 1, false)];
    v.extend(
        sc.workers
            .iter()
            .map(|&w| leg(format!("workers-{w}"), w, false)),
    );
    if sc.inject_divergence {
        v.push(leg("serial-injected".into(), 1, true));
    }
    v
}

/// Validate and run every leg, compare digests against the baseline, and
/// collect audit failures. A scenario that cannot even be constructed
/// (bad topology, bad refs, bad fault plan) is an `Err` — that is a
/// harness/generator bug, not a divergence.
pub fn run_scenario(sc: &Scenario) -> Result<RunOutcome, String> {
    let specs = legs(sc);
    let mut out = Vec::with_capacity(specs.len());
    for leg in &specs {
        out.push(run_leg(sc, leg)?);
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

/// Run one leg of the scenario and digest everything an observer could
/// see. Serial legs additionally run the mid-run invariant audits at
/// every drive-slice boundary; partitioned legs audit after `finish()`
/// hands the shards back.
pub fn run_leg(sc: &Scenario, leg: &LegSpec) -> Result<LegOutcome, String> {
    let mut sim: Sim<Segment, Host> = Sim::new(sc.seed);
    sim.set_tuning(sc.tuning);

    let ft_cfg = FatTreeConfig {
        k: sc.k,
        ..FatTreeConfig::paper(sc.qdisc.to_config())
    };
    let stack_cfg = StackConfig::default().with_rto_min(SimDuration::from_micros(sc.rto_min_us));
    let ft = FatTree::try_build(&mut sim, &ft_cfg, |_| HostStack::new(stack_cfg.clone()))
        .map_err(|e| format!("topology: {e}"))?;

    let deadline = SimTime::ZERO + SimDuration::from_micros(sc.horizon_us);
    if !sc.probes.is_empty() {
        let mut pc =
            ProbeConfig::every(SimDuration::from_micros(sc.probe_interval_us)).until(deadline);
        for (link, dir) in &sc.probes {
            pc = pc.watch_queue(link.resolve(&ft)?, *dir);
        }
        sim.install_probes(pc);
    }

    let mut plan = FaultPlan::new();
    for f in &sc.faults {
        let at = SimTime::ZERO + SimDuration::from_micros(f.at_us);
        plan = match f.event {
            FaultSpec::Down(l) => plan.link_down(at, l.resolve(&ft)?),
            FaultSpec::Up(l) => plan.link_up(at, l.resolve(&ft)?),
            FaultSpec::SwitchDown(n) => plan.switch_down(at, n.resolve(&ft)?),
        };
    }
    for (l, p) in &sc.loss {
        plan = plan
            .try_drop_rate(l.resolve(&ft)?, *p)
            .map_err(|e| e.to_string())?;
    }
    for (l, p) in &sc.corruption {
        plan = plan
            .try_corrupt_rate(l.resolve(&ft)?, *p)
            .map_err(|e| e.to_string())?;
    }
    if !plan.is_empty() {
        sim.try_install_fault_plan(&plan)
            .map_err(|e| e.to_string())?;
    }

    let mut driver = Driver::new();
    let n = ft.hosts.len();
    let tag_count = ft.tag_count();
    let mut conns = Vec::with_capacity(sc.flows.len());
    for (i, f) in sc.flows.iter().enumerate() {
        if f.src >= n || f.dst >= n {
            return Err(format!("flow {i}: host index out of range (hosts = {n})"));
        }
        if f.src == f.dst {
            return Err(format!("flow {i}: src == dst == {}", f.src));
        }
        if let Some(&t) = f.tags.iter().find(|&&t| t >= tag_count) {
            return Err(format!(
                "flow {i}: tag {t} out of range (tag_count = {tag_count})"
            ));
        }
        let subflows: Vec<SubflowSpec> = f
            .tags
            .iter()
            .map(|&t| SubflowSpec {
                local_port: PortId(0),
                src: ft.host_addr(f.src, t),
                dst: ft.host_addr(f.dst, t),
            })
            .collect();
        conns.push(driver.submit(FlowSpecBuilder {
            src_node: ft.host(f.src),
            subflows,
            size: f.size,
            scheme: f.scheme,
            start: SimTime::ZERO + SimDuration::from_micros(f.start_us),
            category: Some(ft.category(f.src, f.dst)),
            tag: i as u64,
        }));
    }

    if leg.inject {
        // Chaos hook: a timer event for a token that was never armed. The
        // timer layer ignores it, but the event count perturbs the digest
        // deterministically — the intended, detectable divergence. Injected
        // 1 µs in so it fires even if every flow completes early.
        sim.debug_inject_spurious_timer(ft.host(0), SimTime::ZERO + SimDuration::from_micros(1));
    }

    // Drive in fixed slices so serial and partitioned runs process
    // identical event sets (everything is pre-submitted, nothing chains).
    let target = conns.len();
    let span = deadline - SimTime::ZERO;
    let slice = SimDuration::from_nanos((span.as_nanos() / 16).max(100_000));
    let mut audit_failures = Vec::new();
    let mut inv = InvariantState::default();
    let sim = if leg.workers > 1 {
        let plan = ft
            .try_partition_plan(leg.workers)
            .map_err(|e| format!("partition: {e}"))?;
        let mut psim =
            PartitionedSim::try_new(sim, &plan).map_err(|e| format!("partition: {e}"))?;
        driver.drive(&mut psim, deadline, slice, target, |_, _| {});
        psim.finish()
    } else {
        driver.drive(&mut sim, deadline, slice, target, |s, d| {
            s.audit_invariants(&mut inv, &mut audit_failures);
            audit_windows(s, d, &conns, &mut audit_failures);
        });
        sim
    };

    // Post-run audit on every leg (for partitioned legs this is the first
    // chance: the shards only merge back at `finish()`).
    sim.audit_invariants(&mut inv, &mut audit_failures);

    let digest = driver.outcome_digest(&sim, &sim.try_audit_conservation());

    let completed = driver.records().filter(|r| r.completed.is_some()).count();
    Ok(LegOutcome {
        label: leg.label.clone(),
        digest,
        completed,
        audit_failures,
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
