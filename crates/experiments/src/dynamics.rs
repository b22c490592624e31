//! Dynamics — Fig. 2-style congestion time series on the dumbbell.
//!
//! One unbounded flow (XMP-2's two subflows vs single-path DCTCP) crosses a
//! 1 Gbps bottleneck (RTT 225 µs, K = 10, cap 100). The probe layer samples
//! every epoch:
//!
//! * per-subflow **cwnd/ssthresh** plus, for XMP, the NORMAL/REDUCED round
//!   state, TraSh gain δ and the round/reduction counters (pushed through
//!   [`xmp_workloads::Driver::subflow_snapshots`]),
//! * the bottleneck queue's instantaneous **depth** and cumulative
//!   enqueue/mark/drop counters, its delivered bytes (utilization), and the
//!   exact instant of every CE **mark**.
//!
//! The recorded series export as JSON Lines ([`DynamicsTrace::jsonl`]) —
//! the `dynamics` / `trace export` CLI commands write them under
//! `results/`, and `trace report` renders summaries back from the files.
//! The export is byte-identical across reruns (digests recorded in
//! `tests/determinism.rs`).

use crate::common::{audit_windows, end_of_run_audit, host_stack, TextTable};
use std::fmt;
use xmp_des::{Bandwidth, SimDuration, SimTime};
use xmp_netsim::{PortId, ProbeConfig, ProbeRecord, QdiscConfig, Sim};
use xmp_topo::Dumbbell;
use xmp_transport::{Segment, SubflowSpec};
use xmp_workloads::{Driver, FlowSpecBuilder, Host, Scheme};

/// Experiment configuration.
#[derive(Clone, Debug)]
pub struct DynamicsConfig {
    /// Sampling epoch (cwnd snapshots and queue samples once per epoch).
    pub epoch: SimDuration,
    /// Total epochs simulated.
    pub epochs: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DynamicsConfig {
    fn default() -> Self {
        DynamicsConfig {
            epoch: SimDuration::from_millis(1),
            epochs: 400,
            seed: 1,
        }
    }
}

impl DynamicsConfig {
    /// Scaled-down variant for tests and the smoke suite.
    pub fn quick() -> Self {
        DynamicsConfig {
            epochs: 150,
            ..DynamicsConfig::default()
        }
    }
}

/// One scheme's recorded time series.
#[derive(Debug)]
pub struct DynamicsTrace {
    /// Scheme label (e.g. "XMP-2").
    pub scheme: String,
    /// The full export: one meta line + every probe record, JSON Lines.
    pub jsonl: String,
    /// Per-subflow cwnd snapshots recorded.
    pub cwnd_points: usize,
    /// Bottleneck queue samples recorded.
    pub queue_points: usize,
    /// CE marks recorded at their exact instants.
    pub marks: usize,
    /// Window reductions taken by subflow 0 (round-based schemes; 0 for
    /// DCTCP whose per-ack response has no round counter).
    pub reductions: u64,
    /// Every end-of-run audit failure ([`end_of_run_audit`]); empty when
    /// the run is sound.
    pub audit: Vec<String>,
}

impl DynamicsTrace {
    /// Conventional export filename (`dynamics_<scheme>.jsonl`).
    pub fn filename(&self) -> String {
        format!(
            "dynamics_{}.jsonl",
            self.scheme.to_lowercase().replace('/', "-")
        )
    }
}

/// The experiment: one trace per scheme.
#[derive(Debug)]
pub struct DynamicsResult {
    /// Epoch length (ms).
    pub epoch_ms: f64,
    /// One trace per scheme.
    pub traces: Vec<DynamicsTrace>,
}

fn run_scheme(cfg: &DynamicsConfig, scheme: Scheme) -> DynamicsTrace {
    let mut sim: Sim<Segment, Host> = Sim::new(cfg.seed);
    let db = Dumbbell::build(
        &mut sim,
        1,
        Bandwidth::from_gbps(1),
        SimDuration::from_micros(225),
        QdiscConfig::EcnThreshold { cap: 100, k: 10 },
        |_| host_stack(),
    );
    let end = SimTime::ZERO + cfg.epoch * cfg.epochs;
    sim.install_probes(
        ProbeConfig::every(cfg.epoch)
            .until(end)
            .watch_queue(db.bottleneck, 0)
            .with_marks(),
    );

    // One unbounded flow; multipath schemes lay every subflow over the same
    // dumbbell path (distinct FlowIds keep them apart on the wire), so the
    // trace shows the windows jointly filling one bottleneck, as in Fig. 2.
    let mut driver = Driver::new();
    let conn = driver.submit(FlowSpecBuilder {
        src_node: db.sources[0],
        subflows: (0..scheme.subflow_count())
            .map(|_| SubflowSpec {
                local_port: PortId(0),
                src: Dumbbell::src_addr(0),
                dst: Dumbbell::dst_addr(0),
            })
            .collect(),
        size: u64::MAX,
        scheme,
        start: SimTime::ZERO,
        category: None,
        tag: 0,
    });

    for e in 0..cfg.epochs {
        driver.run(&mut sim, SimTime::ZERO + cfg.epoch * (e + 1), |_, _, _| {});
        let at = sim.now();
        let snaps = driver.subflow_snapshots(&mut sim, conn);
        if let Some(p) = sim.probes_mut() {
            for s in snaps {
                p.push(ProbeRecord::Cwnd {
                    at,
                    conn,
                    subflow: s.subflow as u32,
                    cwnd: s.cwnd,
                    ssthresh: s.ssthresh,
                    cc: s.cc,
                });
            }
        }
    }
    let mut windows = Vec::new();
    audit_windows(&mut sim, &driver, &mut windows);
    driver.stop_flow(&mut sim, conn);
    let mut audit = end_of_run_audit(&sim);
    audit.append(&mut windows);
    let probes = sim.take_probes().expect("probes were installed above");

    let mut cwnd_points = 0;
    let mut queue_points = 0;
    let mut marks = 0;
    let mut reductions = 0;
    for r in probes.records() {
        match r {
            ProbeRecord::Cwnd { subflow, cc, .. } => {
                cwnd_points += 1;
                if *subflow == 0 {
                    if let Some(cc) = cc {
                        reductions = cc.reductions;
                    }
                }
            }
            ProbeRecord::Queue { .. } => queue_points += 1,
            ProbeRecord::Mark { .. } => marks += 1,
            _ => {}
        }
    }

    let meta = ProbeRecord::Meta {
        experiment: "dynamics".into(),
        scheme: scheme.label(),
        seed: cfg.seed,
        note: format!(
            "dumbbell 1 Gbps, RTT 225us, K=10 cap=100, epoch {} us x {}",
            cfg.epoch.as_nanos() / 1_000,
            cfg.epochs
        ),
    };
    let jsonl = format!("{}\n{}", meta.to_json(), probes.export_jsonl());

    DynamicsTrace {
        scheme: scheme.label(),
        jsonl,
        cwnd_points,
        queue_points,
        marks,
        reductions,
        audit,
    }
}

impl DynamicsResult {
    /// Every audit failure, after its trace's scheme.
    pub fn audit_failures(&self) -> Vec<String> {
        let each = self.traces.iter();
        each.flat_map(|t| t.audit.iter().map(|a| format!("{}: {a}", t.scheme)))
            .collect()
    }
}

/// Run XMP-2 and DCTCP through the same bottleneck and record both traces.
pub fn run(cfg: &DynamicsConfig) -> DynamicsResult {
    DynamicsResult {
        epoch_ms: cfg.epoch.as_nanos() as f64 / 1e6,
        traces: [Scheme::xmp(2), Scheme::Dctcp]
            .into_iter()
            .map(|s| run_scheme(cfg, s))
            .collect(),
    }
}

impl fmt::Display for DynamicsResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(format!(
            "Dynamics — recorded series ({} ms epochs)",
            self.epoch_ms
        ))
        .header([
            "scheme",
            "cwnd pts",
            "queue pts",
            "marks",
            "reductions",
            "export",
        ]);
        for tr in &self.traces {
            t.row([
                tr.scheme.clone(),
                format!("{}", tr.cwnd_points),
                format!("{}", tr.queue_points),
                format!("{}", tr.marks),
                format!("{}", tr.reductions),
                tr.filename(),
            ]);
        }
        writeln!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xmp_trace_has_both_subflows_marks_and_reductions() {
        let r = run(&DynamicsConfig::quick());
        let xmp = &r.traces[0];
        let dctcp = &r.traces[1];
        assert_eq!(xmp.scheme, "XMP-2");
        assert_eq!(dctcp.scheme, "DCTCP");

        for tr in &r.traces {
            assert_eq!(tr.queue_points as u64, DynamicsConfig::quick().epochs);
            assert!(tr.marks > 0, "{}: no CE marks on the bottleneck", tr.scheme);
        }
        assert_eq!(r.audit_failures(), Vec::<String>::new());
        // Two subflows → two cwnd rows per epoch; single-path DCTCP → one.
        assert_eq!(xmp.cwnd_points, 2 * dctcp.cwnd_points);
        // XMP's round machinery reduced at least once under marking.
        assert!(xmp.reductions > 0, "XMP never entered REDUCED");
        // DCTCP has no round counters: every cwnd line lacks the cc fields.
        assert_eq!(dctcp.reductions, 0);
    }

    #[test]
    fn export_parses_line_by_line_and_queue_stays_sane() {
        let r = run(&DynamicsConfig::quick());
        for tr in &r.traces {
            let mut meta_lines = 0;
            for (i, line) in tr.jsonl.lines().enumerate() {
                let rec = ProbeRecord::parse(line)
                    .unwrap_or_else(|e| panic!("{} line {}: {e}", tr.scheme, i + 1));
                match rec {
                    ProbeRecord::Meta { experiment, .. } => {
                        assert_eq!(experiment, "dynamics");
                        meta_lines += 1;
                    }
                    ProbeRecord::Queue { depth, .. } => {
                        assert!(depth <= 101, "depth {depth} above cap+serializing");
                    }
                    _ => {}
                }
            }
            assert_eq!(meta_lines, 1, "{}: exactly one meta line", tr.scheme);
        }
    }
}
