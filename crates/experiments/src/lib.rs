//! # xmp-experiments — regenerating every table and figure of the paper
//!
//! The paper runs are scenario files, run by one runner; the other
//! commands are one module each. Every simulation, theirs included, is
//! built by [`runner::build`]:
//!
//! | Paper artifact | Where | What it shows |
//! |---|---|---|
//! | Fig. 1 | `scenarios/paper/fig1.scn` | DCTCP convergence/fairness vs constant-factor cut, K ∈ {10, 20} |
//! | Fig. 4 | `scenarios/paper/fig4.scn` | Traffic shifting on the Fig. 3a testbed, β = 4 vs 6 |
//! | Fig. 6 | `scenarios/paper/fig6.scn` | Fairness across flows with 3/2/1/1 subflows, β = 4 vs 6 |
//! | Fig. 7 | `scenarios/paper/fig7.scn` | Rate compensation on the Fig. 5 torus, β ∈ {4, 5, 6} |
//! | (extensions) | `scenarios/paper/failover.scn` | goodput through a mid-transfer core-link failure |
//! | Table 1, Figs. 8/10/11 (+ Fig. 9, Table 3 for Incast) | `scenarios/paper/fattree.scn` | The fat-tree evaluation |
//! | Table 2 | `scenarios/paper/table2.scn` | XMP coexistence with LIA / TCP / DCTCP |
//! | Fig. 2 (dynamics) | `scenarios/paper/dynamics.scn` | cwnd/queue/mark time series, exported as JSONL |
//! | (all of the above) | [`scenario`], [`runner`], [`suite`] | the `.scn` model, [`runner::build`] (the one builder from a scenario to a simulation, for paper runs, simcheck, `ablation`, `scale` and `hybrid`) and [`runner::Cell::finish`] (where every one of those runs ends: its audit and outcome), the one runner of a paper run, and the fat-tree suite's cells and tables |
//! | (extensions) | [`ablation`] | β/K sweep (`scenarios/paper/sweep.scn`), TraSh-coupling ablation (`scenarios/paper/coupling.scn`), OLIA |
//! | (tooling) | [`report`] | summaries rendered back from exported traces |
//! | (scaling) | [`scale`] | wall clock, peak RSS and outcome digest of one large serial cell, itself a chaos scenario |
//! | (scaling) | [`hybrid`] | hybrid fluid/packet mode vs packet baseline, per-class tolerance bands |
//!
//! A scenario file carries its own `[quick]` (the `--quick` form), and
//! `scale`'s cells are scenarios; `hybrid` keeps a `Config` with a
//! `quick()` variant. Each command's result is `Display`able and prints
//! the rows and series the paper reports. The `xmp-experiments` binary
//! drives them from the command line.

#![forbid(unsafe_code)]

pub mod ablation;
pub mod common;
pub mod hybrid;
pub mod report;
pub mod runner;
pub mod scale;
pub mod scenario;
pub mod suite;

pub use common::TextTable;

/// Helpers for the shape tests of the committed paper runs below.
#[cfg(test)]
mod support {
    use crate::{runner, scenario::Scenario};

    /// The committed run `name`, parsed.
    pub fn committed(name: &str) -> Scenario {
        let run = runner::PAPER_RUNS.iter().find(|r| r.0 == name);
        runner::load(run.expect("a committed run").1).expect("the committed run parses")
    }

    /// The committed run `name` at a test's epoch, bin (`None`: one per
    /// epoch) and seed, with only its `variant`-th variant; audits clean.
    pub fn shaped(
        name: &str,
        unit_ms: u64,
        bin: Option<u64>,
        seed: u64,
        variant: usize,
    ) -> runner::Report {
        let mut sc = committed(name);
        sc.seed = seed;
        sc.paper.unit_us = unit_ms * 1000;
        sc.paper.bin_us = bin.map(|b| b * 1000);
        sc.paper.variants = vec![sc.paper.variants[variant].clone()];
        let r = runner::run(name, &sc).expect("the run builds");
        assert_eq!(r.audit_failures(), Vec::<String>::new(), "{name}: audits");
        r
    }

    /// Flows of `sc`'s schedule that run during epoch `e`.
    pub fn alive(sc: &Scenario, e: u64) -> Vec<usize> {
        let flows = sc.paper.flows.iter().enumerate();
        flows
            .filter(|(_, f)| sc.paper.runs(&f.name, e))
            .map(|(i, _)| i)
            .collect()
    }

    /// Jain's index and the sum over the series alive in epoch `e`.
    pub fn jain_util(r: &runner::Report, e: usize) -> (f64, f64) {
        let means = &r.runs[0].epochs[e];
        let alive = (0..means.len()).filter(|&i| r.series_alive(i, e));
        let alive: Vec<f64> = alive.map(|i| means[i]).collect();
        (xmp_workloads::jain_index(&alive), alive.iter().sum())
    }
}

/// Shape tests of `scenarios/paper/fig1.scn`.
#[cfg(test)]
mod fig1 {
    mod tests {
        use crate::support::{alive, committed, jain_util, shaped};

        #[test]
        fn active_flow_sets() {
            let sc = committed("fig1");
            assert_eq!(alive(&sc, 0), vec![0]);
            assert_eq!(alive(&sc, 3), vec![0, 1, 2, 3]);
            assert_eq!(alive(&sc, 4), vec![1, 2, 3]);
            assert_eq!(alive(&sc, 6), vec![3]);
        }

        #[test]
        fn halving_k20_is_fair_and_utilized() {
            // The paper's Fig. 1d: with K=20 >= BDP/(beta-1), the constant
            // cut keeps the link busy and the flows fair.
            let r = shaped("fig1", 1000, Some(50), 3, 3);
            let ((jain, util), (_, util0)) = (jain_util(&r, 3), jain_util(&r, 0));
            // Epoch 4 (all four flows active): near-fair, near-full.
            assert!(jain > 0.9, "jain={jain}");
            assert!(util > 0.85, "util={util}");
            // Epoch 1: single flow saturates the link alone.
            assert!(util0 > 0.8, "util={util0}");
            // Last epoch: only flow 4 remains and picks the capacity back up.
            let end = &r.runs[0].epochs[6];
            assert!(end[3] > 0.8, "flow4 end rate {}", end[3]);
            assert!(end[0] < 0.01, "flow1 still sending");
        }

        #[test]
        fn dctcp_variant_runs_and_utilizes() {
            let r = shaped("fig1", 800, Some(50), 4, 1);
            let util = jain_util(&r, 3).1;
            assert!(util > 0.8, "util={util}");
            assert_eq!(r.runs[0].epochs.len(), 7);
        }
    }
}

/// Shape tests of `scenarios/paper/fig4.scn`.
#[cfg(test)]
mod fig4 {
    mod tests {
        use crate::support::shaped;

        #[test]
        fn beta4_shifts_traffic_and_compensates() {
            let r = shaped("fig4", 1500, Some(100), 2, 0);
            let m = |e: usize| {
                let s = &r.runs[0].epochs[e];
                [s[0], s[1], s[0] + s[1]]
            };
            // Epoch 2 (no bg): subflows roughly split the two bottlenecks
            // against flows 1 and 3 — each gets a decent share.
            let before = m(1);
            assert!(before[0] > 0.15 && before[1] > 0.15, "{before:?}");
            // Epoch 4 (bg on DN1 converged): subflow 1 gives way, subflow 2
            // compensates above its pre-bg level.
            let during = m(3);
            assert!(
                during[0] < before[0] * 0.85,
                "subflow1 should shrink: {before:?} -> {during:?}"
            );
            assert!(
                during[1] > before[1] * 1.05,
                "subflow2 should compensate: {before:?} -> {during:?}"
            );
            // Epoch 6 (bg moved to DN2): the shift reverses.
            let reversed = m(5);
            assert!(
                reversed[0] > during[0] && reversed[1] < during[1],
                "shift should reverse: {during:?} -> {reversed:?}"
            );
            // Final epoch (no bg): aggregate recovers.
            let end = m(7);
            assert!(end[2] > 0.5 * before[2], "end={end:?} before={before:?}");
        }
    }
}

/// Shape tests of `scenarios/paper/fig6.scn`.
#[cfg(test)]
mod fig6 {
    mod tests {
        use crate::support::{alive, committed, jain_util, shaped};

        #[test]
        fn active_sets() {
            let sc = committed("fig6");
            assert_eq!(alive(&sc, 0), vec![0, 2]);
            assert_eq!(alive(&sc, 2), vec![0, 2, 3]);
            assert_eq!(alive(&sc, 4), vec![0, 1, 2, 3]);
            assert_eq!(alive(&sc, 5), vec![0, 1]);
        }

        #[test]
        fn beta4_is_fair_regardless_of_subflow_count() {
            let r = shaped("fig6", 1500, Some(100), 5, 0);
            // Epoch 5: all four flows (with 3/2/1/1 subflows) share the link.
            let m = &r.runs[0].epochs[4];
            let j = jain_util(&r, 4).0;
            assert!(j > 0.85, "jain={j} means={m:?}");
            // Flow 1 (3 subflows) must not dominate flow 3 (1 subflow).
            assert!(
                m[0] < m[2] * 2.0,
                "flow1 {} vs flow3 {} — coupling failed",
                m[0],
                m[2]
            );
            // Utilization stays high while 2+ flows are active.
            let util: f64 = m.iter().sum();
            assert!(util > 0.8, "util={util}");
            // Final epoch: only flows 1 and 2 remain and pick up the slack.
            let end = &r.runs[0].epochs[5];
            assert!(end[0] + end[1] > 0.75, "end={end:?}");
        }
    }
}

/// Shape tests of `scenarios/paper/fig7.scn`.
#[cfg(test)]
mod fig7 {
    mod tests {
        use crate::support::shaped;

        #[test]
        fn rate_compensation_on_l3_congestion_and_closure() {
            let r = shaped("fig7", 800, None, 3, 0);
            // Series 2i + x is flow i+1's subflow x: Flow 2's subflow 1
            // and Flow 3's subflow 0 ride L3.
            let rates = |s: usize| -> Vec<f64> { r.runs[0].epochs.iter().map(|e| e[s]).collect() };
            let (f2_sib, f2_l3, f3_l3) = (rates(2), rates(3), rates(4));
            // Quiet epoch (8: all flows up, bg fully loaded at 9..) — compare
            // epoch 8 (bg building) vs epoch 5 (pre-bg, index 4).
            let pre = f2_l3[4];
            let congested = f2_l3[8];
            assert!(
                congested < pre * 0.85,
                "L3 subflow should shrink: {pre} -> {congested}"
            );
            assert!(
                f2_sib[8] > f2_sib[4] * 1.02,
                "sibling should compensate: {} -> {}",
                f2_sib[4],
                f2_sib[8]
            );
            // After closure (epochs 13, 14 → indices 12, 13): L3 subflows die.
            assert!(
                f2_l3[13] < 0.05,
                "L3 subflow should collapse after closure: {}",
                f2_l3[13]
            );
            assert!(f3_l3[13] < 0.05, "flow3-1 too: {}", f3_l3[13]);
            // Siblings carry the flow.
            assert!(f2_sib[13] > 0.1, "sibling alive: {}", f2_sib[13]);
        }
    }
}

/// Shape tests of `scenarios/paper/failover.scn`.
#[cfg(test)]
mod failover {
    mod tests {
        use crate::{runner, support::committed};

        #[test]
        fn multipath_recovers_during_outage_single_path_stalls() {
            let mut sc = committed("failover").quick();
            sc.seed = 1;
            let r = runner::run("failover", &sc).expect("the run builds");
            let titles = sc.paper.variants.iter().map(|v| v.title.as_str());
            let rows: Vec<_> = titles.zip(&r.runs).collect();

            // Every scheme had a subflow on the dead path, and every run
            // ends with its invariant and conservation audits clean.
            for &(scheme, run) in &rows {
                assert!(run.blackholed > 0, "{scheme}: no packets blackholed");
                assert!(run.rtos >= 1, "{scheme}: no RTO on the dead subflow");
                assert!(
                    run.outcome.failures.is_empty(),
                    "{scheme}: {:?}",
                    run.outcome
                );
            }

            // Multipath re-attains 90% of pre-failure goodput before repair
            // (down at 300 ms, up at 750 ms).
            let outage_ms = 450.0;
            for &(scheme, run) in &rows[..2] {
                let rec = run.outage.as_ref().and_then(|o| o.recovery_ms);
                let rec = rec.unwrap_or_else(|| panic!("{scheme} never recovered"));
                assert!(
                    rec < outage_ms,
                    "{scheme}: recovery {rec} ms not within the {outage_ms} ms outage"
                );
            }

            // Single-path DCTCP collapses while its only path is down.
            let dctcp = rows[2].1.outage.as_ref().expect("an outage summary");
            assert!(
                dctcp.dip_bps < 0.1 * dctcp.pre_bps,
                "DCTCP dip {} vs pre {}",
                dctcp.dip_bps,
                dctcp.pre_bps
            );
        }

        /// A repair inside the failure's own bin still leaves that bin as
        /// the outage: at `--quick` an epoch is 30 ms and a bin 50 ms, so
        /// `down = 10` and `up = 11` both fall in bin 6 (e7 of the per-epoch
        /// table), and each scheme's dip is that bin's goodput, not infinity.
        #[test]
        fn a_repair_in_the_failure_bin_dips_to_that_bin() {
            let text = runner::PAPER_RUNS.iter().find(|r| r.0 == "failover");
            let text = text.expect("committed").1.replace("up = 25", "up = 11");
            let sc = runner::load(&text).expect("parses").quick();
            let r = runner::run("failover", &sc).expect("the run builds");
            let mut dips = Vec::new();
            for run in &r.runs {
                let o = run.outage.as_ref().expect("an outage summary");
                assert_eq!(o.dip_bps / 1e9, run.bins[6][0]);
                dips.push(crate::common::frac(run.bins[6][0]));
            }
            assert_eq!(dips, ["0.33", "0.95", "0.00"]);
        }
    }
}

/// Shape tests of `scenarios/paper/dynamics.scn`.
#[cfg(test)]
mod dynamics {
    mod tests {
        use crate::report::{summarize, TraceSummary};
        use crate::{runner, support::committed};
        use xmp_netsim::ProbeRecord;

        /// The quick run at seed 1, audited clean.
        fn quick() -> runner::Report {
            let mut sc = committed("dynamics").quick();
            sc.seed = 1;
            let r = runner::run("dynamics", &sc).expect("the run builds");
            assert_eq!(r.audit_failures(), Vec::<String>::new());
            r
        }

        #[test]
        fn xmp_trace_has_both_subflows_marks_and_reductions() {
            let r = quick();
            let titles = r.scenario.paper.variants.iter().map(|v| &v.title[..]);
            assert_eq!(titles.collect::<Vec<_>>(), ["XMP-2", "DCTCP"]);
            let traces: Vec<_> = (r.runs.iter())
                .map(|v| summarize(v.probes.as_ref().expect("probed").records()))
                .collect();
            let points = |t: &TraceSummary| t.cwnd.iter().map(|c| c.samples).sum::<usize>();
            for t in &traces {
                assert_eq!(t.queues[0].samples, 150, "one queue sample per epoch");
                assert!(t.mark_events > 0, "no CE marks on the bottleneck");
            }
            let (xmp, dctcp) = (&traces[0], &traces[1]);
            // Two subflows → two cwnd rows per epoch; single-path DCTCP → one.
            assert_eq!(points(xmp), 2 * points(dctcp));
            // XMP's round machinery reduced at least once under marking.
            let reduced = xmp.cwnd[0].observed_p.is_some_and(|p| p > 0.0);
            assert!(reduced, "XMP never entered REDUCED");
            // DCTCP has no round counters: every cwnd line lacks the cc fields.
            assert_eq!(dctcp.cwnd[0].observed_p, None);
        }

        #[test]
        fn export_parses_line_by_line_and_queue_stays_sane() {
            let r = quick();
            let exports: Vec<_> = r.exports().collect();
            let names: Vec<&str> = exports.iter().map(|e| &e.0[..]).collect();
            assert_eq!(names, ["dynamics_xmp-2.jsonl", "dynamics_dctcp.jsonl"]);
            for (name, export) in exports {
                let (jsonl, mut meta_lines) = (export.to_string(), 0);
                for (i, line) in jsonl.lines().enumerate() {
                    let rec = ProbeRecord::parse(line)
                        .unwrap_or_else(|e| panic!("{name} line {}: {e}", i + 1));
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
                assert_eq!(meta_lines, 1, "{name}: exactly one meta line");
            }
        }
    }
}
