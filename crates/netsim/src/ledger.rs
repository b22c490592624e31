//! The packet ledger: what went in, what came out, what was lost — and the
//! audits that hold the engine to it.
//!
//! The event handlers bump the counters; everything else only reads them.

use crate::link::Link;
use xmp_des::SimTime;

/// Conservation counters of one simulation.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    /// Packets injected by host agents (`Emit::Send`).
    pub(crate) injected: u64,
    /// Packets handed to a destination host agent.
    pub(crate) delivered: u64,
    /// Packets dropped anywhere, for any counted reason (qdisc, fault,
    /// corruption, blackhole, no-route).
    pub(crate) dropped: u64,
    /// The no-route share of `dropped` (`SimTuning::drop_unroutable`).
    pub(crate) unroutable: u64,
}

/// Packet-conservation snapshot from
/// [`Sim::audit_conservation`](crate::Sim::audit_conservation): every
/// injected packet must be delivered, dropped with a counted reason, or
/// still sitting in the network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AuditReport {
    /// Packets injected by host agents.
    pub injected: u64,
    /// Packets handed to destination host agents.
    pub delivered: u64,
    /// Packets dropped, all reasons combined.
    pub dropped: u64,
    /// Packets accepted by some link direction and not yet delivered.
    pub in_network: u64,
}

impl Ledger {
    /// Balance the books against `in_network`, the fabric's count of
    /// packets accepted by a link direction and not yet delivered.
    pub(crate) fn conservation(&self, in_network: u64) -> Result<AuditReport, String> {
        let report = AuditReport {
            injected: self.injected,
            delivered: self.delivered,
            dropped: self.dropped,
            in_network,
        };
        if report.injected != report.delivered + report.dropped + report.in_network {
            return Err(format!("packet conservation violated: {report:?}"));
        }
        Ok(report)
    }
}

/// Rolling observation state for
/// [`Sim::audit_invariants`](crate::Sim::audit_invariants).
///
/// Some invariants are *trajectories*, not snapshots: a link direction's
/// `busy_until` must never move backwards **within one failure generation**
/// (link teardown legitimately resets it). The state carries the last
/// observed `(fail_gen, busy_until)` watermark per direction between audit
/// calls; a fresh default state accepts whatever it first sees.
#[derive(Debug, Default)]
pub struct InvariantState {
    /// Per link, per direction: last observed `(fail_gen, busy_until)`.
    marks: Vec<[(u32, SimTime); 2]>,
}

impl InvariantState {
    /// Compare every direction of `links` with its watermark, describe
    /// each one that moved backwards in `failures`, and advance the marks.
    pub(crate) fn observe<P>(&mut self, links: &[Link<P>], failures: &mut Vec<String>) {
        if self.marks.len() < links.len() {
            self.marks.resize(links.len(), [(0, SimTime::ZERO); 2]);
        }
        for (l, marks) in links.iter().zip(&mut self.marks) {
            for (dir, (d, mark)) in l.dirs.iter().zip(marks).enumerate() {
                let (seen_gen, seen_busy) = *mark;
                if d.fail_gen == seen_gen && d.busy_until < seen_busy {
                    failures.push(format!(
                        "busy_until went backwards on {}/{dir}: {:?} after {:?} \
                         (fail_gen {})",
                        l.label, d.busy_until, seen_busy, d.fail_gen
                    ));
                }
                *mark = (d.fail_gen, d.busy_until);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_balances_or_describes_the_gap() {
        let ledger = Ledger {
            injected: 10,
            delivered: 6,
            dropped: 3,
            unroutable: 1,
        };
        let report = ledger.conservation(1).expect("6 + 3 + 1 = 10");
        assert_eq!(report.in_network, 1);
        let err = ledger.conservation(0).expect_err("one packet unaccounted");
        assert!(err.contains("packet conservation violated"), "{err}");
    }
}
