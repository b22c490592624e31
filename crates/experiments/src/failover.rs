//! Failover — goodput through a mid-transfer core-link failure.
//!
//! One long flow crosses pods on a k = 4 fat-tree. At a fixed simulated
//! time the aggregation↔core link carrying path tag 0 dies (optionally
//! repaired later). Every scheme has a subflow on the dead path:
//!
//! * **XMP-2 / LIA-2** place subflows on tags 0 and `tag_count - 1`
//!   (disjoint aggregation and core switches), so the surviving subflow
//!   compensates — goodput dips, then recovers *while the link is still
//!   down*,
//! * **DCTCP** is single-path on tag 0, so its goodput collapses to ~0
//!   until the link (if ever) comes back and its backed-off RTO fires.
//!
//! Reported per scheme: pre-failure goodput, the worst epoch during the
//! outage, time to re-attain 90 % of the pre-failure goodput, RTO count,
//! and packets blackholed on the dead link. Every run ends with the
//! packet-conservation audit.

use crate::common::{frac, host_stack, mbps, TextTable};
use std::fmt;
use xmp_des::{SimDuration, SimTime};
use xmp_netsim::{AuditReport, FaultPlan, PortId, QdiscConfig, Sim};
use xmp_topo::{FatTree, FatTreeConfig};
use xmp_transport::{Segment, SubflowSpec};
use xmp_workloads::{Driver, FlowSpecBuilder, Host, RateBins, Scheme};

/// Experiment configuration.
#[derive(Clone, Debug)]
pub struct FailoverConfig {
    /// Sampling epoch length.
    pub epoch: SimDuration,
    /// Total epochs simulated.
    pub epochs: u64,
    /// The link dies at `fail_epoch * epoch`.
    pub fail_epoch: u64,
    /// Optional repair at `repair_epoch * epoch`.
    pub repair_epoch: Option<u64>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FailoverConfig {
    fn default() -> Self {
        FailoverConfig {
            epoch: SimDuration::from_millis(100),
            epochs: 40,
            fail_epoch: 10,
            repair_epoch: Some(25),
            seed: 1,
        }
    }
}

impl FailoverConfig {
    /// Scaled-down variant for tests and the smoke suite.
    pub fn quick() -> Self {
        FailoverConfig {
            epoch: SimDuration::from_millis(50),
            epochs: 24,
            fail_epoch: 6,
            repair_epoch: Some(15),
            ..FailoverConfig::default()
        }
    }
}

/// One scheme's run through the failure.
#[derive(Debug)]
pub struct SchemeRow {
    /// Scheme label.
    pub scheme: String,
    /// Mean goodput over the last three pre-failure epochs (bits/s).
    pub pre_goodput_bps: f64,
    /// Worst epoch goodput during the outage (bits/s).
    pub dip_goodput_bps: f64,
    /// Time from the failure instant to the end of the first epoch back
    /// at ≥ 90 % of the pre-failure goodput, if any.
    pub recovery_ms: Option<f64>,
    /// Retransmission timeouts over the whole run.
    pub rtos: u64,
    /// Packets blackholed on the dead link (both directions).
    pub blackholed: u64,
    /// Aggregate goodput per epoch (bits/s), all subflows summed.
    pub goodput_bps: Vec<f64>,
    /// Packet-conservation audit at end of run.
    pub audit: AuditReport,
}

/// The experiment.
#[derive(Debug)]
pub struct FailoverResult {
    /// Failure instant (ms).
    pub fail_at_ms: f64,
    /// Repair instant (ms), if any.
    pub repair_at_ms: Option<f64>,
    /// Epoch length (ms).
    pub epoch_ms: f64,
    /// One row per scheme.
    pub rows: Vec<SchemeRow>,
}

fn run_scheme(cfg: &FailoverConfig, scheme: Scheme) -> SchemeRow {
    let mut sim: Sim<Segment, Host> = Sim::new(cfg.seed);
    let ft_cfg = FatTreeConfig {
        k: 4,
        ..FatTreeConfig::paper(QdiscConfig::EcnThreshold { cap: 100, k: 10 })
    };
    let ft = FatTree::build(&mut sim, &ft_cfg, |_| host_stack());

    // Tag-0 inter-pod traffic crosses core (0, 0); its pod-0 attachment is
    // the link we kill. A multipath flow's second subflow rides the last
    // tag — a disjoint aggregation and core switch.
    let dead = ft.core_link(0, 0, 0);
    let fail_at = SimTime::ZERO + cfg.epoch * cfg.fail_epoch;
    let mut plan = FaultPlan::new().link_down(fail_at, dead);
    if let Some(r) = cfg.repair_epoch {
        plan = plan.link_up(SimTime::ZERO + cfg.epoch * r, dead);
    }
    sim.install_fault_plan(&plan);

    // One unbounded flow from pod 0 to pod 1.
    let (src, dst) = (0usize, (ft_cfg.k / 2) * (ft_cfg.k / 2));
    let tags: Vec<usize> = match scheme.subflow_count() {
        1 => vec![0],
        n => {
            assert!(n == 2, "failover experiment places exactly 2 subflows");
            vec![0, ft.tag_count() - 1]
        }
    };
    let mut driver = Driver::new();
    let conn = driver.submit(FlowSpecBuilder {
        src_node: ft.host(src),
        subflows: tags
            .iter()
            .map(|&t| SubflowSpec {
                local_port: PortId(0),
                src: ft.host_addr(src, t),
                dst: ft.host_addr(dst, t),
            })
            .collect(),
        size: u64::MAX,
        scheme,
        start: SimTime::ZERO,
        category: Some(ft.category(src, dst)),
        tag: 0,
    });

    // Aggregate goodput per epoch: every subflow's rate, summed.
    let end = SimTime::ZERO + cfg.epoch * cfg.epochs;
    let mut bins = RateBins::new((0..tags.len()).map(|x| (conn, x)), cfg.epoch);
    bins.run(&mut driver, &mut sim, end);
    let goodput: Vec<f64> = bins.rows().iter().map(|r| r.iter().sum()).collect();
    driver.stop_flow(&mut sim, conn);
    let rtos = driver.record(conn).map_or(0, |r| r.rtos);
    let l = sim.link(dead);
    let blackholed = l.dirs[0].stats.blackholed + l.dirs[1].stats.blackholed;
    let audit = sim.audit_conservation();

    let fail = cfg.fail_epoch as usize;
    let pre_from = fail.saturating_sub(3);
    let pre_goodput_bps =
        goodput[pre_from..fail].iter().sum::<f64>() / (fail - pre_from).max(1) as f64;
    let outage_end = cfg.repair_epoch.map_or(cfg.epochs, |r| r.min(cfg.epochs)) as usize;
    let dip_goodput_bps = goodput[fail..outage_end]
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    let epoch_ms = cfg.epoch.as_nanos() as f64 / 1e6;
    let recovery_ms = goodput[fail..]
        .iter()
        .position(|&g| g >= 0.9 * pre_goodput_bps)
        .map(|i| (i + 1) as f64 * epoch_ms);

    SchemeRow {
        scheme: scheme.label(),
        pre_goodput_bps,
        dip_goodput_bps,
        recovery_ms,
        rtos,
        blackholed,
        goodput_bps: goodput,
        audit,
    }
}

/// Run XMP-2, LIA-2 and DCTCP through the same failure.
pub fn run(cfg: &FailoverConfig) -> FailoverResult {
    let epoch_ms = cfg.epoch.as_nanos() as f64 / 1e6;
    FailoverResult {
        fail_at_ms: cfg.fail_epoch as f64 * epoch_ms,
        repair_at_ms: cfg.repair_epoch.map(|r| r as f64 * epoch_ms),
        epoch_ms,
        rows: [Scheme::xmp(2), Scheme::lia(2), Scheme::Dctcp]
            .into_iter()
            .map(|s| run_scheme(cfg, s))
            .collect(),
    }
}

impl fmt::Display for FailoverResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let repair = self
            .repair_at_ms
            .map_or("never".into(), |r| format!("{r:.0} ms"));
        let mut t = TextTable::new(format!(
            "Failover — core link down at {:.0} ms, repaired {repair}",
            self.fail_at_ms
        ))
        .header([
            "scheme",
            "pre (Mbps)",
            "dip (Mbps)",
            "recovery (ms)",
            "RTOs",
            "blackholed",
        ]);
        for r in &self.rows {
            t.row([
                r.scheme.clone(),
                mbps(r.pre_goodput_bps),
                mbps(r.dip_goodput_bps),
                r.recovery_ms.map_or("-".into(), |m| format!("{m:.0}")),
                format!("{}", r.rtos),
                format!("{}", r.blackholed),
            ]);
        }
        writeln!(f, "{t}")?;
        let mut s = TextTable::new("Failover — per-epoch goodput / 1 Gbps access").header(
            std::iter::once("scheme".to_string())
                .chain((1..=self.rows[0].goodput_bps.len()).map(|e| format!("e{e}"))),
        );
        for r in &self.rows {
            s.row(
                std::iter::once(r.scheme.clone())
                    .chain(r.goodput_bps.iter().map(|&g| frac(g / 1e9))),
            );
        }
        writeln!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multipath_recovers_during_outage_single_path_stalls() {
        let cfg = FailoverConfig::quick();
        let r = run(&cfg);
        let xmp = &r.rows[0];
        let lia = &r.rows[1];
        let dctcp = &r.rows[2];

        // Every scheme had a subflow on the dead path.
        for row in &r.rows {
            assert!(row.blackholed > 0, "{}: no packets blackholed", row.scheme);
            assert!(row.rtos >= 1, "{}: no RTO on the dead subflow", row.scheme);
            assert_eq!(
                row.audit.injected,
                row.audit.delivered + row.audit.dropped + row.audit.in_network,
                "{}: conservation",
                row.scheme
            );
        }

        // Multipath re-attains 90% of pre-failure goodput before repair.
        let outage_ms =
            (cfg.repair_epoch.unwrap() - cfg.fail_epoch) as f64 * cfg.epoch.as_nanos() as f64 / 1e6;
        for row in [xmp, lia] {
            let rec = row
                .recovery_ms
                .unwrap_or_else(|| panic!("{} never recovered", row.scheme));
            assert!(
                rec < outage_ms,
                "{}: recovery {rec} ms not within the {outage_ms} ms outage",
                row.scheme
            );
        }

        // Single-path DCTCP collapses while its only path is down.
        assert!(
            dctcp.dip_goodput_bps < 0.1 * dctcp.pre_goodput_bps,
            "DCTCP dip {} vs pre {}",
            dctcp.dip_goodput_bps,
            dctcp.pre_goodput_bps
        );
    }
}
