//! Scale experiment: one large fat-tree cell, run serially.
//!
//! One pre-submitted permutation wave (every host sends one fixed-size
//! XMP-2 flow to the host half a tree away) runs to completion or its
//! horizon. A core link flaps mid-run and probes watch it throughout, so
//! the outcome digest — every flow record, the packet-conservation audit,
//! the probe records and the per-kind event counts — covers the fault and
//! observability paths, not just the happy path. The digest is
//! `Driver::outcome_digest`, the one simcheck prints; the recorded values
//! are `7e93a02948d16d8f` (`--quick`) and `e5d22f17048e3846` (default).
//!
//! The headline is wall clock and events per second for the k = 16 cell;
//! `mega` is the k = 32 memory-footprint cell, and every cell prints the
//! process's peak resident set once it is done.

use crate::common::{end_of_run_audit, TextTable};
use std::fmt;
use xmp_des::{SimDuration, SimTime};
use xmp_netsim::{FaultPlan, PortId, QdiscConfig, Sim};
use xmp_topo::{FatTree, FatTreeConfig};
use xmp_transport::{HostStack, Segment, StackConfig, SubflowSpec};
use xmp_workloads::{Driver, FlowSpecBuilder, Host, Scheme};

/// Configuration for one scale run.
#[derive(Clone, Debug)]
pub struct ScaleConfig {
    /// Fat-tree port count (the headline cell uses 16 → 1024 hosts).
    pub k: usize,
    /// Bytes per flow (one flow per host).
    pub flow_bytes: u64,
    /// RNG seed.
    pub seed: u64,
    /// Hard wall on simulated time.
    pub max_sim: SimDuration,
    /// Probe sampling interval on the watched core link.
    pub probe_interval: SimDuration,
    /// Flap a core link down/up mid-run.
    pub faults: bool,
}

impl ScaleConfig {
    /// The headline k = 16 cell: 1024 hosts.
    pub fn default_cfg() -> Self {
        ScaleConfig {
            k: 16,
            flow_bytes: 2 << 20,
            seed: 42,
            max_sim: SimDuration::from_secs(2),
            probe_interval: SimDuration::from_micros(500),
            faults: true,
        }
    }

    /// CI-sized variant: k = 8 (128 hosts), small flows. Fast enough for
    /// `scripts/check.sh`.
    pub fn quick() -> Self {
        ScaleConfig {
            k: 8,
            flow_bytes: 256 << 10,
            seed: 42,
            max_sim: SimDuration::from_millis(500),
            ..ScaleConfig::default_cfg()
        }
    }

    /// Memory-footprint cell: k = 32 (8192 hosts). One permutation wave of
    /// short flows — the point is not throughput but the memory high-water
    /// mark of a tree this size, [`ScaleCell::peak_rss_mib`].
    pub fn mega() -> Self {
        ScaleConfig {
            k: 32,
            flow_bytes: 32 << 10,
            seed: 42,
            max_sim: SimDuration::from_millis(200),
            probe_interval: SimDuration::from_millis(5),
            faults: false,
        }
    }
}

/// One cell's outcome.
#[derive(Clone, Debug)]
pub struct ScaleCell {
    /// Fat-tree port count.
    pub k: usize,
    /// Hosts in the cell.
    pub hosts: usize,
    /// Digest over flow records + audit + probes + event counts + clock.
    pub digest: u64,
    /// Completed flows.
    pub completed: usize,
    /// Events handled (all kinds).
    pub events: u64,
    /// Wall-clock milliseconds spent driving the simulation.
    pub wall_ms: f64,
    /// Events per wall-clock second inside the event loop.
    pub events_per_sec: f64,
    /// Peak resident set of the whole process once the cell is done
    /// ([`peak_rss_mib`]).
    pub peak_rss_mib: Option<f64>,
    /// Every end-of-run audit failure ([`end_of_run_audit`]); empty when
    /// the run is sound.
    pub audit: Vec<String>,
}

/// The process's peak resident set in MiB: `VmHWM` in
/// `/proc/self/status`, the figure the benchmark reads off a child as
/// `peak_heap_mib`. `None` where that file is absent.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: f64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib / 1024.0)
}

/// Submit the pre-planned permutation wave: host `i` sends one flow to the
/// host `n/2` positions away (always inter-pod for a whole tree), with
/// subflow paths on tags 0 and `tag_count - 1` (disjoint cores), staggered
/// 1 µs apart so startup does not synchronize every stack.
fn submit_wave(driver: &mut Driver, ft: &FatTree, cfg: &ScaleConfig) {
    let n = ft.hosts.len();
    let scheme = Scheme::xmp(2);
    for i in 0..n {
        let dst = (i + n / 2) % n;
        let tags = [0, ft.tag_count() - 1];
        let subflows: Vec<SubflowSpec> = tags
            .iter()
            .map(|&t| SubflowSpec {
                local_port: PortId(0),
                src: ft.host_addr(i, t),
                dst: ft.host_addr(dst, t),
            })
            .collect();
        driver.submit(FlowSpecBuilder {
            src_node: ft.host(i),
            subflows,
            size: cfg.flow_bytes,
            scheme,
            start: SimTime::ZERO + SimDuration::from_micros(i as u64),
            category: Some(ft.category(i, dst)),
            tag: i as u64,
        });
    }
}

/// Run the wave and digest the outcome.
pub fn run(cfg: &ScaleConfig) -> ScaleCell {
    let mut sim: Sim<Segment, Host> = Sim::new(cfg.seed);
    let ft_cfg = FatTreeConfig {
        k: cfg.k,
        ..FatTreeConfig::paper(QdiscConfig::EcnThreshold { cap: 100, k: 10 })
    };
    let stack_cfg = StackConfig::default().with_rto_min(SimDuration::from_millis(200));
    let ft = FatTree::build(&mut sim, &ft_cfg, |_| HostStack::new(stack_cfg.clone()));

    let watched = ft.core_link(0, 0, 0);
    let pc = xmp_netsim::ProbeConfig::every(cfg.probe_interval)
        .until(SimTime::ZERO + cfg.max_sim)
        .watch_queue(watched, 0)
        .watch_queue(watched, 1);
    sim.install_probes(pc);
    if cfg.faults {
        let down = SimTime::ZERO + SimDuration::from_millis(20);
        let up = SimTime::ZERO + SimDuration::from_millis(40);
        let plan = FaultPlan::new()
            .link_down(down, watched)
            .link_up(up, watched);
        sim.install_fault_plan(&plan);
    }

    let mut driver = Driver::new();
    submit_wave(&mut driver, &ft, cfg);
    let target = ft.hosts.len();
    let deadline = SimTime::ZERO + cfg.max_sim;

    let slice = SimDuration::from_millis(10);
    let wall = std::time::Instant::now();
    driver.drive(&mut sim, deadline, slice, target, |_, _| {});
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;

    let audit = end_of_run_audit(&sim);
    // The recorded digests hash the conservation report itself; a run
    // whose books do not balance hashes the imbalance (and fails `audit`).
    let digest = match sim.try_audit_conservation() {
        Ok(report) => driver.outcome_digest(&sim, &report),
        Err(e) => driver.outcome_digest(&sim, &e),
    };
    let profile = sim.profile();
    ScaleCell {
        k: cfg.k,
        hosts: target,
        digest,
        completed: driver.records().filter(|r| r.completed.is_some()).count(),
        events: profile.events_handled(),
        wall_ms,
        events_per_sec: profile.events_per_sec(),
        peak_rss_mib: peak_rss_mib(),
        audit,
    }
}

impl fmt::Display for ScaleCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(format!(
            "Scale — k={} fat tree ({} hosts), one permutation wave",
            self.k, self.hosts
        ))
        .header(["wall (ms)", "Mev/s", "flows", "peak RSS (MiB)", "digest"]);
        t.row([
            format!("{:.0}", self.wall_ms),
            format!("{:.2}", self.events_per_sec / 1e6),
            format!("{}", self.completed),
            self.peak_rss_mib
                .map_or_else(|| "-".into(), |m| format!("{m:.1}")),
            format!("{:016x}", self.digest),
        ]);
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_digests_match() {
        // The same cell twice: every flow finishes and the outcome repeats
        // to the bit.
        let cfg = ScaleConfig {
            k: 4,
            flow_bytes: 64 << 10,
            max_sim: SimDuration::from_millis(200),
            ..ScaleConfig::quick()
        };
        let (a, b) = (run(&cfg), run(&cfg));
        assert_eq!(a.digest, b.digest, "{a}{b}");
        assert_eq!(a.completed, a.hosts, "{a}");
        assert!(a.audit.is_empty(), "{:?}", a.audit);
    }

    #[test]
    fn peak_rss_is_read_where_proc_has_it() {
        let have_proc = std::path::Path::new("/proc/self/status").exists();
        let rss = peak_rss_mib();
        assert_eq!(rss.is_some(), have_proc);
        assert!(rss.is_none_or(|m| m > 0.0), "{rss:?}");
    }
}
