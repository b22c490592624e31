//! Scale experiment: one large fat-tree cell, serial vs partitioned.
//!
//! One pre-submitted permutation wave (every host sends one fixed-size
//! XMP-2 flow to the host half a tree away) runs on the same topology and
//! seed under each requested worker count. Because every flow is submitted
//! before the first event — nothing chains on completion — the partitioned
//! runs are **bit-identical** to the serial one: the experiment digests
//! every flow record, the packet-conservation audit, the probe records and
//! the per-kind event counts, and refuses to report a speedup unless every
//! digest matches the serial baseline. A core link flaps mid-run and
//! probes watch it throughout, so the digest covers the fault and
//! observability paths, not just the happy path.
//!
//! The headline (`ScaleResult`): wall-clock per worker count and the
//! speedup over serial on the identical workload — the number
//! `BENCH_pr6.json` records for the k = 16 cell.

use crate::common::TextTable;
use std::fmt;
use xmp_des::{SimDuration, SimTime};
use xmp_netsim::{FaultPlan, PartitionedSim, PortId, QdiscConfig, Sim};
use xmp_topo::{FatTree, FatTreeConfig};
use xmp_transport::{HostStack, Segment, StackConfig, SubflowSpec};
use xmp_workloads::{Driver, FlowSpecBuilder, Host, Scheme};

/// Configuration for one scale run.
#[derive(Clone, Debug)]
pub struct ScaleConfig {
    /// Fat-tree port count (the headline cell uses 16 → 1024 hosts).
    pub k: usize,
    /// Worker counts to run, each on a fresh identically-seeded cell. The
    /// first entry is the digest baseline (use 1).
    pub workers: Vec<usize>,
    /// Bytes per flow (one flow per host).
    pub flow_bytes: u64,
    /// RNG seed.
    pub seed: u64,
    /// Hard wall on simulated time.
    pub max_sim: SimDuration,
    /// Probe sampling interval on the watched core link.
    pub probe_interval: SimDuration,
    /// Flap a core link down/up mid-run (exercises the fault path under
    /// partitioning; the digest must still match).
    pub faults: bool,
}

impl ScaleConfig {
    /// The headline k = 16 cell: 1024 hosts, serial vs 4 workers.
    pub fn default_cfg() -> Self {
        ScaleConfig {
            k: 16,
            workers: vec![1, 4],
            flow_bytes: 2 << 20,
            seed: 42,
            max_sim: SimDuration::from_secs(2),
            probe_interval: SimDuration::from_micros(500),
            faults: true,
        }
    }

    /// CI-sized variant: k = 8 (128 hosts), serial vs 4 workers, small
    /// flows. Fast enough for `scripts/check.sh`, still crosses every
    /// partition boundary.
    pub fn quick() -> Self {
        ScaleConfig {
            k: 8,
            workers: vec![1, 4],
            flow_bytes: 256 << 10,
            seed: 42,
            max_sim: SimDuration::from_millis(500),
            ..ScaleConfig::default_cfg()
        }
    }

    /// Memory-footprint cell: k = 32 (8192 hosts), serial only. One
    /// permutation wave of short flows — the point is not throughput but
    /// the memory high-water mark of a tree this size; read it off the
    /// process (`VmHWM`), as the benchmark's `peak_heap_mib` does.
    pub fn mega() -> Self {
        ScaleConfig {
            k: 32,
            workers: vec![1],
            flow_bytes: 32 << 10,
            seed: 42,
            max_sim: SimDuration::from_millis(200),
            probe_interval: SimDuration::from_millis(5),
            faults: false,
        }
    }
}

/// One worker count's outcome.
#[derive(Clone, Debug)]
pub struct ScaleCell {
    /// Worker threads used.
    pub workers: usize,
    /// Digest over flow records + audit + probes + event counts + clock.
    pub digest: u64,
    /// Completed flows.
    pub completed: usize,
    /// Events handled (all kinds).
    pub events: u64,
    /// Conservative sync rounds run (0 for serial cells).
    pub sync_rounds: u64,
    /// Cross-shard handoffs exchanged (0 for serial cells).
    pub handoffs: u64,
    /// Wall-clock milliseconds spent driving the simulation.
    pub wall_ms: f64,
    /// Events per wall-clock second inside the event loop.
    pub events_per_sec: f64,
}

/// All cells plus the digest verdict.
#[derive(Clone, Debug)]
pub struct ScaleResult {
    /// Topology summary for the report header.
    pub k: usize,
    /// Hosts in the cell.
    pub hosts: usize,
    /// One entry per requested worker count, in input order.
    pub cells: Vec<ScaleCell>,
    /// Every cell's digest equals the first (serial) cell's.
    pub digests_match: bool,
}

impl ScaleResult {
    /// Wall-clock speedup of `workers` over the first (serial) cell.
    pub fn speedup(&self, workers: usize) -> Option<f64> {
        let base = self.cells.first()?.wall_ms;
        let cell = self.cells.iter().find(|c| c.workers == workers)?;
        if cell.wall_ms > 0.0 {
            Some(base / cell.wall_ms)
        } else {
            None
        }
    }
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

/// Run the wave at one worker count and digest the outcome.
pub fn run_cell(cfg: &ScaleConfig, workers: usize) -> ScaleCell {
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
    let sim = if workers > 1 {
        let plan = ft.partition_plan(workers);
        let mut psim = PartitionedSim::new(sim, &plan);
        driver.drive(&mut psim, deadline, slice, target, |_, _| {});
        psim.finish()
    } else {
        driver.drive(&mut sim, deadline, slice, target, |_, _| {});
        sim
    };
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;

    let digest = driver.outcome_digest(&sim, &sim.audit_conservation());
    let profile = sim.profile();

    let completed = driver.records().filter(|r| r.completed.is_some()).count();
    ScaleCell {
        workers,
        digest,
        completed,
        events: profile.events_handled(),
        sync_rounds: profile.sync_rounds,
        handoffs: profile.handoffs,
        wall_ms,
        events_per_sec: profile.events_per_sec(),
    }
}

/// Run every requested worker count and check the digests.
pub fn run(cfg: &ScaleConfig) -> ScaleResult {
    let h = cfg.k / 2;
    let hosts = cfg.k * h * h;
    let cells: Vec<ScaleCell> = cfg.workers.iter().map(|&w| run_cell(cfg, w)).collect();
    let digests_match = cells.iter().all(|c| c.digest == cells[0].digest);
    ScaleResult {
        k: cfg.k,
        hosts,
        cells,
        digests_match,
    }
}

impl fmt::Display for ScaleResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(format!(
            "Scale — k={} fat tree ({} hosts), one permutation wave",
            self.k, self.hosts
        ))
        .header([
            "workers",
            "wall (ms)",
            "speedup",
            "Mev/s",
            "flows",
            "digest",
        ]);
        for c in &self.cells {
            t.row([
                format!("{}", c.workers),
                format!("{:.0}", c.wall_ms),
                self.speedup(c.workers)
                    .map_or("-".into(), |s| format!("{s:.2}x")),
                format!("{:.2}", c.events_per_sec / 1e6),
                format!("{}", c.completed),
                format!("{:016x}", c.digest),
            ]);
        }
        writeln!(f, "{t}")?;
        writeln!(
            f,
            "digests {}",
            if self.digests_match {
                "MATCH — partitioned runs bit-identical to serial"
            } else {
                "MISMATCH — partitioned run diverged from serial"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_digests_match() {
        let cfg = ScaleConfig {
            k: 4,
            workers: vec![1, 2],
            flow_bytes: 64 << 10,
            max_sim: SimDuration::from_millis(200),
            ..ScaleConfig::quick()
        };
        let r = run(&cfg);
        assert!(r.digests_match, "{r}");
        assert_eq!(r.cells.len(), 2);
        assert!(r.cells[0].completed > 0);
        assert!(r.cells.iter().all(|c| c.completed == r.cells[0].completed));
    }
}
