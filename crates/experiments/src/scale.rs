//! Scale experiment: one large fat-tree cell, run serially.
//!
//! A cell is a chaos [`Scenario`] built by [`runner::build`]: one
//! pre-submitted permutation wave (every host sends one fixed-size XMP-2
//! flow to the host half a tree away) runs to completion or its horizon. A
//! core link flaps mid-run and probes watch it throughout, so the outcome
//! digest — every flow record, the packet-conservation audit, the probe
//! records and the per-kind event counts — covers the fault and
//! observability paths, not just the happy path. The run ends in
//! [`Cell::finish`](runner::Cell::finish), and the digest is
//! [`Cell::digest`](runner::Cell::digest): `Driver::outcome_digest` over
//! the conservation report. The recorded values are `7e93a02948d16d8f`
//! ([`quick`]), `e5d22f17048e3846` ([`headline`]) and `d3616a796022d710`
//! ([`mega`]).
//!
//! The headline is wall clock and events per second for the k = 16 cell;
//! `mega` is the k = 32 memory-footprint cell, and every cell prints the
//! process's peak resident set once it is done.

use crate::common::TextTable;
use crate::runner::{self, Outcome};
use crate::scenario::{FaultLine, FaultSpec, FlowLine, LinkRef, Scenario};
use std::fmt;
use xmp_des::{SimDuration, SimTime};
use xmp_topo::FatTree;
use xmp_workloads::Scheme;

/// The headline k = 16 cell (1024 hosts): 2 MiB flows over at most 2 s,
/// both directions of `core/0/0/0` probed every 500 µs, and that link down
/// from 20 ms to 40 ms.
pub fn headline(seed: u64) -> Scenario {
    let core = LinkRef::Core(0, 0, 0);
    let flap = [
        (20_000, FaultSpec::Down(core)),
        (40_000, FaultSpec::Up(core)),
    ];
    Scenario {
        seed,
        k: 16,
        horizon_us: 2_000_000,
        flows: wave(16, 2 << 20),
        faults: flap.map(|(at_us, event)| FaultLine { at_us, event }).into(),
        probes: vec![(core, 0), (core, 1)],
        ..Scenario::default()
    }
}

/// CI-sized variant: k = 8 (128 hosts), 256 KiB flows, 500 ms. Fast enough
/// for `scripts/check.sh`.
pub fn quick(seed: u64) -> Scenario {
    Scenario {
        k: 8,
        horizon_us: 500_000,
        flows: wave(8, 256 << 10),
        ..headline(seed)
    }
}

/// Memory-footprint cell: k = 32 (8192 hosts), 32 KiB flows, 200 ms,
/// probes every 5 ms and no flap — the point is not throughput but the
/// memory high-water mark of a tree this size, [`ScaleCell::peak_rss_mib`].
pub fn mega(seed: u64) -> Scenario {
    Scenario {
        k: 32,
        horizon_us: 200_000,
        probe_interval_us: 5_000,
        flows: wave(32, 32 << 10),
        faults: Vec::new(),
        ..headline(seed)
    }
}

/// The permutation wave of a `k`-ary tree: host `i` sends one `bytes`
/// flow to the host `n/2` positions away (always inter-pod for a whole
/// tree), with subflow paths on tags 0 and `tag_count - 1` (disjoint
/// cores), staggered 1 µs apart so startup does not synchronize every
/// stack.
fn wave(k: usize, bytes: u64) -> Vec<FlowLine> {
    let n = k * k * k / 4;
    let flow = |i| FlowLine {
        src: i,
        dst: (i + n / 2) % n,
        size: bytes,
        scheme: Scheme::xmp(2),
        start_us: i as u64,
        tags: vec![0, FatTree::tag_count_for(k) - 1],
    };
    (0..n).map(flow).collect()
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
    /// Wall-clock milliseconds spent driving the simulation.
    pub wall_ms: f64,
    /// Peak resident set of the whole process once the cell is done
    /// ([`peak_rss_mib`]).
    pub peak_rss_mib: Option<f64>,
    /// How the cell finished: audit failures, event counts and rate,
    /// completed flows.
    pub outcome: Outcome,
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

/// Run cell `sc` in 10 ms slices to its horizon or until every flow
/// completes, and digest the outcome. The scenario is dropped once built,
/// so that its flow list does not count in the cell's peak RSS.
pub fn run(sc: Scenario) -> Result<ScaleCell, String> {
    let mut cell = runner::build(&sc, None)?;
    let (k, hosts) = (sc.k, sc.host_count());
    let deadline = SimTime::ZERO + SimDuration::from_micros(sc.horizon_us);
    drop(sc);
    let slice = SimDuration::from_millis(10);
    let wall = std::time::Instant::now();
    let (sim, flows) = (&mut cell.sim, cell.conns.len());
    cell.driver.drive(sim, deadline, slice, flows, |_, _| {});
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    let outcome = cell.finish();
    Ok(ScaleCell {
        k,
        hosts,
        digest: cell.digest(),
        wall_ms,
        peak_rss_mib: peak_rss_mib(),
        outcome,
    })
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
            format!("{:.2}", self.outcome.profile.events_per_sec() / 1e6),
            format!("{}", self.outcome.completed),
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

    /// The k = 4 cell's recorded digest: a change to the digest form, or
    /// to anything it hashes, moves it.
    const K4_DIGEST: u64 = 0x34db_f251_c1de_2bf6;

    #[test]
    fn quick_scale_digests_match() {
        // The same cell twice: every flow finishes and the outcome repeats
        // to the recorded bit.
        let sc = Scenario {
            k: 4,
            horizon_us: 200_000,
            flows: wave(4, 64 << 10),
            ..quick(42)
        };
        let (a, b) = (run(sc.clone()).unwrap(), run(sc).unwrap());
        assert_eq!(a.digest, b.digest, "{a}{b}");
        assert_eq!(a.digest, K4_DIGEST, "{a}");
        assert_eq!(a.outcome.completed, a.hosts, "{a}");
        assert!(a.outcome.failures.is_empty(), "{:?}", a.outcome.failures);
    }

    #[test]
    fn peak_rss_is_read_where_proc_has_it() {
        let have_proc = std::path::Path::new("/proc/self/status").exists();
        let rss = peak_rss_mib();
        assert_eq!(rss.is_some(), have_proc);
        assert!(rss.is_none_or(|m| m > 0.0), "{rss:?}");
    }
}
