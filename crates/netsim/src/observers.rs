//! The observers: time-series probes and the engine-loop profile. Pure
//! observation — nothing here feeds back into simulated state.
//!
//! The event loop counts on the profile and reports CE marks; drivers push
//! their own probe records through `Sim::probes_mut`.

use crate::fabric::{DirOwners, Fabric};
use crate::network::SAMPLE_KEY;
use crate::probe::{ProbeRecord, Probes, SimProfile};
use xmp_des::SimTime;

/// Probes and profile of one simulation.
pub(crate) struct Observers {
    /// Installed time-series probes (`None` = subsystem fully disabled).
    pub(crate) probes: Option<Probes>,
    /// Always-on engine-loop profiling counters.
    pub(crate) profile: SimProfile,
}

impl Observers {
    pub(crate) fn new() -> Self {
        Observers {
            probes: None,
            profile: SimProfile::default(),
        }
    }

    /// When the sampling tick after `now` is due; `None` without probes or
    /// past their configured end.
    pub(crate) fn next_tick(&self, now: SimTime) -> Option<SimTime> {
        let p = self.probes.as_ref()?;
        Some(now + p.interval).filter(|&next| next <= p.until)
    }

    /// One probe sampling tick at `now`: record watched queue depths and
    /// delivery counters. `roles` is `None` in a serial run, which records
    /// both series of every watch; on a partitioned shard it says, per
    /// watch, whether this shard owns the transmit side (the queue series:
    /// depth and enqueue/mark/drop counters live tx-side) and the receive
    /// side (the utilization series: delivery counters live rx-side).
    pub(crate) fn on_sample<P: Send + 'static>(
        &mut self,
        now: SimTime,
        fabric: &mut Fabric<P>,
        hybrid: bool,
        roles: Option<&[(bool, bool)]>,
    ) {
        let Some(p) = self.probes.as_mut() else {
            return; // probes were taken mid-run; stop sampling
        };
        for i in 0..p.watch.len() {
            let (link, dir) = p.watch[i];
            let (tx_role, rx_role) = roles.map_or((true, true), |r| r[i]);
            if tx_role {
                let depth = fabric.queue_depth(link, dir, now, hybrid) as u64;
                let stats = &fabric.links[link.0 as usize].dir(dir).stats;
                p.push_ranked(
                    ProbeRecord::Queue {
                        at: now,
                        link: link.0,
                        dir,
                        depth,
                        enqueued: stats.enqueued,
                        marked: stats.marked,
                        dropped: stats.dropped,
                    },
                    (SAMPLE_KEY, (i as u64) * 2),
                );
            }
            if rx_role {
                // Hybrid: fluid bytes served by this direction count toward
                // utilization (guarded, so hybrid-off exports stay
                // bit-identical).
                let fluid_bytes = if hybrid {
                    fabric.fluid_bytes_out(link, dir, now)
                } else {
                    0
                };
                let stats = &fabric.links[link.0 as usize].dir(dir).stats;
                p.push_ranked(
                    ProbeRecord::Util {
                        at: now,
                        link: link.0,
                        dir,
                        delivered_bytes: stats.delivered_bytes.as_bytes() + fluid_bytes,
                    },
                    (SAMPLE_KEY, (i as u64) * 2 + 1),
                );
            }
        }
    }

    /// For probe `watch` entry `i`, whether shard `s` records its queue
    /// series and its utilization series (see [`Observers::on_sample`]).
    pub(crate) fn watch_roles(&self, s: u32, dir_owner: &DirOwners) -> Vec<(bool, bool)> {
        let watch = self.probes.as_ref().map_or(&[][..], |p| p.watched());
        watch
            .iter()
            .map(|&(l, d)| {
                let (tx, rx) = dir_owner[l.0 as usize][d as usize];
                (tx == s, rx == s)
            })
            .collect()
    }

    /// Split for a partitioned run: every shard gets a zeroed profile and
    /// fresh probes of the same configuration (so the sampling tick phase
    /// is uniform) that stamp each record with a merge rank. The probes
    /// installed so far, with whatever was pushed before partitioning (e.g.
    /// a `Meta` line), are handed back to wait for [`Observers::merge`].
    pub(crate) fn shard(self, workers: usize) -> (Vec<Observers>, Option<Probes>) {
        let Observers { probes, profile: _ } = self;
        let ranked = || {
            let mut p = Probes::new(probes.as_ref()?.config());
            p.ranks = Some(Vec::new());
            Some(p)
        };
        let shards = (0..workers).map(|_| Observers {
            probes: ranked(),
            profile: SimProfile::default(),
        });
        (shards.collect(), probes)
    }

    /// Inverse of [`Observers::shard`]: event and pool counters sum (the
    /// caller owns the run's wall clock and its round and handoff counts),
    /// and the shards' probe records go back into the serial recording
    /// order — `(time, merge rank, shard order)` — behind what `probes`
    /// already held.
    pub(crate) fn merge(shards: Vec<Observers>, mut probes: Option<Probes>) -> Observers {
        let mut sum = SimProfile::default();
        let mut tagged: Vec<(SimTime, (u64, u64), usize, ProbeRecord)> = Vec::new();
        for Observers { probes, profile } in shards {
            let SimProfile {
                deliver,
                tx_done,
                timer,
                fault,
                sample,
                pool_hits,
                pool_misses,
                run_wall_ns: _,
                sync_rounds: _,
                handoffs: _,
                fluid_ticks,
            } = profile;
            sum.deliver += deliver;
            sum.tx_done += tx_done;
            sum.timer += timer;
            sum.fault += fault;
            sum.sample += sample;
            sum.pool_hits += pool_hits;
            sum.pool_misses += pool_misses;
            sum.fluid_ticks += fluid_ticks;
            let Some(mut p) = probes else { continue };
            let ranks = p.ranks.take().expect("shard probes carry ranks");
            let records = p.take_records();
            assert_eq!(ranks.len(), records.len(), "rank channel out of sync");
            for (rec, rank) in records.into_iter().zip(ranks) {
                let at = match &rec {
                    ProbeRecord::Queue { at, .. }
                    | ProbeRecord::Util { at, .. }
                    | ProbeRecord::Mark { at, .. }
                    | ProbeRecord::Cwnd { at, .. } => *at,
                    ProbeRecord::Meta { .. } => unreachable!("shards never record Meta lines"),
                };
                tagged.push((at, rank, tagged.len(), rec));
            }
        }
        tagged.sort_by_key(|&(at, rank, seq, _)| (at, rank, seq));
        if let Some(p) = probes.as_mut() {
            tagged.into_iter().for_each(|(_, _, _, rec)| p.push(rec));
        }
        Observers {
            probes,
            profile: sum,
        }
    }
}
