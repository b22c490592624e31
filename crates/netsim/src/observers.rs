//! The observers: time-series probes and the engine-loop profile. Pure
//! observation — nothing here feeds back into simulated state.
//!
//! The event loop counts on the profile and reports CE marks; drivers push
//! their own probe records through `Sim::probes_mut`.

use crate::fabric::Fabric;
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

    /// One probe sampling tick at `now`: record every watched direction's
    /// queue series (depth and enqueue/mark/drop counters) and utilization
    /// series (delivery counters).
    pub(crate) fn on_sample<P: Send + 'static>(
        &mut self,
        now: SimTime,
        fabric: &mut Fabric<P>,
        hybrid: bool,
    ) {
        let Some(p) = self.probes.as_mut() else {
            return; // probes were taken mid-run; stop sampling
        };
        for i in 0..p.watch.len() {
            let (link, dir) = p.watch[i];
            let depth = fabric.queue_depth(link, dir, now, hybrid) as u64;
            let stats = &fabric.links[link.0 as usize].dir(dir).stats;
            p.push(ProbeRecord::Queue {
                at: now,
                link: link.0,
                dir,
                depth,
                enqueued: stats.enqueued,
                marked: stats.marked,
                dropped: stats.dropped,
            });
            // Hybrid: fluid bytes served by this direction count toward
            // utilization (guarded, so hybrid-off exports stay
            // bit-identical).
            let fluid_bytes = if hybrid {
                fabric.fluid_bytes_out(link, dir, now)
            } else {
                0
            };
            let stats = &fabric.links[link.0 as usize].dir(dir).stats;
            p.push(ProbeRecord::Util {
                at: now,
                link: link.0,
                dir,
                delivered_bytes: stats.delivered_bytes.as_bytes() + fluid_bytes,
            });
        }
    }
}
