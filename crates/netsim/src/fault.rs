//! Deterministic fault injection: scheduled topology failures plus seeded
//! random loss and corruption.
//!
//! A [`FaultPlan`] is a per-run description of everything that goes wrong:
//!
//! * a **timeline** of [`FaultEvent`]s at absolute sim times — links going
//!   down and (optionally) back up, whole switches failing,
//! * per-link Bernoulli **loss** and **corruption** rates, drawn from
//!   per-direction RNG streams derived from the sim seed so runs stay
//!   bit-reproducible.
//!
//! Plans are installed with [`Sim::install_fault_plan`](crate::Sim::install_fault_plan)
//! before (or during) a run; the timeline is driven by the DES engine like
//! any other event, so the same seed plus the same plan replays the same
//! byte-identical run. An empty plan is free: no RNG stream is consumed and
//! no event is scheduled, so results match a faultless build bit for bit.
//!
//! What a downed link does to traffic — blackholing and the
//! generation-stamped in-flight purge, with forwarding left as it was — is
//! documented on
//! [`Sim::take_link_down`](crate::Sim::take_link_down) and in DESIGN.md §11.

use crate::error::ConfigError;
use crate::fabric::Fabric;
use crate::link::LinkId;
use crate::node::NodeId;
use xmp_des::SimTime;

/// One scheduled topology fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// Both directions of the link fail: in-flight packets are blackholed
    /// and all traffic offered while down is dropped (counted).
    LinkDown(LinkId),
    /// The link is repaired: it carries what is offered to it again. (The
    /// routers never stopped choosing it.)
    LinkUp(LinkId),
    /// Every link attached to the node fails (the node itself keeps its
    /// state — a repaired switch resumes forwarding after `LinkUp`s).
    SwitchDown(NodeId),
}

/// A deterministic per-run schedule of faults. Build with the chainable
/// constructors, then hand to
/// [`Sim::install_fault_plan`](crate::Sim::install_fault_plan).
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    pub(crate) timeline: Vec<(SimTime, FaultEvent)>,
    pub(crate) loss: Vec<(LinkId, f64)>,
    pub(crate) corruption: Vec<(LinkId, f64)>,
}

impl FaultPlan {
    /// An empty plan (installing it is a no-op).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedule both directions of `link` to fail at `at`.
    pub fn link_down(mut self, at: SimTime, link: LinkId) -> Self {
        self.timeline.push((at, FaultEvent::LinkDown(link)));
        self
    }

    /// Schedule `link` to be repaired at `at`.
    pub fn link_up(mut self, at: SimTime, link: LinkId) -> Self {
        self.timeline.push((at, FaultEvent::LinkUp(link)));
        self
    }

    /// Schedule every link attached to `node` to fail at `at`.
    pub fn switch_down(mut self, at: SimTime, node: NodeId) -> Self {
        self.timeline.push((at, FaultEvent::SwitchDown(node)));
        self
    }

    /// Bernoulli-drop packets offered to either direction of `link` with
    /// probability `p` (seeded per direction; equivalent to
    /// [`LinkParams::with_drop_prob`](crate::LinkParams::with_drop_prob)
    /// but applied per run instead of at construction).
    pub fn drop_rate(self, link: LinkId, p: f64) -> Self {
        self.try_drop_rate(link, p)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Non-panicking [`FaultPlan::drop_rate`]: reports an out-of-range
    /// probability as a typed [`ConfigError`] instead
    /// of aborting (scenario loaders surface this to the CLI).
    pub fn try_drop_rate(mut self, link: LinkId, p: f64) -> Result<Self, ConfigError> {
        if !(0.0..=1.0).contains(&p) {
            return Err(ConfigError::BadProbability {
                what: "fault-plan drop rate",
                value: p,
            });
        }
        self.loss.push((link, p));
        Ok(self)
    }

    /// Bernoulli-corrupt packets *arriving* over either direction of `link`
    /// with probability `p`. A corrupted packet is counted
    /// ([`DirStats::corrupted`](crate::stats::DirStats::corrupted)) and
    /// discarded at the receiver — the model is a frame failing its
    /// checksum, so it consumed wire time unlike a fault drop.
    pub fn corrupt_rate(self, link: LinkId, p: f64) -> Self {
        self.try_corrupt_rate(link, p)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Non-panicking [`FaultPlan::corrupt_rate`]: reports an out-of-range
    /// probability as a typed [`ConfigError`] instead
    /// of aborting.
    pub fn try_corrupt_rate(mut self, link: LinkId, p: f64) -> Result<Self, ConfigError> {
        if !(0.0..=1.0).contains(&p) {
            return Err(ConfigError::BadProbability {
                what: "fault-plan corruption rate",
                value: p,
            });
        }
        self.corruption.push((link, p));
        Ok(self)
    }

    /// Whether the plan schedules or configures nothing at all.
    pub fn is_empty(&self) -> bool {
        self.timeline.is_empty() && self.loss.is_empty() && self.corruption.is_empty()
    }

    /// Check the whole plan against a sim of `links` links and `nodes`
    /// nodes whose clock reads `now`: probability ranges, no past-dated
    /// event, and every link and node id in range.
    fn validate(&self, now: SimTime, links: usize, nodes: usize) -> Result<(), ConfigError> {
        for (rates, what) in [
            (&self.loss, "fault-plan drop rate"),
            (&self.corruption, "fault-plan corruption rate"),
        ] {
            if let Some(&(_, value)) = rates.iter().find(|(_, p)| !(0.0..=1.0).contains(p)) {
                return Err(ConfigError::BadProbability { what, value });
            }
        }
        if let Some(&(at, _)) = self.timeline.iter().find(|&&(at, _)| at < now) {
            return Err(ConfigError::FaultInPast { at, now });
        }
        let rated = self.loss.iter().chain(&self.corruption);
        if let Some(&(link, _)) = rated.into_iter().find(|(l, _)| l.0 as usize >= links) {
            return Err(ConfigError::UnknownLink { link });
        }
        for &(_, ev) in &self.timeline {
            match ev {
                FaultEvent::LinkDown(link) | FaultEvent::LinkUp(link)
                    if link.0 as usize >= links =>
                {
                    return Err(ConfigError::UnknownLink { link });
                }
                FaultEvent::SwitchDown(node) if node.0 as usize >= nodes => {
                    return Err(ConfigError::UnknownNode { node });
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// The installed fault timeline of one simulation; engine `Fault` events
/// index into it. Grows by [`FaultTimeline::install`] only.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct FaultTimeline {
    events: Vec<FaultEvent>,
}

impl FaultTimeline {
    /// Install `plan` on a sim whose clock reads `now`: validate all of it
    /// **before** applying any of it (a rejected plan leaves everything
    /// untouched), set its per-link loss and corruption rates on `fabric`,
    /// and append its timeline. Returns the index the first appended event
    /// received; the caller schedules `plan.timeline[i]` as engine event
    /// `first + i`.
    pub(crate) fn install<P: Send + 'static>(
        &mut self,
        plan: &FaultPlan,
        now: SimTime,
        fabric: &mut Fabric<P>,
    ) -> Result<u32, ConfigError> {
        plan.validate(now, fabric.links.len(), fabric.nodes.len())?;
        u32::try_from(self.events.len() + plan.timeline.len()).expect("fault timeline overflow");
        let first = self.events.len() as u32;
        for &(link, p) in &plan.loss {
            fabric.set_faults(link, |f| f.drop_prob = p);
        }
        for &(link, p) in &plan.corruption {
            fabric.set_faults(link, |f| f.corrupt_prob = p);
        }
        self.events.extend(plan.timeline.iter().map(|&(_, ev)| ev));
        Ok(first)
    }

    /// The event engine index `idx` names.
    pub(crate) fn get(&self, idx: u32) -> FaultEvent {
        self.events[idx as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_in_order() {
        let p = FaultPlan::new()
            .link_down(SimTime::from_millis(5), LinkId(3))
            .link_up(SimTime::from_millis(9), LinkId(3))
            .switch_down(SimTime::from_millis(7), NodeId(1))
            .drop_rate(LinkId(0), 0.1)
            .corrupt_rate(LinkId(2), 0.01);
        assert!(!p.is_empty());
        assert_eq!(p.timeline.len(), 3);
        assert_eq!(p.timeline[0].1, FaultEvent::LinkDown(LinkId(3)));
        assert_eq!(p.loss, vec![(LinkId(0), 0.1)]);
        assert_eq!(p.corruption, vec![(LinkId(2), 0.01)]);
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn rejects_bad_probability() {
        let _ = FaultPlan::new().drop_rate(LinkId(0), 1.5);
    }
}
