//! Agent timers: the deadline-bump table behind `Emit::SetTimer`.
//!
//! [`TimerTable`] owns every `(node, token)` timer's state and the rules
//! for arming, cancelling and expiring it. It never touches the engine: it
//! tells the caller when an engine event has to be scheduled and what an
//! expiring event means, so the rules run (and are tested) without a sim.

use crate::hash::FxHashMap;
use crate::network::partition::{gather, scatter};
use crate::node::NodeId;
use xmp_des::SimTime;

/// Deadline-bump state for one `(node, token)` agent timer.
///
/// Re-arming a timer does **not** schedule a fresh engine event; it only
/// records the new deadline (`intent`) and lets the single tracked in-flight
/// event re-arm itself when it fires early. This matters enormously for
/// retransmission timers, which transports push out by a full RTO on every
/// ACK: the naive schedule-per-set approach keeps `ack rate × RTO` stale
/// events churning through the far-future overflow heap, while this scheme
/// keeps exactly one pending event per armed timer. A fresh event is
/// scheduled only when none is in flight or the deadline moved *earlier*
/// than the tracked event (the superseded event becomes an orphan, detected
/// by its stale `sched_gen`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct TimerState {
    /// The armed deadline; `None` while disarmed (cancelled or fired).
    intent: Option<SimTime>,
    /// The tracked in-flight engine event: `(fire time, schedule
    /// generation)`. An event carrying any other generation is an orphan
    /// and is ignored on expiry.
    sched: Option<(SimTime, u64)>,
    /// Monotone per-token schedule counter backing orphan detection.
    sched_gen: u64,
}

impl TimerState {
    /// Track a fresh engine event at `at`; returns its generation.
    fn track(&mut self, at: SimTime) -> u64 {
        self.sched_gen = self.sched_gen.wrapping_add(1);
        self.sched = Some((at, self.sched_gen));
        self.sched_gen
    }
}

/// What an expiring timer event means ([`TimerTable::expire`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Expiry {
    /// Nothing to do: the token was never armed, the event is an orphan
    /// (superseded by an earlier re-schedule), or the timer was cancelled
    /// and the event rode out harmlessly.
    Ignore,
    /// The deadline was bumped out past this event: schedule the one
    /// tracked event again at `at` under generation `gen` and keep waiting.
    Rearm {
        /// The current deadline.
        at: SimTime,
        /// Generation the new event must carry.
        gen: u64,
    },
    /// The timer is due: run the agent's `on_timer`.
    Fire,
}

/// One node's timers. Tokens are sparse agent-chosen u64s (connection ×
/// subflow × kind packed bits), hence a fast-hash map and not a slab; it
/// holds live timers only — [`TimerTable::expire`] drops a token once it
/// is disarmed with nothing in flight.
#[derive(Debug, Default, PartialEq)]
struct NodeTimers {
    live: FxHashMap<u64, TimerState>,
    /// Highest `sched_gen` of any dropped token. A returning token counts
    /// on from here, so an orphan of an earlier life never matches it.
    gen_floor: u64,
}

impl NodeTimers {
    fn state(&mut self, token: u64) -> &mut TimerState {
        let sched_gen = self.gen_floor;
        let fresh = TimerState {
            sched_gen,
            ..TimerState::default()
        };
        self.live.entry(token).or_insert(fresh)
    }
}

/// Per-node timer state, indexed densely by `NodeId`.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct TimerTable {
    nodes: Vec<NodeTimers>,
}

impl TimerTable {
    /// Make room for one more node (ids are dense, in creation order).
    pub(crate) fn add_node(&mut self) {
        self.nodes.push(NodeTimers::default());
    }

    /// Arm `(node, token)` for `at`. The tracked in-flight event is ridden
    /// whenever it fires at or before the new deadline (it re-arms itself
    /// on expiry); `Some(gen)` asks the caller to schedule a fresh event at
    /// `at` — none is pending, or the deadline moved earlier.
    pub(crate) fn arm(&mut self, node: NodeId, token: u64, at: SimTime) -> Option<u64> {
        let st = self.nodes[node.0 as usize].state(token);
        st.intent = Some(at);
        st.sched.is_none_or(|(p, _)| p > at).then(|| st.track(at))
    }

    /// Disarm `(node, token)`; its tracked event rides out and is ignored.
    pub(crate) fn cancel(&mut self, node: NodeId, token: u64) {
        if let Some(st) = self.nodes[node.0 as usize].live.get_mut(&token) {
            st.intent = None;
        }
    }

    /// The engine event `(node, token, gen)` fired at `now`. Unless it
    /// re-arms, the token ends disarmed and untracked, and is dropped.
    pub(crate) fn expire(&mut self, node: NodeId, token: u64, gen: u64, now: SimTime) -> Expiry {
        let timers = &mut self.nodes[node.0 as usize];
        let Some(st) = timers.live.get_mut(&token) else {
            return Expiry::Ignore;
        };
        match st.sched {
            Some((_, g)) if g == gen => st.sched = None,
            _ => return Expiry::Ignore,
        }
        if let Some(at) = st.intent.filter(|&at| at > now) {
            let gen = st.track(at);
            return Expiry::Rearm { at, gen };
        }
        debug_assert!(st.intent.is_none_or(|at| at == now), "fired late");
        let expiry = st.intent.map_or(Expiry::Ignore, |_| Expiry::Fire);
        timers.gen_floor = timers.gen_floor.max(st.sched_gen);
        timers.live.remove(&token);
        expiry
    }

    /// Force a timer's schedule-generation counter, keeping any tracked
    /// event consistent (test hook behind `Sim::debug_set_timer_gen`).
    pub(crate) fn set_gen(&mut self, node: NodeId, token: u64, gen: u64) {
        let st = self.nodes[node.0 as usize].state(token);
        st.sched_gen = gen;
        if let Some((_, g)) = &mut st.sched {
            *g = gen;
        }
    }

    /// Timer-state consistency (invariant 4 of `Sim::audit_invariants`): an
    /// armed timer always has a tracked in-flight event no later than its
    /// intent, the tracked event carries the current schedule generation
    /// (orphan detection is exact-match), and no tracked event is in the
    /// past. One description per violation is appended to `failures`.
    pub(crate) fn audit(&self, now: SimTime, failures: &mut Vec<String>) {
        for (node, table) in self.nodes.iter().enumerate() {
            for (&token, st) in table.live.iter() {
                if let Some(intent) = st.intent {
                    match st.sched {
                        None => failures.push(format!(
                            "timer node {node} token {token:#x}: armed (intent \
                             {intent:?}) but no in-flight event is tracked"
                        )),
                        Some((at, _)) if at > intent => failures.push(format!(
                            "timer node {node} token {token:#x}: tracked event at \
                             {at:?} fires after the armed intent {intent:?}"
                        )),
                        Some(_) => {}
                    }
                }
                if let Some((at, gen)) = st.sched {
                    if gen != st.sched_gen {
                        failures.push(format!(
                            "timer node {node} token {token:#x}: tracked event \
                             generation {gen} is not the latest ({}) — the live \
                             event would be treated as an orphan",
                            st.sched_gen
                        ));
                    }
                    if at < now {
                        failures.push(format!(
                            "timer node {node} token {token:#x}: tracked event at \
                             {at:?} is in the past (clock {now:?})"
                        ));
                    }
                }
            }
        }
    }

    /// Split for a partitioned run: each node's timers move to the shard
    /// that owns it; every other shard keeps an empty table in that slot.
    pub(crate) fn shard(self, owner: &[u32], workers: usize) -> Vec<TimerTable> {
        let TimerTable { nodes } = self;
        let shards = scatter(nodes, owner, workers, |_| NodeTimers::default());
        shards
            .into_iter()
            .map(|nodes| TimerTable { nodes })
            .collect()
    }

    /// Inverse of [`TimerTable::shard`].
    pub(crate) fn merge(shards: Vec<TimerTable>, owner: &[u32]) -> TimerTable {
        let shards = shards.into_iter().map(|TimerTable { nodes }| nodes);
        TimerTable {
            nodes: gather(shards.collect(), owner),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: NodeId = NodeId(0);
    const TOKEN: u64 = 9;

    fn us(t: u64) -> SimTime {
        SimTime::from_micros(t)
    }

    fn table() -> TimerTable {
        let mut t = TimerTable::default();
        t.add_node();
        t
    }

    fn audited(t: &TimerTable, now: SimTime) {
        let mut failures = Vec::new();
        t.audit(now, &mut failures);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn later_rearm_rides_the_tracked_event() {
        let mut t = table();
        let g = t.arm(N, TOKEN, us(10)).expect("first arm schedules");
        assert_eq!(t.arm(N, TOKEN, us(30)), None, "pushed out: no new event");
        audited(&t, us(0));
        // The one event fires early, re-arms itself at the bumped deadline,
        // and the re-armed event is the one that fires the agent.
        let Expiry::Rearm { at, gen } = t.expire(N, TOKEN, g, us(10)) else {
            panic!("early expiry must re-arm");
        };
        assert_eq!(at, us(30));
        audited(&t, us(10));
        assert_eq!(t.expire(N, TOKEN, gen, us(30)), Expiry::Fire);
        audited(&t, us(30));
    }

    #[test]
    fn earlier_rearm_orphans_the_tracked_event() {
        let mut t = table();
        let late = t.arm(N, TOKEN, us(30)).expect("first arm schedules");
        let early = t.arm(N, TOKEN, us(10)).expect("moved earlier: new event");
        assert_ne!(late, early);
        assert_eq!(t.expire(N, TOKEN, early, us(10)), Expiry::Fire);
        // Fired and untracked: dropped; its next life outnumbers the orphan.
        assert!(t.nodes[0].live.is_empty());
        let again = t.arm(N, TOKEN, us(40)).expect("fresh entry schedules");
        assert!(again > late.max(early));
        assert_eq!(t.expire(N, TOKEN, late, us(30)), Expiry::Ignore, "orphan");
        audited(&t, us(30));
    }

    #[test]
    fn cancel_lets_the_event_ride_out() {
        let mut t = table();
        let g = t.arm(N, TOKEN, us(10)).expect("first arm schedules");
        t.cancel(N, TOKEN);
        audited(&t, us(0));
        assert_eq!(t.expire(N, TOKEN, g, us(10)), Expiry::Ignore);
        assert!(t.nodes[0].live.is_empty(), "rode out: dropped");
        // Disarmed and untracked: arming again needs a fresh event.
        assert!(t.arm(N, TOKEN, us(20)).is_some());
        // A token that was never armed ignores whatever fires for it.
        assert_eq!(t.expire(N, 77, 0, us(10)), Expiry::Ignore);
    }

    #[test]
    fn generation_wraps_at_u64_max() {
        let mut t = table();
        t.set_gen(N, TOKEN, u64::MAX - 1);
        let a = t.arm(N, TOKEN, us(30)).expect("schedules");
        let b = t.arm(N, TOKEN, us(20)).expect("earlier: schedules");
        let c = t.arm(N, TOKEN, us(10)).expect("earlier still: schedules");
        assert_eq!((a, b, c), (u64::MAX, 0, 1));
        audited(&t, us(0));
        assert_eq!(t.expire(N, TOKEN, c, us(10)), Expiry::Fire);
        assert_eq!(t.expire(N, TOKEN, b, us(20)), Expiry::Ignore);
        assert_eq!(t.expire(N, TOKEN, a, us(30)), Expiry::Ignore);
    }
}
