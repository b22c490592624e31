//! The simulation run loop.
//!
//! [`Engine`] owns the event queue and the simulation clock. Higher layers
//! drive it either by popping events themselves (`pop`) or by calling
//! [`Engine::run_until`] with a handler closure.

use crate::queue::EventQueue;
use crate::time::SimTime;

/// Discrete-event engine: a clock plus a deterministic event queue.
///
/// `E` is the domain event type (the network layer defines its own).
#[derive(Debug)]
pub struct Engine<E> {
    queue: EventQueue<E>,
    now: SimTime,
    processed: u64,
    scheduled: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// A fresh engine at `t = 0` with no pending events.
    pub fn new() -> Self {
        Engine {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
            scheduled: 0,
        }
    }

    /// Current simulated time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events handled so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events ever scheduled (a profiling counter; always ≥
    /// [`Engine::processed`], the difference being cancelled-stale or
    /// still-pending events).
    pub fn scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — scheduling backwards in time is
    /// always a logic error in a discrete-event simulation.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        self.schedule_keyed(at, 0, event);
    }

    /// [`Engine::schedule`] with an explicit same-instant tie key: events
    /// firing at the same instant are handled in ascending `key` order
    /// (then scheduling order), independent of *when* each was scheduled.
    ///
    /// # Panics
    /// Panics if `at` is in the past.
    pub fn schedule_keyed(&mut self, at: SimTime, key: u64, event: E) {
        assert!(
            at >= self.now,
            "scheduled event in the past: at={at:?} now={:?}",
            self.now
        );
        self.scheduled += 1;
        self.queue.push_keyed(at, key, event);
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let ev = self.queue.pop()?;
        debug_assert!(ev.at >= self.now, "event queue went backwards");
        self.now = ev.at;
        self.processed += 1;
        Some((ev.at, ev.event))
    }

    /// Pop the earliest event **iff** it fires at or before `deadline`,
    /// advancing the clock to its timestamp. One queue access per event —
    /// the hot-path replacement for a `peek_time` + `pop` pair.
    pub fn pop_at_or_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        let ev = self.queue.pop_at_or_before(deadline)?;
        debug_assert!(ev.at >= self.now, "event queue went backwards");
        self.now = ev.at;
        self.processed += 1;
        Some((ev.at, ev.event))
    }

    /// Timestamp of the next pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Lookahead into the queue's sorted current run
    /// ([`EventQueue::upcoming`]): a hint at what will pop `k` events from
    /// now, `None` when the run is shorter.
    #[inline]
    pub fn upcoming(&self, k: usize) -> Option<&E> {
        self.queue.upcoming(k)
    }

    /// Start loading the storage of the event `k` pops ahead
    /// ([`EventQueue::prefetch_upcoming`]). Changes nothing.
    #[inline]
    pub fn prefetch_upcoming(&self, k: usize) {
        self.queue.prefetch_upcoming(k);
    }

    /// Audit the event queue's storage invariants (see
    /// [`EventQueue::check_integrity`]) plus the engine-level guarantee
    /// that no pending event predates the clock. Returns a description of
    /// the first inconsistency found; O(queue), so call at audit
    /// granularity, not per event.
    pub fn check_integrity(&self) -> Result<(), String> {
        if let Some(t) = self.queue.peek_time() {
            if t < self.now {
                return Err(format!(
                    "pending event at {t:?} predates the clock ({:?})",
                    self.now
                ));
            }
        }
        self.queue.check_integrity()
    }

    /// Move the clock forward to `t` without processing events.
    ///
    /// # Panics
    /// Panics if an event earlier than `t` is still pending — skipping
    /// events would corrupt the simulation.
    pub fn advance_to(&mut self, t: SimTime) {
        if let Some(next) = self.queue.peek_time() {
            assert!(
                next >= t,
                "advance_to({t:?}) would skip an event at {next:?}"
            );
        }
        self.now = self.now.max(t);
    }

    /// Run the handler over events until the queue drains or the next event
    /// is strictly after `deadline`. The clock never advances past the last
    /// handled event. Returns the number of events handled.
    pub fn run_until(&mut self, deadline: SimTime, mut handler: impl FnMut(&mut Self, E)) -> u64 {
        let start = self.processed;
        while let Some((_, ev)) = self.pop_at_or_before(deadline) {
            handler(self, ev);
        }
        self.processed - start
    }

    /// [`Engine::run_until`] with an event budget: processes at most
    /// `budget` events, and **panics** if the budget is exhausted while
    /// events at or before `deadline` are still pending. A runaway
    /// self-rescheduling loop (an agent arming a zero-delay timer from its
    /// own expiry, say) thus fails loudly with a diagnosable message
    /// instead of hanging the run forever.
    pub fn run_until_budgeted(
        &mut self,
        deadline: SimTime,
        budget: u64,
        mut handler: impl FnMut(&mut Self, E),
    ) -> u64 {
        let start = self.processed;
        while let Some((_, ev)) = self.pop_at_or_before(deadline) {
            handler(self, ev);
            if self.processed - start >= budget {
                if let Some(t) = self.queue.peek_time() {
                    assert!(
                        t > deadline,
                        "event budget of {budget} exhausted at {:?} with events \
                         still pending at {t:?} (deadline {deadline:?}) — \
                         runaway self-rescheduling loop?",
                        self.now
                    );
                }
                break;
            }
        }
        self.processed - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn clock_follows_events() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule(SimTime::from_micros(10), 1);
        e.schedule(SimTime::from_micros(5), 0);
        assert_eq!(e.now(), SimTime::ZERO);
        let (t0, v0) = e.pop().unwrap();
        assert_eq!((t0.as_micros(), v0), (5, 0));
        assert_eq!(e.now().as_micros(), 5);
        let (t1, v1) = e.pop().unwrap();
        assert_eq!((t1.as_micros(), v1), (10, 1));
        assert_eq!(e.processed(), 2);
    }

    #[test]
    #[should_panic(expected = "scheduled event in the past")]
    fn scheduling_in_the_past_panics() {
        let mut e: Engine<()> = Engine::new();
        e.schedule(SimTime::from_micros(10), ());
        e.pop();
        e.schedule(SimTime::from_micros(5), ());
    }

    #[test]
    fn run_until_respects_deadline_and_allows_rescheduling() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule(SimTime::from_micros(1), 0);
        // A self-rescheduling "tick" every microsecond.
        let handled = e.run_until(SimTime::from_micros(10), |eng, n| {
            if n < 100 {
                let next = eng.now() + SimDuration::from_micros(1);
                eng.schedule(next, n + 1);
            }
        });
        assert_eq!(handled, 10); // ticks at t=1..=10 us
        assert_eq!(e.now().as_micros(), 10);
        assert_eq!(e.pending(), 1); // the t=11us tick stayed queued
    }

    #[test]
    fn pop_at_or_before_gates_on_deadline() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule(SimTime::from_micros(10), 1);
        assert_eq!(e.pop_at_or_before(SimTime::from_micros(5)), None);
        assert_eq!(e.now(), SimTime::ZERO); // clock untouched on refusal
        assert_eq!(
            e.pop_at_or_before(SimTime::from_micros(10)),
            Some((SimTime::from_micros(10), 1))
        );
        assert_eq!(e.now().as_micros(), 10);
    }

    #[test]
    fn budgeted_run_completes_within_budget() {
        let mut e: Engine<u32> = Engine::new();
        for i in 0..5 {
            e.schedule(SimTime::from_micros(i), i as u32);
        }
        let n = e.run_until_budgeted(SimTime::from_secs(1), 100, |_, _| {});
        assert_eq!(n, 5);
    }

    #[test]
    #[should_panic(expected = "runaway self-rescheduling loop")]
    fn budgeted_run_fails_loudly_on_runaway() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule(SimTime::ZERO, 0);
        // A pathological agent: re-arms itself at the same instant forever.
        e.run_until_budgeted(SimTime::from_secs(1), 1_000, |eng, n| {
            eng.schedule(eng.now(), n + 1);
        });
    }

    #[test]
    fn run_until_drains_empty_queue() {
        let mut e: Engine<()> = Engine::new();
        assert_eq!(e.run_until(SimTime::from_secs(1), |_, _| {}), 0);
    }

    #[test]
    fn advance_to_moves_clock_forward_only() {
        let mut e: Engine<()> = Engine::new();
        e.advance_to(SimTime::from_millis(5));
        assert_eq!(e.now(), SimTime::from_millis(5));
        // Backwards is a no-op, not an error.
        e.advance_to(SimTime::from_millis(1));
        assert_eq!(e.now(), SimTime::from_millis(5));
    }

    #[test]
    #[should_panic(expected = "would skip an event")]
    fn advance_to_cannot_skip_events() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule(SimTime::from_millis(2), 1);
        e.advance_to(SimTime::from_millis(3));
    }

    #[test]
    fn advance_to_exact_event_time_is_allowed() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule(SimTime::from_millis(2), 1);
        e.advance_to(SimTime::from_millis(2));
        assert_eq!(e.now(), SimTime::from_millis(2));
        assert_eq!(e.pop().unwrap().0, SimTime::from_millis(2));
    }
}
