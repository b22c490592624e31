//! Full-duplex links with store-and-forward serialization.
//!
//! A link is two independent **directions**. Each direction has its own
//! queue discipline, serialization state and statistics. A packet offered to
//! a direction is (a) possibly dropped by fault injection, (b) classified by
//! the qdisc (which may mark or drop) against the current backlog, then
//! (c) booked a `(start, depart)` transmission window — service is FIFO
//! and non-preemptive, so the window is fully determined on arrival — and
//! delivered `prop_delay` after `depart`. The packet itself rides in its
//! `Deliver` event; the direction only keeps the windows (DESIGN.md §10).

use crate::node::{NodeId, PortId};
use crate::packet::Packet;
use crate::queue::{EnqueueOutcome, Qdisc, QdiscConfig, QdiscKind};
use crate::stats::DirStats;
use std::collections::VecDeque;
use std::fmt;
use xmp_des::{Bandwidth, SimDuration, SimRng, SimTime};

/// Index of a link in the simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

impl fmt::Debug for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// Random fault injection on a link direction (smoltcp-style `--drop-chance`
/// and `--corrupt-chance`).
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultConfig {
    /// Probability that an arriving packet is silently dropped.
    pub drop_prob: f64,
    /// Probability that a packet is corrupted in transit and discarded by
    /// the receiving end (after spending its full serialization and
    /// propagation time on the wire).
    pub corrupt_prob: f64,
}

/// Parameters for creating a link. Both directions share them.
#[derive(Clone, Debug)]
pub struct LinkParams {
    /// Serialization rate.
    pub bandwidth: Bandwidth,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Queue discipline for each direction.
    pub queue: QdiscConfig,
    /// Optional fault injection.
    pub fault: FaultConfig,
}

impl LinkParams {
    /// A link with the given rate/delay and a queue config, no faults.
    pub fn new(bandwidth: Bandwidth, delay: SimDuration, queue: QdiscConfig) -> Self {
        LinkParams {
            bandwidth,
            delay,
            queue,
            fault: FaultConfig::default(),
        }
    }

    /// Add random drops with the given probability.
    pub fn with_drop_prob(mut self, p: f64) -> Self {
        self.fault.drop_prob = p;
        self
    }
}

/// One direction of a link.
///
/// Two directions are touched per packet-hop — the one the packet arrives
/// over and the one it leaves by — and a k = 16 fat tree has 6 144 of them,
/// far more than a cache holds: the first touch of each is a memory stall.
/// The fields are therefore laid out (`repr(C)`, line-aligned) by who
/// touches them together, not by topic (DESIGN.md §13.4;
/// `tests::direction_fields_sit_on_their_cache_lines` pins every offset):
///
/// | line | bytes | what | touched by |
/// |---|---|---|---|
/// | 0 | 0–63 | `in_network`, `faults`, `to_node`, `fail_gen`, `to_port`, `down`, `listed`, `busy_until`, `stats.delivered{,_bytes}` | **rx** (`on_deliver`: nothing else), tx, fluid |
/// | 1 | 64–127 | `stats.{enqueued, marked, max_depth, depth_weighted_ns, last_sample}`, depth band 0 | tx |
/// | 2 | 128–191 | depth bands 1–8 | tx |
/// | 3 | 192–255 | depth band 9, drop/fault/corrupt/blackhole counters, `fluid_{rate, backlog, bytes_out}` | fluid; rare events |
/// | 4 | 256–319 | `fluid_asof`, the `pending` ring's header, the qdisc's `cap`/`k` | tx, fluid |
/// | 5 | 320–383 | rest of the qdisc (its standalone ring; RED's `mode` and state box) | RED |
///
/// What only faults and RED use lives behind boxes: a direction without
/// faults carries a null `faults` pointer, and a RED qdisc's mutable state
/// is one allocation of its own (DESIGN.md §13.5).
#[repr(C, align(64))]
pub struct Direction<P> {
    /// Conservation audit: packets accepted by this direction whose
    /// `Deliver` has not yet been processed (negative would mean a packet
    /// was double-counted — asserted by `Sim::audit_conservation`).
    pub(crate) in_network: i64,
    /// Fault injection, boxed the first time a probability is set nonzero
    /// ([`Direction::set_fault`]); `None` means neither kind of fault.
    pub(crate) faults: Option<Box<DirFaults>>,
    /// Unused. Holds `stats` at byte 48, where the table above puts it.
    _spare: u64,
    /// Node the direction delivers to.
    pub to_node: NodeId,
    /// Bumped on every `LinkDown`; `Deliver` events carry the generation
    /// they were scheduled under, so events belonging to packets purged by
    /// a failure are recognized as stale.
    pub(crate) fail_gen: u32,
    /// Port on `to_node` the packet arrives on.
    pub to_port: PortId,
    /// The direction is failed: everything offered is blackholed.
    pub(crate) down: bool,
    /// Whether this direction is on the sim's busy list (directions whose
    /// departures the run-window sweep still has to retire).
    pub(crate) listed: bool,
    /// When the port frees up. Serialization is FIFO and non-preemptive,
    /// so a packet accepted at `now` starts transmitting at
    /// `busy_until.max(now)` — its departure is fully determined at enqueue.
    pub(crate) busy_until: SimTime,
    /// Per-direction counters. [`DirStats`] orders its own fields to
    /// continue this layout: delivery counters first.
    pub stats: DirStats,
    /// Hybrid mode: aggregate registered fluid inflow (bytes/s). Updated by
    /// [`crate::fluid::FluidState`] ticks; always 0.0 when hybrid is off.
    pub(crate) fluid_rate: f64,
    /// Hybrid mode: analytic fluid backlog (bytes) as of [`Self::fluid_asof`].
    pub(crate) fluid_backlog: f64,
    /// Hybrid mode: cumulative fluid bytes served by this direction.
    pub(crate) fluid_bytes_out: f64,
    /// Hybrid mode: instant `fluid_backlog`/`fluid_bytes_out` are valid at.
    pub(crate) fluid_asof: SimTime,
    /// `(start, depart)` per accepted packet that has not left the port
    /// yet, in departure order. The front entry with `start <= now` is the
    /// one "on the wire"; later entries are the waiting backlog. `depart`
    /// says when an entry retires; `start` is what tells serializing from
    /// waiting when a fluid backlog (hybrid mode) floors the start time
    /// past the previous departure and leaves the port idle in between.
    pub(crate) pending: VecDeque<(SimTime, SimTime)>,
    /// The mark/drop rule and buffer size. Statically dispatched for the
    /// in-tree disciplines; see [`QdiscKind`]. It decides, it does not
    /// store: no packet is ever buffered in it.
    pub queue: QdiscKind<P>,
}

/// A direction's fault state: its probabilities and the two streams they
/// draw from.
pub(crate) struct DirFaults {
    cfg: FaultConfig,
    drop_rng: SimRng,
    /// Separate stream for corruption draws so enabling one fault kind
    /// never perturbs the other's sequence.
    corrupt_rng: SimRng,
}

impl DirFaults {
    /// The fault-drop draw for a packet offered to the direction.
    pub(crate) fn drops(&mut self) -> bool {
        self.drop_rng.chance(self.cfg.drop_prob)
    }

    /// The corruption draw for a packet delivered over the direction.
    pub(crate) fn corrupts(&mut self) -> bool {
        self.corrupt_rng.chance(self.cfg.corrupt_prob)
    }
}

/// What a direction did with an offered packet ([`Direction::offer`]).
/// `waiting` is the backlog the qdisc classified the packet against (fluid
/// occupancy included in hybrid mode).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Offer {
    /// The direction is down: counted, no RNG consumed.
    Blackholed,
    /// Lost to the fault-injection drop draw, before the qdisc saw it.
    FaultDropped,
    /// Rejected by the qdisc (overflow or early drop).
    Dropped {
        /// Waiting packets on arrival.
        waiting: usize,
    },
    /// Accepted: the packet leaves the port at `depart`.
    Accepted {
        /// Whether the qdisc CE-marked it.
        marked: bool,
        /// Waiting packets on arrival.
        waiting: usize,
        /// End of its booked transmission window.
        depart: SimTime,
    },
}

impl<P: Send> Direction<P> {
    /// The link pipeline for one packet arriving at `now`: the blackhole
    /// check, the fault draw, the qdisc's mark/drop decision against the
    /// current backlog, and — service being FIFO and non-preemptive — the
    /// packet's whole `(start, depart)` transmission window, booked right
    /// here. The caller schedules the arrival at the far end from the
    /// returned `depart`; nothing else ever has to happen for this packet
    /// on this port. Updates the direction's own counters and backlog
    /// samples; `hybrid` couples in the fluid plane's occupancy.
    pub(crate) fn offer(
        &mut self,
        now: SimTime,
        bandwidth: Bandwidth,
        hybrid: bool,
        pkt: &mut Packet<P>,
    ) -> Offer {
        if self.down {
            // Failed link: blackhole without consuming any RNG stream, so
            // a failure window never perturbs draws made after repair.
            self.stats.blackholed += 1;
            return Offer::Blackholed;
        }
        // Same-instant rule: a departure at exactly `now` is not retired
        // yet, so this arrival still counts that packet as on the wire.
        self.retire_before(now);
        if self.faults.as_mut().is_some_and(|f| f.drops()) {
            self.stats.fault_dropped += 1;
            return Offer::FaultDropped;
        }
        // Hybrid coupling: fluid elephants occupy this direction too.
        // Their analytic backlog (a) inflates the waiting count the
        // qdisc classifies against — mice see elephant-built queues in
        // ECN marking and drop decisions — and (b) delays this
        // packet's transmission start by the time the port needs to
        // work the fluid backlog off. Expressing (b) as a *floor on
        // the start time* (rather than adding it to every depart)
        // keeps `busy_until` monotone and avoids double-counting the
        // same fluid bytes across consecutive packets.
        let (fluid_pkts, fluid_delay) = if hybrid {
            let cap = bandwidth.as_bps() as f64 / 8.0;
            let max_b = self.queue.capacity() as f64 * crate::fluid::REF_PKT_BYTES;
            self.fluid_advance(now, cap, max_b);
            if self.fluid_backlog > 0.0 {
                (
                    (self.fluid_backlog / crate::fluid::REF_PKT_BYTES).round() as usize,
                    SimDuration::from_secs_f64(self.fluid_backlog / cap),
                )
            } else {
                (0, SimDuration::ZERO)
            }
        } else {
            (0, SimDuration::ZERO)
        };
        let waiting = self.waiting(now) + fluid_pkts;
        let outcome = self.queue.classify(waiting, pkt);
        if outcome == EnqueueOutcome::Dropped {
            self.stats.dropped += 1;
            return Offer::Dropped { waiting };
        }
        let marked = outcome == EnqueueOutcome::EnqueuedMarked;
        self.stats.enqueued += 1;
        self.stats.marked += u64::from(marked);
        self.in_network += 1;
        let start = self.busy_until.max(now + fluid_delay);
        let depart = start + bandwidth.transmission_time(pkt.size);
        self.busy_until = depart;
        self.pending.push_back((start, depart));
        self.stats.observe_backlog(now, self.pending.len());
        Offer::Accepted {
            marked,
            waiting,
            depart,
        }
    }

    /// Hint the CPU that this direction is about to receive a packet:
    /// start loading the one cache line `on_deliver` works on (line 0 of
    /// the layout above). The run loop calls it one event ahead.
    #[inline]
    pub(crate) fn prefetch_rx(&self) {
        xmp_des::hint::prefetch_read(&self.in_network);
    }

    /// Packets queued or serializing, as of the last retired departure
    /// (exact at run-window boundaries and probe ticks).
    pub fn backlog(&self) -> usize {
        self.pending.len()
    }

    /// Whether the direction is currently failed (see
    /// [`FaultPlan`](crate::FaultPlan)).
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// The direction's fault probabilities; all zero until one is set.
    pub(crate) fn fault(&self) -> FaultConfig {
        self.faults
            .as_ref()
            .map_or_else(FaultConfig::default, |f| f.cfg)
    }

    /// Change the fault probabilities of direction `dir` of link `link`
    /// through `set`, drawing its streams from `root` (the fabric's).
    ///
    /// The state is boxed the first time a probability becomes nonzero and
    /// kept from then on. Nothing is drawn before that, and
    /// [`SimRng::derive`] is a pure function of the root's seed and the
    /// salt, so the streams start exactly where streams built with the link
    /// would stand; once boxed, zeroing a probability and raising it again
    /// continues the same stream.
    pub(crate) fn set_fault(
        &mut self,
        root: &SimRng,
        link: u32,
        dir: usize,
        set: impl FnOnce(&mut FaultConfig),
    ) {
        let mut cfg = self.fault();
        set(&mut cfg);
        match &mut self.faults {
            Some(f) => f.cfg = cfg,
            None if cfg.drop_prob > 0.0 || cfg.corrupt_prob > 0.0 => {
                // The corruption stream's salt has bit 32 set as well.
                let salt = u64::from(link) << 1 | dir as u64;
                self.faults = Some(Box::new(DirFaults {
                    cfg,
                    drop_rng: root.derive(salt),
                    corrupt_rng: root.derive(1 << 32 | salt),
                }));
            }
            None => {}
        }
    }

    /// Retire every front entry whose departure `due` accepts, recording
    /// the backlog sample at the instant it left the port.
    fn retire_while(&mut self, due: impl Fn(SimTime) -> bool) {
        while let Some(&(_, depart)) = self.pending.front() {
            if !due(depart) {
                break;
            }
            self.pending.pop_front();
            self.stats.observe_backlog(depart, self.pending.len());
        }
    }

    /// Retire entries that departed strictly before `now` — the
    /// same-instant rule: an arrival at `t` is classified *before* a
    /// departure at `t` is retired, so it still sees that packet.
    pub(crate) fn retire_before(&mut self, now: SimTime) {
        self.retire_while(|depart| depart < now);
    }

    /// Retire entries with `depart <= t` — used when a run window closes
    /// at `t` (and by probe ticks, which rank last at their instant):
    /// whatever the driver does next at `t` happens after every departure
    /// at `t`.
    pub(crate) fn retire_through(&mut self, t: SimTime) {
        self.retire_while(|depart| depart <= t);
    }

    /// Waiting backlog at `now` (excluding the packet on the wire), after
    /// [`Self::retire_before`]. The front entry has started whenever
    /// `start <= now`.
    pub(crate) fn waiting(&self, now: SimTime) -> usize {
        match self.pending.front() {
            Some(&(start, _)) if start <= now => {
                // Teardown clears `pending` and nothing is booked while
                // down: an entry here is a window that outlived its link
                // (and would silently skew ECN marking decisions).
                debug_assert!(!self.down, "backlog consulted on a downed direction");
                self.pending.len() - 1
            }
            _ => self.pending.len(),
        }
    }

    /// Hybrid mode: integrate the fluid backlog forward to `now` under the
    /// registered inflow rate against service capacity `cap_bytes_per_sec`,
    /// clamping at `max_backlog_bytes` (the qdisc buffer expressed in
    /// bytes — fluid overflow is "lost" analytically, exactly like a
    /// packet-mode tail drop). Served bytes accumulate in
    /// `fluid_bytes_out`. A downed direction blackholes fluid traffic: the
    /// backlog is zeroed and nothing is served.
    ///
    /// Piecewise-constant rates make this exact (not an approximation):
    /// rates only change at fluid tick events, and every tick advances the
    /// hops it touches first.
    pub(crate) fn fluid_advance(
        &mut self,
        now: SimTime,
        cap_bytes_per_sec: f64,
        max_backlog_bytes: f64,
    ) {
        let dt = now.duration_since(self.fluid_asof).as_secs_f64();
        self.fluid_asof = now;
        if dt <= 0.0 {
            return;
        }
        if self.down {
            self.fluid_backlog = 0.0;
            return;
        }
        let inflow = self.fluid_rate * dt;
        // Service: the direction works off backlog + inflow at `cap`, but
        // can never serve more than arrived (idle when the backlog is dry
        // and inflow is below capacity).
        let servable = self.fluid_backlog + inflow;
        let served = servable.min(cap_bytes_per_sec * dt);
        self.fluid_bytes_out += served;
        self.fluid_backlog = (servable - served).min(max_backlog_bytes);
    }
}

impl<P: Send> fmt::Debug for Direction<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Direction")
            .field("to_node", &self.to_node)
            .field("backlog", &self.pending.len())
            .field("busy_until", &self.busy_until)
            .finish()
    }
}

/// A full-duplex link: `dirs[0]` carries a→b, `dirs[1]` carries b→a.
pub struct Link<P> {
    /// Serialization rate (both directions).
    pub bandwidth: Bandwidth,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// The two directions.
    pub dirs: [Direction<P>; 2],
    /// Optional label from the topology builder (e.g. `"L3"`).
    pub label: String,
}

impl<P> Link<P> {
    pub(crate) fn new(
        params: &LinkParams,
        a: (NodeId, PortId),
        b: (NodeId, PortId),
        rng: &SimRng,
        link_index: u32,
        label: String,
    ) -> Self
    where
        P: Send + 'static,
    {
        let mk_dir = |to: (NodeId, PortId), dir: usize| {
            let mut d = Direction {
                to_node: to.0,
                to_port: to.1,
                queue: params.queue.build(),
                stats: DirStats::default(),
                faults: None,
                _spare: 0,
                down: false,
                fail_gen: 0,
                in_network: 0,
                busy_until: SimTime::ZERO,
                pending: VecDeque::new(),
                listed: false,
                fluid_rate: 0.0,
                fluid_backlog: 0.0,
                fluid_bytes_out: 0.0,
                fluid_asof: SimTime::ZERO,
            };
            d.set_fault(rng, link_index, dir, |f| *f = params.fault);
            d
        };
        Link {
            bandwidth: params.bandwidth,
            delay: params.delay,
            dirs: [mk_dir(b, 0), mk_dir(a, 1)],
            label,
        }
    }

    /// Convenience accessor.
    pub fn dir(&self, d: u8) -> &Direction<P> {
        &self.dirs[d as usize]
    }

    /// Mutable accessor.
    pub fn dir_mut(&mut self, d: u8) -> &mut Direction<P> {
        &mut self.dirs[d as usize]
    }
}

impl<P> fmt::Debug for Link<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Link")
            .field("bandwidth", &self.bandwidth)
            .field("delay", &self.delay)
            .field("label", &self.label)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;
    use crate::packet::{Ecn, FlowId};
    use crate::queue::RedMode;
    use xmp_des::ByteSize;

    /// Reference model of one output port, written the obvious way: an
    /// explicit FIFO of packets behind the one on the wire, and a `TxDone`
    /// per packet that records its departure and moves the next packet
    /// onto the wire. This is the two-event port the engine ran before it
    /// booked `(start, depart)` windows on arrival; it stays here as the
    /// oracle [`Direction::offer`] is checked against.
    struct RefPort {
        queue: QdiscKind<u64>,
        bandwidth: Bandwidth,
        /// `(packet id, TxDone time)` of the packet being serialized.
        on_wire: Option<(u64, SimTime)>,
        stats: DirStats,
        departs: Vec<(u64, SimTime)>,
        /// Arrivals that landed on the exact instant of a `TxDone`.
        ties: u32,
    }

    impl RefPort {
        fn depth(&self) -> usize {
            self.queue.len() + usize::from(self.on_wire.is_some())
        }

        fn tx_done(&mut self) {
            let (id, at) = self.on_wire.take().expect("TxDone with an idle port");
            self.departs.push((id, at));
            if let Some(next) = self.queue.dequeue() {
                let done = at + self.bandwidth.transmission_time(next.size);
                self.on_wire = Some((next.payload, done));
            }
            self.stats.observe_backlog(at, self.depth());
        }

        /// Process every `TxDone` due strictly before `t` (or at `t` too,
        /// when a run window closes there).
        fn run_to(&mut self, t: SimTime, inclusive: bool) {
            while let Some((_, done)) = self.on_wire {
                if done > t || (done == t && !inclusive) {
                    break;
                }
                self.tx_done();
            }
        }

        /// A packet arrives at `now`: same-instant arrivals go before the
        /// `TxDone` of that instant.
        fn arrive(&mut self, now: SimTime, pkt: Packet<u64>) -> (EnqueueOutcome, usize) {
            self.run_to(now, false);
            self.ties += u32::from(self.on_wire.is_some_and(|(_, done)| done == now));
            let waiting = self.queue.len();
            let outcome = self.queue.enqueue(pkt);
            match outcome {
                EnqueueOutcome::Dropped => self.stats.dropped += 1,
                _ => {
                    self.stats.enqueued += 1;
                    self.stats.marked += u64::from(outcome == EnqueueOutcome::EnqueuedMarked);
                    if self.on_wire.is_none() {
                        let next = self.queue.dequeue().expect("just enqueued");
                        let done = now + self.bandwidth.transmission_time(next.size);
                        self.on_wire = Some((next.payload, done));
                    }
                    self.stats.observe_backlog(now, self.depth());
                }
            }
            (outcome, waiting)
        }
    }

    /// The layout table in [`Direction`]'s docs, as arithmetic: which
    /// 64-byte line each field the receive path, the transmit path and a
    /// fluid tick touch lives on. `Direction<u64>` and `Direction<Segment>`
    /// lay out alike — `P` only appears behind the qdisc ring's pointer.
    #[test]
    fn direction_fields_sit_on_their_cache_lines() {
        use std::mem::{align_of, offset_of, size_of};
        type D = Direction<u64>;
        assert_eq!(align_of::<D>(), 64);
        assert!(
            size_of::<D>() <= 384,
            "Direction<u64> is {} B",
            size_of::<D>()
        );
        assert!(
            size_of::<Link<u64>>() <= 832,
            "Link<u64> is {} B",
            size_of::<Link<u64>>()
        );
        assert_eq!(size_of::<Link<u64>>() % 64, 0);

        let stats = offset_of!(D, stats);
        macro_rules! line_of {
            (stats.$f:ident) => {
                (stats + offset_of!(DirStats, $f)) / 64
            };
            ($f:ident) => {
                offset_of!(D, $f) / 64
            };
        }
        let band = |b: usize| (stats + offset_of!(DirStats, depth_hist_ns) + 8 * b) / 64;
        // The end of a field's last byte is on the same line as its start.
        let whole = |off: usize, len: usize| off / 64 == (off + len - 1) / 64;

        // rx: everything `on_deliver` reads or writes on the ingress
        // direction is line 0 — what `prefetch_rx` asks for.
        assert_eq!(offset_of!(D, in_network), 0);
        assert_eq!(line_of!(fail_gen), 0);
        assert_eq!(line_of!(faults), 0);
        assert!(whole(
            offset_of!(D, faults),
            size_of::<Option<Box<DirFaults>>>()
        ));
        assert_eq!(stats, 48, "DirStats is laid out to start at byte 48");
        assert_eq!(line_of!(to_node), 0);
        assert_eq!(line_of!(to_port), 0);
        assert_eq!(line_of!(stats.delivered), 0);
        assert_eq!(line_of!(stats.delivered_bytes), 0);

        // tx: `offer` and the retire loop stay on lines 0, 1, 2 and 4 (plus
        // the ring's heap line) while the backlog is under 256 packets.
        assert_eq!(line_of!(down), 0);
        assert_eq!(line_of!(listed), 0);
        assert_eq!(line_of!(busy_until), 0);
        assert_eq!(line_of!(stats.enqueued), 1);
        assert_eq!(line_of!(stats.marked), 1);
        assert_eq!(line_of!(stats.max_depth), 1);
        assert_eq!(line_of!(stats.depth_weighted_ns), 1);
        assert_eq!(line_of!(stats.last_sample), 1);
        assert!(whole(
            stats + offset_of!(DirStats, last_sample),
            size_of::<Option<(SimTime, usize)>>()
        ));
        assert_eq!(band(0), 1);
        assert_eq!((band(1), band(8)), (2, 2));
        assert_eq!(line_of!(pending), 4);
        assert!(whole(
            offset_of!(D, pending),
            size_of::<VecDeque<(SimTime, SimTime)>>()
        ));
        assert_eq!(line_of!(queue), 4);
        assert!(whole(offset_of!(D, queue), crate::queue::RULE_SPAN));

        // Fluid tick: `down`, the four fluid fields, the qdisc's capacity
        // and the ring's front — lines 0, 3 and 4.
        assert_eq!(line_of!(fluid_rate), 3);
        assert_eq!(line_of!(fluid_backlog), 3);
        assert_eq!(line_of!(fluid_bytes_out), 3);
        assert_eq!(line_of!(fluid_asof), 4);

        // Cold: rare-event counters and the deepest band share line 3.
        assert_eq!(band(9), 3);
        assert_eq!(line_of!(stats.dropped), 3);
        assert_eq!(line_of!(stats.fault_dropped), 3);
        assert_eq!(line_of!(stats.corrupted), 3);
        assert_eq!(line_of!(stats.blackholed), 3);
    }

    /// Seeded arrival sequences — back-to-back bursts, gaps of exactly one
    /// transmission time (arrivals tying with departures), idle periods,
    /// mixed sizes and ECN codepoints — through [`Direction::offer`] and
    /// the reference port: same mark/drop outcome and backlog per packet,
    /// same backlog samples after every arrival, same departure times.
    #[test]
    fn offer_matches_the_two_event_reference_port() {
        let bandwidth = Bandwidth::from_gbps(1);
        let red = |mode| QdiscConfig::Red {
            cap: 16,
            wq: 0.5,
            min_th: 2.0,
            max_th: 10.0,
            max_p: 0.5,
            mode,
            seed: 77,
        };
        let configs = [
            QdiscConfig::DropTail { cap: 8 },
            QdiscConfig::EcnThreshold { cap: 16, k: 4 },
            red(RedMode::Mark),
            red(RedMode::Drop),
        ];
        let sizes = [1500u64, 700, 40];
        for qcfg in configs {
            let (mut ties, mut drops, mut marks) = (0, 0, 0);
            for seed in 0..60u64 {
                let params = LinkParams::new(bandwidth, SimDuration::from_micros(20), qcfg.clone());
                let [mut d, _] = Link::<u64>::new(
                    &params,
                    (NodeId(0), PortId(0)),
                    (NodeId(1), PortId(0)),
                    &SimRng::new(seed),
                    0,
                    String::new(),
                )
                .dirs;
                let mut r = RefPort {
                    queue: qcfg.build(),
                    bandwidth,
                    on_wire: None,
                    stats: DirStats::default(),
                    departs: Vec::new(),
                    ties: 0,
                };
                let mut departs = Vec::new();
                let mut rng = SimRng::new(seed ^ 0x0FFE);
                let mut now = SimTime::ZERO;
                for id in 0..300u64 {
                    let size = ByteSize::from_bytes(sizes[rng.index(sizes.len())]);
                    let full = bandwidth.transmission_time(ByteSize::from_bytes(1500));
                    now += match rng.index(6) {
                        0 | 1 => SimDuration::ZERO,
                        2 => bandwidth.transmission_time(size),
                        3 => full,
                        4 => SimDuration::from_nanos(rng.uniform_u64(0, 2 * full.as_nanos())),
                        _ => SimDuration::from_nanos(12 * full.as_nanos()),
                    };
                    let ecn = if rng.chance(0.8) {
                        Ecn::Ect
                    } else {
                        Ecn::NotEct
                    };
                    let mut pkt = Packet::new(
                        Addr::new(10, 0, 0, 1),
                        Addr::new(10, 0, 0, 2),
                        FlowId(1),
                        ecn,
                        size,
                        id,
                    );
                    let (want, want_waiting) = r.arrive(now, pkt.clone());
                    let got = match d.offer(now, bandwidth, false, &mut pkt) {
                        Offer::Dropped { waiting } => (EnqueueOutcome::Dropped, waiting),
                        Offer::Accepted {
                            marked,
                            waiting,
                            depart,
                        } => {
                            departs.push((id, depart));
                            assert_eq!(marked, pkt.ecn == Ecn::Ce, "CE bit follows the mark");
                            if marked {
                                (EnqueueOutcome::EnqueuedMarked, waiting)
                            } else {
                                (EnqueueOutcome::Enqueued, waiting)
                            }
                        }
                        other => panic!("no faults configured, got {other:?}"),
                    };
                    assert_eq!(got, (want, want_waiting), "seed {seed} packet {id}");
                    assert_eq!(d.backlog(), r.depth(), "seed {seed} packet {id}: depth");
                    assert_eq!(
                        format!("{:?}", d.stats),
                        format!("{:?}", r.stats),
                        "seed {seed} packet {id}: backlog samples"
                    );
                }
                // Close the run window: everything still queued departs.
                let end = now + SimDuration::from_millis(10);
                r.run_to(end, true);
                d.retire_through(end);
                assert_eq!(departs, r.departs, "seed {seed}: departure times");
                assert_eq!(
                    format!("{:?}", d.stats),
                    format!("{:?}", r.stats),
                    "seed {seed}: final backlog samples"
                );
                assert_eq!(d.backlog(), 0);
                ties += r.ties;
                drops += r.stats.dropped;
                marks += r.stats.marked;
            }
            // The sequences reach the cases that matter.
            assert!(ties > 0, "{qcfg:?}: no arrival tied with a departure");
            assert!(drops > 0, "{qcfg:?}: nothing was dropped");
            let marks_expected = !matches!(
                qcfg,
                QdiscConfig::DropTail { .. }
                    | QdiscConfig::Red {
                        mode: RedMode::Drop,
                        ..
                    }
            );
            assert_eq!(marks > 0, marks_expected, "{qcfg:?}: marks");
        }
    }
}
