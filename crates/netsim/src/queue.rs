//! Queue disciplines for switch output ports.
//!
//! Three disciplines are provided:
//!
//! * [`DropTail`] — classic FIFO, drop on overflow.
//! * [`EcnThreshold`] — the paper's packet-marking rule (BOS rule 1 /
//!   DCTCP-style): an arriving ECT packet is CE-marked when the
//!   *instantaneous* queue length is at least `K` packets; non-ECT packets
//!   are only dropped on overflow. This is also what the paper configures on
//!   real RED switches via `Wq = 1`, `min = max = K`.
//! * [`Red`] — Random Early Detection with EWMA average-queue estimation and
//!   the count-based probability spreading of Floyd & Jacobson, in either
//!   marking or dropping mode. Included both as the Internet-style baseline
//!   the paper argues against (Section 2.1) and to verify the degenerate
//!   configuration equals [`EcnThreshold`].
//!
//! All capacities and thresholds are counted in **packets**, as in the paper
//! ("we set K to 15 and the queue size to 100 packets").

use crate::packet::Packet;
use std::collections::VecDeque;
use xmp_des::SimRng;

/// Result of offering a packet to a queue discipline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// Packet accepted unchanged.
    Enqueued,
    /// Packet accepted and CE-marked (ECT packets only).
    EnqueuedMarked,
    /// Packet rejected (buffer overflow or early drop).
    Dropped,
}

/// A queue discipline: the mark/drop rule of a FIFO output port.
///
/// The simulator asks it two things — [`Qdisc::classify`] for a packet
/// arriving to a given backlog, and [`Qdisc::capacity`] — and keeps the
/// queue itself as booked transmission windows on the link direction
/// (queued packets ride in their `Deliver` events), so a discipline in a
/// running [`Sim`](crate::Sim) never holds a packet.
///
/// `enqueue` / `dequeue` / `len` are the same rule driven standalone, as a
/// real FIFO over a buffer that grows on demand: `enqueue` behaves exactly
/// like `classify(self.len(), ..)` followed by a push when accepted. The
/// engine does not call them.
pub trait Qdisc<P>: Send {
    /// Decide the outcome for a packet arriving to `backlog` waiting
    /// packets, mutating the packet (CE marking) and any internal signal
    /// state (EWMA, RNG) — but without buffering the packet.
    fn classify(&mut self, backlog: usize, pkt: &mut Packet<P>) -> EnqueueOutcome;
    /// Buffer capacity in packets.
    fn capacity(&self) -> usize;
    /// Standalone form: offer a packet; the discipline may mark, enqueue
    /// or drop it.
    fn enqueue(&mut self, pkt: Packet<P>) -> EnqueueOutcome;
    /// Standalone form: take the next packet for transmission.
    fn dequeue(&mut self) -> Option<Packet<P>>;
    /// Standalone form: packets currently buffered.
    fn len(&self) -> usize;
    /// Standalone form: whether nothing is buffered.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Declarative queue configuration, turned into a [`QdiscKind`] per port.
#[derive(Clone, Debug)]
pub enum QdiscConfig {
    /// FIFO with the given capacity (packets).
    DropTail {
        /// Buffer capacity in packets.
        cap: usize,
    },
    /// Instantaneous-threshold ECN marking (the paper's rule).
    EcnThreshold {
        /// Buffer capacity in packets.
        cap: usize,
        /// Marking threshold K in packets.
        k: usize,
    },
    /// Classic RED.
    Red {
        /// Buffer capacity in packets.
        cap: usize,
        /// EWMA weight Wq in (0, 1].
        wq: f64,
        /// Lower threshold (packets).
        min_th: f64,
        /// Upper threshold (packets).
        max_th: f64,
        /// Max marking probability at `max_th`.
        max_p: f64,
        /// Mark ECT packets or drop.
        mode: RedMode,
        /// RNG seed for the probabilistic decisions.
        seed: u64,
    },
}

impl QdiscConfig {
    /// Materialize the configuration as a statically dispatched
    /// [`QdiscKind`].
    pub fn build<P: Send + 'static>(&self) -> QdiscKind<P> {
        match *self {
            QdiscConfig::DropTail { cap } => QdiscKind::DropTail(DropTail::new(cap)),
            QdiscConfig::EcnThreshold { cap, k } => {
                QdiscKind::EcnThreshold(EcnThreshold::new(cap, k))
            }
            QdiscConfig::Red {
                cap,
                wq,
                min_th,
                max_th,
                max_p,
                mode,
                seed,
            } => QdiscKind::Red(Red::new(cap, wq, min_th, max_th, max_p, mode, seed)),
        }
    }
}

/// The closed set of in-tree queue disciplines, dispatched by `match`
/// instead of through a vtable — every per-packet `classify` on the hot
/// path monomorphizes to direct calls. A new discipline is a new variant
/// (plus its [`QdiscConfig`] arm and its [`QdiscKind::fluid_signal`] ramp).
pub enum QdiscKind<P> {
    /// FIFO, drop on overflow.
    DropTail(DropTail<P>),
    /// Instantaneous-threshold ECN marking (the paper's rule).
    EcnThreshold(EcnThreshold<P>),
    /// Classic RED.
    Red(Red<P>),
}

impl<P: Send> Qdisc<P> for QdiscKind<P> {
    fn enqueue(&mut self, pkt: Packet<P>) -> EnqueueOutcome {
        match self {
            QdiscKind::DropTail(q) => q.enqueue(pkt),
            QdiscKind::EcnThreshold(q) => q.enqueue(pkt),
            QdiscKind::Red(q) => q.enqueue(pkt),
        }
    }

    fn classify(&mut self, backlog: usize, pkt: &mut Packet<P>) -> EnqueueOutcome {
        match self {
            QdiscKind::DropTail(q) => q.classify(backlog, pkt),
            QdiscKind::EcnThreshold(q) => q.classify(backlog, pkt),
            QdiscKind::Red(q) => q.classify(backlog, pkt),
        }
    }

    fn dequeue(&mut self) -> Option<Packet<P>> {
        match self {
            QdiscKind::DropTail(q) => q.dequeue(),
            QdiscKind::EcnThreshold(q) => q.dequeue(),
            QdiscKind::Red(q) => q.dequeue(),
        }
    }

    fn len(&self) -> usize {
        match self {
            QdiscKind::DropTail(q) => q.len(),
            QdiscKind::EcnThreshold(q) => q.len(),
            QdiscKind::Red(q) => q.len(),
        }
    }

    fn capacity(&self) -> usize {
        match self {
            QdiscKind::DropTail(q) => q.capacity(),
            QdiscKind::EcnThreshold(q) => q.capacity(),
            QdiscKind::Red(q) => q.capacity(),
        }
    }
}

impl<P: Send> QdiscKind<P> {
    /// Per-packet mark/loss probabilities a fluid flow sees at backlog
    /// `backlog_pkts` (`SimTuning::hybrid`). Packet-mode disciplines make
    /// *deterministic* per-packet decisions; the fluid model needs a
    /// probability, so each discipline exposes a smoothed ramp around its
    /// own decision point:
    ///
    /// * [`EcnThreshold`]: marking ramps linearly over a band of
    ///   `max(4, K/4)` packets starting at K (packet mode oscillates the
    ///   instantaneous queue around K; the ramp gives the fluid equilibrium
    ///   the same operating point), losses ramp over the last 10% of the
    ///   buffer.
    /// * [`DropTail`]: loss-only, ramping over the last 15% of the buffer.
    /// * [`Red`]: the classic linear `max_p·(q−min)/(max−min)` curve on the
    ///   instantaneous backlog (the EWMA tracks it at fluid timescales),
    ///   1 above `max_th`, routed to mark or loss per [`RedMode`]; plus the
    ///   overflow loss ramp.
    ///
    /// The ramps are calibrated by `experiments::hybrid` differential runs
    /// (tolerance bands in DESIGN.md §18).
    pub fn fluid_signal(&self, backlog_pkts: f64) -> crate::fluid::PathSignal {
        let cap = self.capacity() as f64;
        let overflow = |from_frac: f64| -> f64 {
            let start = from_frac * cap;
            ((backlog_pkts - start) / (cap - start).max(1.0)).clamp(0.0, 1.0)
        };
        match self {
            QdiscKind::DropTail(_) => crate::fluid::PathSignal {
                p_mark: 0.0,
                p_loss: overflow(0.85),
            },
            QdiscKind::EcnThreshold(q) => {
                let k = q.k() as f64;
                let band = (k / 4.0).max(4.0);
                crate::fluid::PathSignal {
                    p_mark: ((backlog_pkts - k) / band).clamp(0.0, 1.0),
                    p_loss: overflow(0.9),
                }
            }
            QdiscKind::Red(q) => {
                let p = if backlog_pkts < q.min_th {
                    0.0
                } else if backlog_pkts >= q.max_th {
                    1.0
                } else {
                    (q.max_p * (backlog_pkts - q.min_th) / (q.max_th - q.min_th).max(1e-9))
                        .clamp(0.0, 1.0)
                };
                let spill = overflow(0.9);
                match q.mode {
                    RedMode::Mark => crate::fluid::PathSignal {
                        p_mark: p,
                        p_loss: spill,
                    },
                    RedMode::Drop => crate::fluid::PathSignal {
                        p_mark: 0.0,
                        p_loss: p.max(spill),
                    },
                }
            }
        }
    }
}

/// FIFO, drop on overflow.
///
/// `repr(C)`, rule constants first: as the engine's qdisc
/// ([`QdiscKind`] inside a `Direction`) only `cap` is ever read, and it is
/// placed to share a cache line with the direction's transmit state. `buf`
/// is the standalone form's storage, empty in the engine. The same goes
/// for [`EcnThreshold`] and [`Red`].
#[derive(Debug)]
#[repr(C)]
pub struct DropTail<P> {
    cap: usize,
    buf: VecDeque<Packet<P>>,
}

impl<P> DropTail<P> {
    /// FIFO with `cap` packet slots.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "queue capacity must be positive");
        DropTail {
            buf: VecDeque::new(),
            cap,
        }
    }
}

impl<P: Send> Qdisc<P> for DropTail<P> {
    fn enqueue(&mut self, mut pkt: Packet<P>) -> EnqueueOutcome {
        let outcome = self.classify(self.buf.len(), &mut pkt);
        if outcome != EnqueueOutcome::Dropped {
            self.buf.push_back(pkt);
        }
        outcome
    }

    fn classify(&mut self, backlog: usize, _pkt: &mut Packet<P>) -> EnqueueOutcome {
        if backlog >= self.cap {
            EnqueueOutcome::Dropped
        } else {
            EnqueueOutcome::Enqueued
        }
    }

    fn dequeue(&mut self) -> Option<Packet<P>> {
        self.buf.pop_front()
    }

    fn len(&self) -> usize {
        self.buf.len()
    }

    fn capacity(&self) -> usize {
        self.cap
    }
}

/// The paper's marking rule: CE-mark an arriving ECT packet when the
/// instantaneous queue length (packets already waiting) is `>= K`.
#[derive(Debug)]
#[repr(C)]
pub struct EcnThreshold<P> {
    cap: usize,
    k: usize,
    buf: VecDeque<Packet<P>>,
}

impl<P> EcnThreshold<P> {
    /// Threshold marker with capacity `cap` and marking threshold `k`.
    pub fn new(cap: usize, k: usize) -> Self {
        assert!(cap > 0, "queue capacity must be positive");
        assert!(k <= cap, "marking threshold K={k} exceeds capacity {cap}");
        EcnThreshold {
            buf: VecDeque::new(),
            cap,
            k,
        }
    }

    /// The marking threshold K (packets).
    pub fn k(&self) -> usize {
        self.k
    }
}

impl<P: Send> Qdisc<P> for EcnThreshold<P> {
    fn enqueue(&mut self, mut pkt: Packet<P>) -> EnqueueOutcome {
        let outcome = self.classify(self.buf.len(), &mut pkt);
        if outcome != EnqueueOutcome::Dropped {
            self.buf.push_back(pkt);
        }
        outcome
    }

    fn classify(&mut self, backlog: usize, pkt: &mut Packet<P>) -> EnqueueOutcome {
        if backlog >= self.cap {
            return EnqueueOutcome::Dropped;
        }
        if backlog >= self.k && pkt.ecn.is_capable() {
            pkt.mark_ce();
            EnqueueOutcome::EnqueuedMarked
        } else {
            EnqueueOutcome::Enqueued
        }
    }

    fn dequeue(&mut self) -> Option<Packet<P>> {
        self.buf.pop_front()
    }

    fn len(&self) -> usize {
        self.buf.len()
    }

    fn capacity(&self) -> usize {
        self.cap
    }
}

/// Whether RED signals congestion by marking ECT packets or by dropping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RedMode {
    /// CE-mark ECT packets; drop non-ECT ones that would have been marked.
    Mark,
    /// Always drop (the original RED; DummyNet's built-in behaviour the
    /// paper had to patch away).
    Drop,
}

/// Random Early Detection (Floyd & Jacobson 1993) with EWMA averaging.
///
/// The rule constants are inline; what changes per packet (the EWMA, the
/// inter-mark count, the RNG) and the standalone buffer sit behind one
/// box, so a RED port costs a [`QdiscKind`] no more than a threshold
/// marker does. `mode` comes last: its spare values are where the enum
/// keeps its tag (`tests::rule_constants_lead_the_enum`).
#[derive(Debug)]
#[repr(C)]
pub struct Red<P> {
    cap: usize,
    wq: f64,
    min_th: f64,
    max_th: f64,
    max_p: f64,
    state: Box<RedState<P>>,
    mode: RedMode,
}

/// The mutable half of a [`Red`].
#[derive(Debug)]
struct RedState<P> {
    avg: f64,
    /// Packets since the last mark/drop while in the between-thresholds band.
    count: i64,
    rng: SimRng,
    buf: VecDeque<Packet<P>>,
}

impl<P> Red<P> {
    /// Classic RED. `wq = 1.0, min_th = max_th = K` reproduces the paper's
    /// instantaneous-threshold marker on RED-only hardware.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cap: usize,
        wq: f64,
        min_th: f64,
        max_th: f64,
        max_p: f64,
        mode: RedMode,
        seed: u64,
    ) -> Self {
        assert!(cap > 0, "queue capacity must be positive");
        assert!((0.0..=1.0).contains(&wq) && wq > 0.0, "Wq must be in (0,1]");
        assert!(min_th <= max_th, "min_th must not exceed max_th");
        assert!((0.0..=1.0).contains(&max_p), "max_p must be a probability");
        Red {
            cap,
            wq,
            min_th,
            max_th,
            max_p,
            state: Box::new(RedState {
                avg: 0.0,
                count: -1,
                rng: SimRng::new(seed),
                buf: VecDeque::new(),
            }),
            mode,
        }
    }

    /// Current EWMA queue estimate (packets).
    pub fn avg(&self) -> f64 {
        self.state.avg
    }

    /// Decide whether the arriving packet should be signalled, updating the
    /// EWMA (over `backlog` waiting packets) and the inter-mark count.
    fn should_signal(&mut self, backlog: usize) -> bool {
        let s = &mut *self.state;
        s.avg = (1.0 - self.wq) * s.avg + self.wq * backlog as f64;
        if s.avg < self.min_th {
            s.count = -1;
            return false;
        }
        if s.avg >= self.max_th {
            s.count = 0;
            return true;
        }
        // Between thresholds: geometric spreading via the count mechanism.
        if s.count >= 0 {
            s.count += 1;
        } else {
            s.count = 0;
        }
        let pb = (self.max_p * (s.avg - self.min_th) / (self.max_th - self.min_th)).clamp(0.0, 1.0);
        let pa = if s.count as f64 * pb >= 1.0 {
            1.0
        } else {
            pb / (1.0 - s.count as f64 * pb)
        };
        if s.rng.chance(pa) {
            s.count = 0;
            true
        } else {
            false
        }
    }
}

impl<P: Send> Qdisc<P> for Red<P> {
    fn enqueue(&mut self, mut pkt: Packet<P>) -> EnqueueOutcome {
        let outcome = self.classify(self.state.buf.len(), &mut pkt);
        if outcome != EnqueueOutcome::Dropped {
            self.state.buf.push_back(pkt);
        }
        outcome
    }

    fn classify(&mut self, backlog: usize, pkt: &mut Packet<P>) -> EnqueueOutcome {
        if backlog >= self.cap {
            self.state.count = 0;
            return EnqueueOutcome::Dropped;
        }
        if self.should_signal(backlog) {
            match self.mode {
                RedMode::Mark if pkt.ecn.is_capable() => {
                    pkt.mark_ce();
                    EnqueueOutcome::EnqueuedMarked
                }
                _ => EnqueueOutcome::Dropped,
            }
        } else {
            EnqueueOutcome::Enqueued
        }
    }

    fn dequeue(&mut self) -> Option<Packet<P>> {
        self.state.buf.pop_front()
    }

    fn len(&self) -> usize {
        self.state.buf.len()
    }

    fn capacity(&self) -> usize {
        self.cap
    }
}

/// Leading bytes of a [`QdiscKind`] that hold what the engine reads of a
/// `DropTail` or `EcnThreshold` per packet — `cap`, then `k`
/// (`tests::rule_constants_lead_the_enum`); `link::tests` places them.
#[cfg(test)]
pub(crate) const RULE_SPAN: usize = 16;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;
    use crate::packet::{Ecn, FlowId};
    use xmp_des::ByteSize;
    use xmp_des::SimRng;

    /// The variant structs are `repr(C)` with the rule constants first, and
    /// the enum's tag hides in a niche behind them (`Red`'s `mode`, past
    /// the other variants' last byte, which is why it comes last there):
    /// `cap` is the enum's first word whatever the discipline, `k` its
    /// second, and the enum is no larger than its largest variant. Where
    /// rustc puts a niche is not a language guarantee, hence this check.
    #[test]
    fn rule_constants_lead_the_enum() {
        fn offset<T, U>(base: &T, field: &U) -> usize {
            std::ptr::from_ref(field).addr() - std::ptr::from_ref(base).addr()
        }
        let red = QdiscConfig::Red {
            cap: 16,
            wq: 0.5,
            min_th: 2.0,
            max_th: 10.0,
            max_p: 0.5,
            mode: RedMode::Mark,
            seed: 7,
        };
        let configs = [
            QdiscConfig::DropTail { cap: 8 },
            QdiscConfig::EcnThreshold { cap: 16, k: 4 },
            red,
        ];
        for cfg in configs {
            let q: QdiscKind<u32> = cfg.build();
            let (cap, k) = match &q {
                QdiscKind::DropTail(d) => (offset(&q, &d.cap), None),
                QdiscKind::EcnThreshold(e) => (offset(&q, &e.cap), Some(offset(&q, &e.k))),
                QdiscKind::Red(r) => (offset(&q, &r.cap), None),
            };
            assert_eq!(cap, 0, "{cfg:?}");
            assert!(k.is_none_or(|k| k + 8 == RULE_SPAN), "{cfg:?}");
        }
        use std::mem::size_of;
        assert_eq!(size_of::<QdiscKind<u32>>(), size_of::<Red<u32>>());
        assert!(size_of::<QdiscKind<u32>>() <= 56);
    }

    fn pkt(ecn: Ecn) -> Packet<u32> {
        Packet::new(
            Addr::new(10, 0, 0, 2),
            Addr::new(10, 1, 0, 2),
            FlowId(1),
            ecn,
            ByteSize::from_bytes(1500),
            0,
        )
    }

    #[test]
    fn droptail_drops_on_overflow() {
        let mut q = DropTail::new(2);
        assert_eq!(q.enqueue(pkt(Ecn::NotEct)), EnqueueOutcome::Enqueued);
        assert_eq!(q.enqueue(pkt(Ecn::NotEct)), EnqueueOutcome::Enqueued);
        assert_eq!(q.enqueue(pkt(Ecn::NotEct)), EnqueueOutcome::Dropped);
        assert_eq!(q.len(), 2);
        assert!(q.dequeue().is_some());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn threshold_marks_ect_at_k() {
        let mut q = EcnThreshold::new(100, 3);
        for _ in 0..3 {
            assert_eq!(q.enqueue(pkt(Ecn::Ect)), EnqueueOutcome::Enqueued);
        }
        // 4th arrival sees backlog 3 >= K=3 -> marked.
        assert_eq!(q.enqueue(pkt(Ecn::Ect)), EnqueueOutcome::EnqueuedMarked);
        // Draining below K stops marking.
        q.dequeue();
        q.dequeue();
        assert_eq!(q.enqueue(pkt(Ecn::Ect)), EnqueueOutcome::Enqueued);
    }

    #[test]
    fn threshold_never_marks_non_ect() {
        let mut q = EcnThreshold::new(10, 1);
        q.enqueue(pkt(Ecn::NotEct));
        assert_eq!(q.enqueue(pkt(Ecn::NotEct)), EnqueueOutcome::Enqueued);
        // Fill and overflow-drop.
        for _ in 0..8 {
            q.enqueue(pkt(Ecn::NotEct));
        }
        assert_eq!(q.enqueue(pkt(Ecn::NotEct)), EnqueueOutcome::Dropped);
    }

    #[test]
    fn threshold_marked_packet_carries_ce() {
        let mut q = EcnThreshold::new(10, 0);
        assert_eq!(q.enqueue(pkt(Ecn::Ect)), EnqueueOutcome::EnqueuedMarked);
        assert_eq!(q.dequeue().unwrap().ecn, Ecn::Ce);
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn threshold_k_must_fit() {
        EcnThreshold::<u32>::new(10, 11);
    }

    #[test]
    fn red_below_min_never_signals() {
        let mut q = Red::new(100, 0.5, 50.0, 80.0, 0.1, RedMode::Mark, 1);
        for _ in 0..20 {
            assert_eq!(q.enqueue(pkt(Ecn::Ect)), EnqueueOutcome::Enqueued);
        }
    }

    #[test]
    fn red_degenerate_config_equals_threshold() {
        // Wq = 1, min = max = K: signal exactly when instantaneous len >= K.
        let k = 5.0;
        let mut red = Red::new(100, 1.0, k, k, 1.0, RedMode::Mark, 2);
        let mut thr = EcnThreshold::new(100, 5);
        for i in 0..40 {
            let a = red.enqueue(pkt(Ecn::Ect));
            let b = thr.enqueue(pkt(Ecn::Ect));
            assert_eq!(a, b, "diverged at packet {i}");
            if i % 3 == 0 {
                red.dequeue();
                thr.dequeue();
            }
        }
    }

    #[test]
    fn red_drop_mode_drops_instead_of_marking() {
        let mut q = Red::new(100, 1.0, 0.0, 0.0, 1.0, RedMode::Drop, 3);
        assert_eq!(q.enqueue(pkt(Ecn::Ect)), EnqueueOutcome::Dropped);
    }

    #[test]
    fn red_mark_mode_drops_non_ect() {
        let mut q = Red::new(100, 1.0, 0.0, 0.0, 1.0, RedMode::Mark, 4);
        assert_eq!(q.enqueue(pkt(Ecn::NotEct)), EnqueueOutcome::Dropped);
        assert_eq!(q.enqueue(pkt(Ecn::Ect)), EnqueueOutcome::EnqueuedMarked);
    }

    #[test]
    fn qdisc_config_builds() {
        let mut a: QdiscKind<u32> = QdiscConfig::DropTail { cap: 4 }.build();
        let mut b: QdiscKind<u32> = QdiscConfig::EcnThreshold { cap: 4, k: 1 }.build();
        let mut c: QdiscKind<u32> = QdiscConfig::Red {
            cap: 4,
            wq: 0.5,
            min_th: 1.0,
            max_th: 3.0,
            max_p: 0.5,
            mode: RedMode::Mark,
            seed: 7,
        }
        .build();
        assert!(matches!(a, QdiscKind::DropTail(_)));
        for q in [&mut a, &mut b, &mut c] {
            assert_eq!(q.capacity(), 4);
            q.enqueue(pkt(Ecn::Ect));
            assert_eq!(q.len(), 1);
        }
    }

    /// Conservation under a seeded random op stream: every offered packet
    /// is either dropped or eventually dequeued; backlog never exceeds
    /// capacity. 250 seeds x up to 300 ops; the failing seed is printed.
    #[test]
    fn queue_conservation_seeded() {
        for seed in 0..250u64 {
            let mut rng = SimRng::new(seed);
            let cap = 1 + rng.index(63);
            let k = rng.index(64).min(cap);
            let ops = rng.index(300);
            let mut q = EcnThreshold::new(cap, k);
            let (mut enq, mut drop, mut deq) = (0u32, 0u32, 0u32);
            for _ in 0..ops {
                if rng.chance(0.5) {
                    match q.enqueue(pkt(Ecn::Ect)) {
                        EnqueueOutcome::Dropped => drop += 1,
                        _ => enq += 1,
                    }
                } else if q.dequeue().is_some() {
                    deq += 1;
                }
                assert!(q.len() <= cap, "seed {seed}: backlog over capacity");
            }
            assert_eq!(
                enq as usize,
                deq as usize + q.len(),
                "seed {seed}: packets leaked ({drop} dropped)"
            );
        }
    }

    /// The fluid congestion ramps sit on each discipline's decision point:
    /// zero when idle, saturated past it, monotone in between.
    #[test]
    fn fluid_signal_ramps() {
        let thr: QdiscKind<u32> = QdiscConfig::EcnThreshold { cap: 100, k: 20 }.build();
        assert_eq!(thr.fluid_signal(0.0).p_mark, 0.0);
        let mid = thr.fluid_signal(22.0).p_mark;
        assert!(mid > 0.0 && mid < 1.0, "ramp interior, got {mid}");
        assert_eq!(thr.fluid_signal(60.0).p_mark, 1.0);
        assert_eq!(thr.fluid_signal(50.0).p_loss, 0.0);
        assert_eq!(thr.fluid_signal(100.0).p_loss, 1.0);

        let dt: QdiscKind<u32> = QdiscConfig::DropTail { cap: 100 }.build();
        assert_eq!(dt.fluid_signal(50.0).p_mark, 0.0);
        assert_eq!(dt.fluid_signal(50.0).p_loss, 0.0);
        assert!(dt.fluid_signal(95.0).p_loss > 0.0);
        assert_eq!(dt.fluid_signal(100.0).p_loss, 1.0);

        let red: QdiscKind<u32> = QdiscConfig::Red {
            cap: 100,
            wq: 0.5,
            min_th: 10.0,
            max_th: 30.0,
            max_p: 0.1,
            mode: RedMode::Mark,
            seed: 1,
        }
        .build();
        assert_eq!(red.fluid_signal(5.0).p_mark, 0.0);
        let p = red.fluid_signal(20.0).p_mark;
        assert!(
            (p - 0.05).abs() < 1e-9,
            "RED midpoint should be max_p/2, got {p}"
        );
        assert_eq!(red.fluid_signal(30.0).p_mark, 1.0);
    }

    /// FIFO order is preserved by all disciplines for accepted packets.
    #[test]
    fn fifo_order_seeded() {
        for seed in 0..250u64 {
            let n = 1 + SimRng::new(seed).index(49);
            let mut q = DropTail::new(64);
            for i in 0..n {
                let mut p = pkt(Ecn::NotEct);
                p.payload = i as u32;
                q.enqueue(p);
            }
            for i in 0..n {
                assert_eq!(
                    q.dequeue().unwrap().payload,
                    i as u32,
                    "seed {seed}: FIFO order broken"
                );
            }
        }
    }
}
