//! The multipath receiver: per-subflow reassembly, delayed ACKs and the
//! three ECN feedback modes.
//!
//! The XMP-specific part is **CE counting** ([`EchoMode::CeCount`]): every
//! received CE mark is eventually echoed, up to 3 per ACK (the 2-bit
//! ECE+CWR encoding of the paper's BOS rule 2); marks that do not fit stay
//! pending. DCTCP mode reports per-ACK marked/covered counts and forces an
//! immediate ACK whenever the CE state flips, mirroring the DCTCP receiver
//! state machine.

use crate::segment::{ConnKey, EchoMode, SegKind, Segment};
use crate::sink::Sink;
use std::collections::BTreeMap;
use xmp_des::{SimDuration, SimTime};
use xmp_netsim::{Addr, PortId};

/// Where ACKs for a subflow are sent.
#[derive(Clone, Copy, Debug)]
pub struct ReplyPath {
    /// Local port the data arrived on (and the ACK leaves from).
    pub port: PortId,
    /// Source address for ACKs (the address the data was sent to).
    pub src: Addr,
    /// Destination address for ACKs (the data's source).
    pub dst: Addr,
}

/// Receiver outputs, taken by a [`Sink`].
#[derive(Debug)]
pub enum RxAction {
    /// Send an ACK-type segment on a subflow's reply path.
    Emit(u8, Segment, ReplyPath),
    /// Arm the delayed-ACK timer for a subflow.
    ArmDelack(u8, SimTime),
    /// Cancel the delayed-ACK timer for a subflow.
    CancelDelack(u8),
}

#[derive(Debug)]
struct SubflowRx {
    reply: ReplyPath,
    rcv_nxt: u64,
    /// Out-of-order segments: start → end byte.
    ooo: BTreeMap<u64, u64>,
    /// CE marks not yet echoed (CeCount mode).
    pending_ce: u32,
    /// Data segments received since the last ACK.
    since_pkts: u8,
    /// Marked data segments received since the last ACK (DCTCP mode).
    since_marked: u8,
    /// TSval of the earliest segment since the last ACK (RFC 7323 echo).
    ts_to_echo: u64,
    /// Last data segment's CE state (DCTCP immediate-ACK rule).
    last_was_ce: bool,
    delack_armed: bool,
}

impl SubflowRx {
    fn new(reply: ReplyPath) -> Self {
        SubflowRx {
            reply,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            pending_ce: 0,
            since_pkts: 0,
            since_marked: 0,
            ts_to_echo: 0,
            last_was_ce: false,
            delack_armed: false,
        }
    }
}

/// A receiving MPTCP connection.
pub struct MpReceiver {
    conn: ConnKey,
    mode: EchoMode,
    delack: SimDuration,
    subs: Vec<Option<SubflowRx>>,
}

impl MpReceiver {
    /// New receiver; subflow state is created lazily from SYNs.
    pub fn new(conn: ConnKey, mode: EchoMode, delack: SimDuration) -> Self {
        MpReceiver {
            conn,
            mode,
            delack,
            subs: Vec::new(),
        }
    }

    /// Connection key.
    pub fn conn(&self) -> ConnKey {
        self.conn
    }

    /// Echo mode this receiver operates in.
    pub fn mode(&self) -> EchoMode {
        self.mode
    }

    /// Total in-order bytes delivered across subflows.
    pub fn delivered(&self) -> u64 {
        self.subs.iter().flatten().map(|s| s.rcv_nxt).sum()
    }

    fn sub_mut(&mut self, r: usize) -> Option<&mut SubflowRx> {
        self.subs.get_mut(r).and_then(|s| s.as_mut())
    }

    /// Handle a SYN: (re)create subflow state and answer with SYN-ACK.
    pub fn on_syn(
        &mut self,
        seg: &Segment,
        reply: ReplyPath,
        now: SimTime,
        out: &mut impl Sink<RxAction>,
    ) {
        debug_assert_eq!(seg.kind, SegKind::Syn);
        let r = seg.subflow as usize;
        if self.subs.len() <= r {
            // Exactly, not amortized: a receiver outlives its flow, and a
            // single-path one would otherwise hold four slots for life.
            self.subs.reserve_exact(r + 1 - self.subs.len());
            self.subs.resize_with(r + 1, || None);
        }
        if self.subs[r].is_none() {
            self.subs[r] = Some(SubflowRx::new(reply));
        }
        out.push(RxAction::Emit(
            seg.subflow,
            Segment::syn_ack(seg, now.as_nanos()),
            reply,
        ));
    }

    /// Handle a data segment (`ce` = arrived with Congestion Experienced).
    pub fn on_data(
        &mut self,
        seg: &Segment,
        ce: bool,
        now: SimTime,
        out: &mut impl Sink<RxAction>,
    ) {
        debug_assert_eq!(seg.kind, SegKind::Data);
        let mode = self.mode;
        let delack = self.delack;
        let conn = self.conn;
        let r = seg.subflow as usize;
        let Some(sub) = self.sub_mut(r) else {
            return; // data before SYN: drop (sender will retransmit)
        };

        // ECN bookkeeping.
        let ce_flip = ce != sub.last_was_ce;
        sub.last_was_ce = ce;
        if ce {
            sub.pending_ce += 1;
            sub.since_marked = sub.since_marked.saturating_add(1);
        }
        sub.since_pkts = sub.since_pkts.saturating_add(1);
        if sub.ts_to_echo == 0 {
            sub.ts_to_echo = seg.tsval;
        }

        // Reassembly.
        let end = seg.seq + u64::from(seg.len);
        let in_order = seg.seq <= sub.rcv_nxt;
        let duplicate = end <= sub.rcv_nxt;
        let had_ooo = !sub.ooo.is_empty();
        if in_order {
            sub.rcv_nxt = sub.rcv_nxt.max(end);
            // Drain contiguous out-of-order blocks.
            while let Some((&start, &blk_end)) = sub.ooo.first_key_value() {
                if start > sub.rcv_nxt {
                    break;
                }
                sub.rcv_nxt = sub.rcv_nxt.max(blk_end);
                sub.ooo.remove(&start);
            }
        } else {
            sub.ooo.insert(seg.seq, end);
        }

        // ACK policy: immediate on gaps/duplicates (fast-retransmit dupacks),
        // gap fills (RFC 5681), PSH, every 2nd segment, and DCTCP CE-state
        // flips.
        let immediate = !in_order
            || duplicate
            || had_ooo
            || seg.push
            || sub.since_pkts >= 2
            || (mode == EchoMode::Dctcp && ce_flip);
        if immediate {
            Self::emit_ack(conn, mode, r, sub, out);
        } else if !sub.delack_armed {
            sub.delack_armed = true;
            out.push(RxAction::ArmDelack(r as u8, now + delack));
        }
    }

    /// Delayed-ACK timer fired for subflow `r`.
    pub fn on_delack(&mut self, r: usize, out: &mut impl Sink<RxAction>) {
        let mode = self.mode;
        let conn = self.conn;
        let Some(sub) = self.sub_mut(r) else { return };
        if sub.delack_armed {
            Self::emit_ack(conn, mode, r, sub, out);
        }
    }

    fn emit_ack(
        conn: ConnKey,
        mode: EchoMode,
        r: usize,
        sub: &mut SubflowRx,
        out: &mut impl Sink<RxAction>,
    ) {
        let ce_echo = match mode {
            EchoMode::None => 0,
            EchoMode::CeCount => {
                let e = sub.pending_ce.min(3) as u8;
                sub.pending_ce -= u32::from(e);
                e
            }
            EchoMode::Dctcp => sub.since_marked.min(3),
        };
        let ack = Segment::ack(
            conn,
            r as u8,
            sub.rcv_nxt,
            ce_echo,
            sub.since_pkts,
            sub.ts_to_echo,
        );
        sub.since_pkts = 0;
        sub.since_marked = 0;
        sub.ts_to_echo = 0;
        if sub.delack_armed {
            sub.delack_armed = false;
            out.push(RxAction::CancelDelack(r as u8));
        }
        out.push(RxAction::Emit(r as u8, ack, sub.reply));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply() -> ReplyPath {
        ReplyPath {
            port: PortId(0),
            src: Addr::new(10, 0, 0, 2),
            dst: Addr::new(10, 0, 0, 1),
        }
    }

    fn rx(mode: EchoMode) -> MpReceiver {
        let mut r = MpReceiver::new(1, mode, SimDuration::from_millis(40));
        let mut out = Vec::new();
        r.on_syn(
            &Segment::syn(1, 0, 7, mode),
            reply(),
            SimTime::ZERO,
            &mut out,
        );
        r
    }

    fn data(seq: u64, len: u32, push: bool) -> Segment {
        Segment::data(1, 0, seq, len, 1000, push)
    }

    fn acks(out: &[RxAction]) -> Vec<&Segment> {
        out.iter()
            .filter_map(|a| match a {
                RxAction::Emit(_, s, _) if s.kind == SegKind::Ack => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn syn_gets_syn_ack_with_echo() {
        let mut r = MpReceiver::new(1, EchoMode::CeCount, SimDuration::from_millis(40));
        let mut out = Vec::new();
        r.on_syn(
            &Segment::syn(1, 0, 7, EchoMode::CeCount),
            reply(),
            SimTime::from_micros(3),
            &mut out,
        );
        match &out[0] {
            RxAction::Emit(0, s, _) => {
                assert_eq!(s.kind, SegKind::SynAck);
                assert_eq!(s.tsecr, 7);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn every_second_segment_acked() {
        let mut r = rx(EchoMode::None);
        let mut out = Vec::new();
        r.on_data(&data(0, 1460, false), false, SimTime::ZERO, &mut out);
        assert!(acks(&out).is_empty(), "first segment: delayed");
        assert!(matches!(out[0], RxAction::ArmDelack(0, _)));
        r.on_data(&data(1460, 1460, false), false, SimTime::ZERO, &mut out);
        let a = acks(&out);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].ack, 2920);
        assert_eq!(a[0].covered, 2);
        assert_eq!(a[0].tsecr, 1000, "echoes the first unacked segment's TSval");
    }

    #[test]
    fn push_forces_immediate_ack() {
        let mut r = rx(EchoMode::None);
        let mut out = Vec::new();
        r.on_data(&data(0, 100, true), false, SimTime::ZERO, &mut out);
        assert_eq!(acks(&out)[0].ack, 100);
    }

    #[test]
    fn delack_timer_flushes() {
        let mut r = rx(EchoMode::None);
        let mut out = Vec::new();
        r.on_data(&data(0, 1460, false), false, SimTime::ZERO, &mut out);
        assert!(acks(&out).is_empty());
        r.on_delack(0, &mut out);
        let a = acks(&out);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].ack, 1460);
        // A second timer fire without new data does nothing.
        let n = out.len();
        r.on_delack(0, &mut out);
        assert_eq!(out.len(), n);
    }

    #[test]
    fn out_of_order_dupacks_then_cumulative_jump() {
        let mut r = rx(EchoMode::None);
        let mut out = Vec::new();
        // Segment 0 lost; 1,2,3 arrive out of order.
        for seq in [1460u64, 2920, 4380] {
            r.on_data(&data(seq, 1460, false), false, SimTime::ZERO, &mut out);
        }
        let a = acks(&out);
        assert_eq!(a.len(), 3, "each gap arrival acks immediately");
        assert!(a.iter().all(|s| s.ack == 0), "duplicate acks at the hole");
        // The retransmission fills the hole: cumulative ack jumps.
        out.clear();
        r.on_data(&data(0, 1460, false), false, SimTime::ZERO, &mut out);
        assert_eq!(acks(&out)[0].ack, 4 * 1460);
        assert_eq!(r.delivered(), 4 * 1460);
    }

    #[test]
    fn ce_count_mode_echoes_exact_count_capped_at_3() {
        let mut r = rx(EchoMode::CeCount);
        let mut out = Vec::new();
        // 5 marked in-order segments; acks every 2nd.
        for i in 0..5u64 {
            r.on_data(&data(i * 1460, 1460, false), true, SimTime::ZERO, &mut out);
        }
        let a = acks(&out);
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].ce_echo, 2);
        assert_eq!(a[1].ce_echo, 2);
        // One mark still pending; flushes with the delack.
        out.clear();
        r.on_delack(0, &mut out);
        assert_eq!(acks(&out)[0].ce_echo, 1);
    }

    #[test]
    fn ce_count_total_is_conserved() {
        let mut r = rx(EchoMode::CeCount);
        let mut out = Vec::new();
        let mut seq = 0u64;
        let mut marked = 0u32;
        for i in 0..50u64 {
            let ce = i % 3 == 0;
            marked += u32::from(ce);
            r.on_data(&data(seq, 1460, i == 49), ce, SimTime::ZERO, &mut out);
            seq += 1460;
        }
        r.on_delack(0, &mut out);
        let echoed: u32 = acks(&out).iter().map(|s| u32::from(s.ce_echo)).sum();
        assert_eq!(echoed, marked, "every CE mark is echoed exactly once");
    }

    #[test]
    fn dctcp_state_flip_forces_immediate_ack() {
        let mut r = rx(EchoMode::Dctcp);
        let mut out = Vec::new();
        r.on_data(&data(0, 1460, false), true, SimTime::ZERO, &mut out);
        // First segment flips CE state false->true: immediate ack.
        let a = acks(&out);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].ce_echo, 1);
        assert_eq!(a[0].covered, 1);
        out.clear();
        r.on_data(&data(1460, 1460, false), true, SimTime::ZERO, &mut out);
        assert!(acks(&out).is_empty(), "no flip: delayed");
        r.on_data(&data(2920, 1460, false), false, SimTime::ZERO, &mut out);
        let a = acks(&out);
        assert_eq!(a.len(), 1, "flip true->false: immediate");
        assert_eq!(a[0].ce_echo, 1);
        assert_eq!(a[0].covered, 2);
    }

    #[test]
    fn data_before_syn_is_dropped() {
        let mut r = MpReceiver::new(1, EchoMode::None, SimDuration::from_millis(40));
        let mut out = Vec::new();
        r.on_data(&data(0, 1460, false), false, SimTime::ZERO, &mut out);
        assert!(out.is_empty());
        assert_eq!(r.delivered(), 0);
    }

    #[test]
    fn overlapping_retransmission_advances_cleanly() {
        // A go-back-N resend overlaps data the receiver already holds
        // out-of-order; rcv_nxt must never regress or double-count.
        let mut r = rx(EchoMode::None);
        let mut out = Vec::new();
        r.on_data(&data(0, 1460, false), false, SimTime::ZERO, &mut out);
        // 2 lost; 3..5 arrive out of order.
        for seq in [2920u64, 4380] {
            r.on_data(&data(seq, 1460, false), false, SimTime::ZERO, &mut out);
        }
        assert_eq!(r.delivered(), 1460);
        // Retransmission covers [1460, 2920) — overlaps the stored blocks'
        // left edge exactly; everything drains.
        out.clear();
        r.on_data(&data(1460, 1460, false), false, SimTime::ZERO, &mut out);
        assert_eq!(r.delivered(), 4 * 1460);
        assert_eq!(acks(&out)[0].ack, 4 * 1460);
        // A stale full-overlap resend afterwards changes nothing.
        r.on_data(&data(1460, 1460, false), false, SimTime::ZERO, &mut out);
        assert_eq!(r.delivered(), 4 * 1460);
    }

    #[test]
    fn interleaved_gaps_drain_in_order() {
        let mut r = rx(EchoMode::None);
        let mut out = Vec::new();
        // Arrival order: 4, 2, 0, 3, 1 (x1460).
        for seq in [4u64, 2, 0, 3, 1] {
            r.on_data(
                &data(seq * 1460, 1460, false),
                false,
                SimTime::ZERO,
                &mut out,
            );
        }
        assert_eq!(r.delivered(), 5 * 1460);
        let last_ack = acks(&out).last().unwrap().ack;
        assert_eq!(last_ack, 5 * 1460);
    }

    #[test]
    fn delivered_sums_across_subflows() {
        let mut r = MpReceiver::new(1, EchoMode::None, SimDuration::from_millis(40));
        let mut out = Vec::new();
        for sf in 0..3u8 {
            r.on_syn(
                &Segment::syn(1, sf, 7, EchoMode::None),
                reply(),
                SimTime::ZERO,
                &mut out,
            );
            let mut d = Segment::data(1, sf, 0, 1000 * (u32::from(sf) + 1), 5, true);
            d.subflow = sf;
            r.on_data(&d, false, SimTime::ZERO, &mut out);
        }
        assert_eq!(r.delivered(), 1000 + 2000 + 3000);
    }

    #[test]
    fn duplicate_data_is_acked_immediately() {
        let mut r = rx(EchoMode::None);
        let mut out = Vec::new();
        r.on_data(&data(0, 1460, false), false, SimTime::ZERO, &mut out);
        r.on_data(&data(1460, 1460, false), false, SimTime::ZERO, &mut out);
        out.clear();
        // Spurious retransmission of the first segment.
        r.on_data(&data(0, 1460, false), false, SimTime::ZERO, &mut out);
        let a = acks(&out);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].ack, 2920);
    }
}
