//! The multipath sender: per-subflow TCP send machinery (handshake, loss
//! detection, NewReno fast retransmit/recovery, RTO with go-back-N resend)
//! with a pluggable, multipath-aware congestion controller.
//!
//! The sender is a pure state machine: inputs are segments, timeouts and
//! `open`; outputs are [`TxAction`]s the host stack translates into packets
//! and timers. This keeps every congestion-control path unit-testable
//! without a simulated network.

use crate::cc::{AckInfo, CongestionControl, SubflowCc};
use crate::config::StackConfig;
use crate::rtt::RttEstimator;
use crate::segment::{ConnKey, SegKind, Segment};
use xmp_des::{SimDuration, SimTime};
use xmp_netsim::{Addr, PortId};

/// Where a subflow's packets enter and leave the network.
#[derive(Clone, Copy, Debug)]
pub struct SubflowSpec {
    /// Local NIC port the subflow transmits on.
    pub local_port: PortId,
    /// Source address stamped on packets.
    pub src: Addr,
    /// Destination address (selects the path under deterministic routing).
    pub dst: Addr,
}

/// Sender outputs, translated by the host stack.
#[derive(Debug)]
pub enum TxAction {
    /// Transmit a segment on the given subflow.
    Emit(u8, Segment),
    /// (Re)arm the subflow's retransmission timer.
    ArmRto(u8, SimTime),
    /// Disarm the subflow's retransmission timer.
    CancelRto(u8),
    /// All application bytes are acknowledged.
    Completed,
}

/// Encode the current time as a TSval (0 is reserved for "absent").
fn tsnow(now: SimTime) -> u64 {
    now.as_nanos() + 1
}

/// Lifetime statistics of a sending connection.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnStats {
    /// When `open` was called.
    pub start: SimTime,
    /// When the last byte was acknowledged.
    pub completed: Option<SimTime>,
    /// Cumulative acknowledged bytes (across subflows).
    pub bytes_acked: u64,
    /// Fast retransmissions triggered.
    pub fast_retransmits: u64,
    /// Retransmission timeouts fired.
    pub rtos: u64,
    /// Sum of RTT samples (ns) — for mean RTT.
    pub rtt_sum_ns: u64,
    /// Number of RTT samples.
    pub rtt_count: u64,
    /// Largest RTT sample observed.
    pub rtt_max: SimDuration,
}

impl ConnStats {
    fn new(start: SimTime) -> Self {
        ConnStats {
            start,
            completed: None,
            bytes_acked: 0,
            fast_retransmits: 0,
            rtos: 0,
            rtt_sum_ns: 0,
            rtt_count: 0,
            rtt_max: SimDuration::ZERO,
        }
    }

    /// Average data rate over the connection's lifetime, bits per second.
    /// For completed flows this is the paper's "goodput".
    pub fn goodput_bps(&self, now: SimTime) -> f64 {
        let end = self.completed.unwrap_or(now);
        let dur = end.duration_since(self.start).as_secs_f64();
        if dur <= 0.0 {
            0.0
        } else {
            self.bytes_acked as f64 * 8.0 / dur
        }
    }

    /// Mean RTT sample, if any were taken.
    pub fn mean_rtt(&self) -> Option<SimDuration> {
        self.rtt_sum_ns
            .checked_div(self.rtt_count)
            .map(SimDuration::from_nanos)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxPhase {
    SynSent,
    Established,
}

#[derive(Debug)]
struct SubflowTx {
    spec: SubflowSpec,
    phase: TxPhase,
    rtt: RttEstimator,
    dup_acks: u32,
    /// Fast-recovery exit point.
    recover: u64,
    /// Bytes of the connection stream allocated to this subflow
    /// (`snd_nxt <= sub_allocated`; they differ only after an RTO rollback).
    sub_allocated: u64,
    /// Whether the subflow's last emitted byte carried PSH.
    tail_pushed: bool,
    /// Whether the end-of-data tail probe was already sent.
    tail_probed: bool,
}

/// A sending MPTCP connection (single-path TCP is the 1-subflow case).
///
/// Generic over the congestion controller `C` so a closed enum of in-tree
/// algorithms (`xmp-core`'s `CcKind`) dispatches statically on the per-ACK
/// hot path; the default, `Box<dyn CongestionControl>`, keeps external
/// controllers and existing call sites working through one virtual call.
pub struct MpSender<C: CongestionControl = Box<dyn CongestionControl>> {
    conn: ConnKey,
    total: u64,
    allocated: u64,
    acked_total: u64,
    mss: u32,
    initial_cwnd: f64,
    cc: C,
    view: Vec<SubflowCc>,
    subs: Vec<SubflowTx>,
    completed: bool,
    stats: ConnStats,
}

impl<C: CongestionControl> MpSender<C> {
    /// Create a sender for `total` bytes (`u64::MAX` = run forever) over
    /// the given subflows.
    pub fn new(
        conn: ConnKey,
        subflows: Vec<SubflowSpec>,
        total: u64,
        mut cc: C,
        cfg: &StackConfig,
        now: SimTime,
    ) -> Self {
        assert!(
            !subflows.is_empty(),
            "connection needs at least one subflow"
        );
        assert!(subflows.len() <= 8, "at most 8 subflows supported");
        assert!(total > 0, "empty transfer");
        cc.init(subflows.len());
        let n = subflows.len();
        MpSender {
            conn,
            total,
            allocated: 0,
            acked_total: 0,
            mss: cfg.mss,
            initial_cwnd: cfg.initial_cwnd,
            cc,
            view: (0..n).map(|_| SubflowCc::new(cfg.initial_cwnd)).collect(),
            subs: subflows
                .into_iter()
                .map(|spec| SubflowTx {
                    spec,
                    phase: TxPhase::SynSent,
                    rtt: RttEstimator::new(cfg.rto_min, cfg.rto_max, cfg.rto_initial),
                    dup_acks: 0,
                    recover: 0,
                    sub_allocated: 0,
                    tail_pushed: false,
                    tail_probed: false,
                })
                .collect(),
            completed: false,
            stats: ConnStats::new(now),
        }
    }

    /// Connection key.
    pub fn conn(&self) -> ConnKey {
        self.conn
    }

    /// Whether all bytes are acknowledged.
    pub fn is_completed(&self) -> bool {
        self.completed
    }

    /// Statistics.
    pub fn stats(&self) -> &ConnStats {
        &self.stats
    }

    /// Congestion-control view (cwnd/srtt per subflow) — read-only.
    pub fn view(&self) -> &[SubflowCc] {
        &self.view
    }

    /// Audit the per-subflow window invariants every congestion-control
    /// algorithm must maintain: `cwnd` finite, positive and at least one
    /// packet (RTO collapses to 1.0, everything else floors at
    /// [`crate::cc::MIN_CWND`]); `ssthresh` positive (possibly infinite);
    /// sequence sanity `snd_una <= snd_nxt`. Returns a description of the
    /// first violation. Debug builds run this after every segment and RTO;
    /// the `simcheck` chaos harness also audits it mid-run through the
    /// driver's subflow snapshots.
    pub fn check_window_bounds(&self) -> Result<(), String> {
        for (r, v) in self.view.iter().enumerate() {
            if !v.cwnd.is_finite() || v.cwnd < 1.0 {
                return Err(format!(
                    "subflow {r}: cwnd {} outside [1.0, finite) (ssthresh {})",
                    v.cwnd, v.ssthresh
                ));
            }
            if v.ssthresh.is_nan() || v.ssthresh <= 0.0 {
                return Err(format!(
                    "subflow {r}: ssthresh {} not positive (cwnd {})",
                    v.ssthresh, v.cwnd
                ));
            }
            if v.snd_una > v.snd_nxt {
                return Err(format!(
                    "subflow {r}: snd_una {} ahead of snd_nxt {}",
                    v.snd_una, v.snd_nxt
                ));
            }
        }
        Ok(())
    }

    /// Number of subflows.
    pub fn subflow_count(&self) -> usize {
        self.subs.len()
    }

    /// Subflow spec (for the stack's packet addressing).
    pub fn spec(&self, r: usize) -> &SubflowSpec {
        &self.subs[r].spec
    }

    /// The congestion controller (e.g. to query its name).
    pub fn cc(&self) -> &C {
        &self.cc
    }

    /// Cumulative acknowledged bytes on subflow `r` (drives the paper's
    /// per-subflow rate plots, Figs. 4 and 7).
    pub fn subflow_acked(&self, r: usize) -> u64 {
        self.view[r].snd_una
    }

    /// Join a new subflow at runtime (MPTCP's ADD_ADDR/JOIN): sends its
    /// SYN immediately. Returns the new subflow index.
    pub fn add_subflow(
        &mut self,
        spec: SubflowSpec,
        cfg: &StackConfig,
        now: SimTime,
        out: &mut Vec<TxAction>,
    ) -> usize {
        assert!(self.subs.len() < 8, "at most 8 subflows supported");
        assert!(!self.completed, "cannot join a completed connection");
        let r = self.subs.len();
        self.view.push(SubflowCc::new(cfg.initial_cwnd));
        self.subs.push(SubflowTx {
            spec,
            phase: TxPhase::SynSent,
            rtt: RttEstimator::new(cfg.rto_min, cfg.rto_max, cfg.rto_initial),
            dup_acks: 0,
            recover: 0,
            sub_allocated: 0,
            tail_pushed: false,
            tail_probed: false,
        });
        self.cc.on_subflow_added();
        out.push(TxAction::Emit(
            r as u8,
            Segment::syn(self.conn, r as u8, tsnow(now), self.cc.echo_mode()),
        ));
        out.push(TxAction::ArmRto(r as u8, now + self.subs[r].rtt.rto()));
        r
    }

    /// Start the connection: send SYNs, arm timers.
    pub fn open(&mut self, now: SimTime, out: &mut Vec<TxAction>) {
        for r in 0..self.subs.len() {
            out.push(TxAction::Emit(
                r as u8,
                Segment::syn(self.conn, r as u8, tsnow(now), self.cc.echo_mode()),
            ));
            out.push(TxAction::ArmRto(r as u8, now + self.subs[r].rtt.rto()));
        }
    }

    /// Process an incoming segment addressed to this sender.
    pub fn on_segment(&mut self, seg: &Segment, now: SimTime, out: &mut Vec<TxAction>) {
        if self.completed {
            return;
        }
        let r = seg.subflow as usize;
        if r >= self.subs.len() {
            return;
        }
        match seg.kind {
            SegKind::SynAck => self.on_syn_ack(r, seg, now, out),
            SegKind::Ack => self.on_ack(r, seg, now, out),
            SegKind::Syn | SegKind::Data => {} // not for a sender
        }
        debug_assert!(
            self.check_window_bounds().is_ok(),
            "window bounds violated after segment: {:?}",
            self.check_window_bounds()
        );
    }

    fn sample_rtt(&mut self, r: usize, tsecr: u64, now: SimTime) -> Option<SimDuration> {
        // TSvals are encoded as `nanos + 1` (see `tsnow`) so 0 means absent.
        if tsecr == 0 {
            return None;
        }
        let sent_ns = tsecr - 1;
        if now.as_nanos() < sent_ns {
            return None;
        }
        let sample = SimDuration::from_nanos(now.as_nanos() - sent_ns);
        self.subs[r].rtt.sample(sample);
        self.view[r].srtt = self.subs[r].rtt.srtt();
        self.stats.rtt_sum_ns += sample.as_nanos();
        self.stats.rtt_count += 1;
        self.stats.rtt_max = self.stats.rtt_max.max(sample);
        Some(sample)
    }

    fn on_syn_ack(&mut self, r: usize, seg: &Segment, now: SimTime, out: &mut Vec<TxAction>) {
        if self.subs[r].phase != TxPhase::SynSent {
            return; // duplicate SYN-ACK
        }
        self.subs[r].phase = TxPhase::Established;
        self.sample_rtt(r, seg.tsecr, now);
        self.pump(r, now, out);
        self.fix_rto(r, now, out);
    }

    fn on_ack(&mut self, r: usize, seg: &Segment, now: SimTime, out: &mut Vec<TxAction>) {
        if self.subs[r].phase != TxPhase::Established {
            return;
        }
        let rtt_sample = self.sample_rtt(r, seg.tsecr, now);
        let prev_una = self.view[r].snd_una;
        let newly = seg.ack.saturating_sub(prev_una);
        let info = AckInfo {
            ack_seq: seg.ack,
            newly_acked: newly,
            ce_count: seg.ce_echo,
            covered: seg.covered,
            rtt_sample,
            now,
            mss: self.mss,
        };

        if newly > 0 {
            self.view[r].snd_una = seg.ack;
            // A late ACK for data sent before an RTO rollback can exceed
            // the rolled-back snd_nxt; fast-forward past the acked bytes.
            if self.view[r].snd_nxt < seg.ack {
                debug_assert!(seg.ack <= self.subs[r].sub_allocated);
                self.view[r].snd_nxt = seg.ack;
            }
            self.acked_total += newly;
            self.stats.bytes_acked = self.acked_total;
            if self.view[r].in_recovery {
                if seg.ack >= self.subs[r].recover {
                    // Full acknowledgement: leave recovery.
                    self.view[r].in_recovery = false;
                    self.view[r].cwnd = self.view[r].ssthresh.max(1.0);
                    self.subs[r].dup_acks = 0;
                } else {
                    // Partial ack: the next hole is lost too (NewReno).
                    // The dupack pipe discount restarts from this hole.
                    self.subs[r].dup_acks = 0;
                    self.retransmit_head(r, now, out);
                }
            } else {
                self.subs[r].dup_acks = 0;
                self.cc.on_ack(r, &info, &mut self.view);
            }
            if self.acked_total >= self.total {
                self.complete(now, out);
                return;
            }
        } else {
            let outstanding = self.view[r].snd_nxt > self.view[r].snd_una;
            if self.view[r].in_recovery {
                // Each further duplicate means one more packet left the
                // network; the pipe discount in `pump` lets one out.
                // (Conservative replacement for NewReno window inflation —
                // the counter stays meaningful through long recoveries.)
                self.subs[r].dup_acks += 1;
            } else if outstanding && seg.ack == self.view[r].snd_una {
                self.subs[r].dup_acks += 1;
                // CE echoes ride duplicate ACKs too; the controller sees them.
                self.cc.on_ack(r, &info, &mut self.view);
                if self.subs[r].dup_acks == 3 {
                    let ss = self.cc.ssthresh_on_loss(r, &self.view);
                    self.view[r].ssthresh = ss;
                    self.view[r].cwnd = ss;
                    self.view[r].in_recovery = true;
                    self.subs[r].recover = self.view[r].snd_nxt;
                    self.stats.fast_retransmits += 1;
                    self.retransmit_head(r, now, out);
                }
            }
        }

        self.pump(r, now, out);
        self.fix_rto(r, now, out);
    }

    /// Retransmission timeout on subflow `r`.
    pub fn on_rto(&mut self, r: usize, now: SimTime, out: &mut Vec<TxAction>) {
        if self.completed || r >= self.subs.len() {
            return;
        }
        match self.subs[r].phase {
            TxPhase::SynSent => {
                self.subs[r].rtt.backoff();
                self.stats.rtos += 1;
                out.push(TxAction::Emit(
                    r as u8,
                    Segment::syn(self.conn, r as u8, tsnow(now), self.cc.echo_mode()),
                ));
                out.push(TxAction::ArmRto(r as u8, now + self.subs[r].rtt.rto()));
            }
            TxPhase::Established => {
                let v = &mut self.view[r];
                if v.snd_nxt <= v.snd_una {
                    return; // nothing outstanding; stale timer
                }
                let pipe = (v.snd_nxt - v.snd_una) as f64 / self.mss as f64;
                v.ssthresh = (pipe / 2.0).max(2.0);
                v.cwnd = 1.0;
                v.in_recovery = false;
                // Go back N: resend everything outstanding as the window
                // reopens (receiver-side duplicates are acked immediately).
                v.snd_nxt = v.snd_una;
                self.subs[r].dup_acks = 0;
                self.subs[r].rtt.backoff();
                self.stats.rtos += 1;
                self.cc.on_rto(r, &mut self.view);
                self.pump(r, now, out);
                self.fix_rto(r, now, out);
            }
        }
        debug_assert!(
            self.check_window_bounds().is_ok(),
            "window bounds violated after RTO: {:?}",
            self.check_window_bounds()
        );
    }

    /// Send as much as the window allows on subflow `r`.
    fn pump(&mut self, r: usize, now: SimTime, out: &mut Vec<TxAction>) {
        if self.subs[r].phase != TxPhase::Established || self.completed {
            return;
        }
        loop {
            let v = &self.view[r];
            // Outstanding bytes, discounted by one packet per duplicate
            // ACK (each signals a segment that left the network).
            let pipe = ((v.snd_nxt - v.snd_una) as f64 / self.mss as f64
                - f64::from(self.subs[r].dup_acks))
            .max(0.0);
            if pipe + 1.0 > v.cwnd + 1e-9 {
                break;
            }
            let snd_nxt = v.snd_nxt;
            let len = if snd_nxt < self.subs[r].sub_allocated {
                // Resending previously allocated bytes (post-RTO).
                (self.subs[r].sub_allocated - snd_nxt).min(u64::from(self.mss))
            } else if self.allocated < self.total {
                // Allocate fresh connection bytes to this subflow.
                let chunk = (self.total - self.allocated).min(u64::from(self.mss));
                self.allocated += chunk;
                self.subs[r].sub_allocated += chunk;
                chunk
            } else {
                break; // nothing left for this subflow
            };
            // PSH when this is the subflow's last pending byte and the
            // connection has nothing further to hand it: the receiver must
            // ACK immediately or the subflow idles a full delayed-ACK
            // timeout on every odd-length tail.
            let push = self.total != u64::MAX
                && self.allocated == self.total
                && snd_nxt + len == self.subs[r].sub_allocated;
            out.push(TxAction::Emit(
                r as u8,
                Segment::data(self.conn, r as u8, snd_nxt, len as u32, tsnow(now), push),
            ));
            self.subs[r].tail_pushed = push;
            self.view[r].snd_nxt += len;
        }
        // End-of-data tail probe: a slow subflow whose last segment was
        // emitted while the connection still had data (so without PSH) can
        // otherwise strand that segment behind the receiver's delayed-ACK
        // timer — real stacks resolve this with the FIN. Retransmit the
        // tail once with PSH; duplicates are acknowledged immediately.
        let v = &self.view[r];
        if self.total != u64::MAX
            && self.allocated == self.total
            && v.snd_nxt == self.subs[r].sub_allocated
            && v.snd_nxt > v.snd_una
            && !self.subs[r].tail_pushed
            && !self.subs[r].tail_probed
        {
            self.subs[r].tail_probed = true;
            let seq = v.snd_nxt - u64::from(self.mss).min(v.snd_nxt - v.snd_una);
            let len = (v.snd_nxt - seq) as u32;
            out.push(TxAction::Emit(
                r as u8,
                Segment::data(self.conn, r as u8, seq, len, tsnow(now), true),
            ));
        }
    }

    /// Retransmit the first unacknowledged segment on `r`.
    fn retransmit_head(&mut self, r: usize, now: SimTime, out: &mut Vec<TxAction>) {
        let v = &self.view[r];
        let len = (self.subs[r].sub_allocated - v.snd_una).min(u64::from(self.mss));
        if len == 0 {
            return;
        }
        let push = self.total != u64::MAX
            && self.allocated == self.total
            && v.snd_una + len == self.subs[r].sub_allocated;
        out.push(TxAction::Emit(
            r as u8,
            Segment::data(self.conn, r as u8, v.snd_una, len as u32, tsnow(now), push),
        ));
    }

    fn fix_rto(&mut self, r: usize, now: SimTime, out: &mut Vec<TxAction>) {
        let v = &self.view[r];
        let outstanding = v.snd_nxt > v.snd_una || self.subs[r].phase == TxPhase::SynSent;
        if outstanding {
            out.push(TxAction::ArmRto(r as u8, now + self.subs[r].rtt.rto()));
        } else {
            out.push(TxAction::CancelRto(r as u8));
        }
    }

    fn complete(&mut self, now: SimTime, out: &mut Vec<TxAction>) {
        self.completed = true;
        self.stats.completed = Some(now);
        for r in 0..self.subs.len() {
            out.push(TxAction::CancelRto(r as u8));
        }
        out.push(TxAction::Completed);
    }

    /// The initial congestion window this sender was configured with.
    pub fn initial_cwnd(&self) -> f64 {
        self.initial_cwnd
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::Reno;
    use crate::segment::EchoMode;

    fn spec() -> SubflowSpec {
        SubflowSpec {
            local_port: PortId(0),
            src: Addr::new(10, 0, 0, 1),
            dst: Addr::new(10, 0, 0, 2),
        }
    }

    fn sender(total: u64) -> MpSender {
        MpSender::new(
            1,
            vec![spec()],
            total,
            Box::new(Reno::new()),
            &StackConfig::default(),
            SimTime::ZERO,
        )
    }

    fn emitted(out: &[TxAction]) -> Vec<&Segment> {
        out.iter()
            .filter_map(|a| match a {
                TxAction::Emit(_, s) => Some(s),
                _ => None,
            })
            .collect()
    }

    fn ack(ackno: u64, tsecr: u64) -> Segment {
        Segment::ack(1, 0, ackno, 0, 1, tsecr)
    }

    #[test]
    fn handshake_then_initial_window_burst() {
        let mut s = sender(1_000_000);
        let mut out = Vec::new();
        s.open(SimTime::ZERO, &mut out);
        let syns = emitted(&out);
        assert_eq!(syns.len(), 1);
        assert_eq!(syns[0].kind, SegKind::Syn);
        assert_eq!(syns[0].echo_mode, EchoMode::None);

        let mut out = Vec::new();
        let sa = Segment::syn_ack(syns[0], 5);
        s.on_segment(&sa, SimTime::from_micros(100), &mut out);
        let data = emitted(&out);
        // IW = 10 full segments.
        assert_eq!(data.len(), 10);
        assert!(data
            .iter()
            .all(|d| d.kind == SegKind::Data && d.len == 1460));
        assert_eq!(data[0].seq, 0);
        assert_eq!(data[9].seq, 9 * 1460);
        // SYN RTT got sampled.
        assert_eq!(s.stats().rtt_count, 1);
    }

    #[test]
    fn acks_advance_and_slow_start_doubles() {
        let mut s = sender(10_000_000);
        let mut out = Vec::new();
        s.open(SimTime::ZERO, &mut out);
        let syn_ts = emitted(&out)[0].tsval;
        let mut out = Vec::new();
        s.on_segment(
            &Segment::syn_ack(&Segment::syn(1, 0, syn_ts, EchoMode::None), 0),
            SimTime::from_micros(100),
            &mut out,
        );
        // Ack 2 segments: cwnd 10 -> 12, window slides by 2.
        let mut out = Vec::new();
        s.on_segment(&ack(2 * 1460, 0), SimTime::from_micros(200), &mut out);
        let data = emitted(&out);
        assert_eq!(data.len(), 4, "2 slid + 2 grown");
        assert!((s.view()[0].cwnd - 12.0).abs() < 1e-9);
    }

    #[test]
    fn triple_dupack_triggers_fast_retransmit() {
        let mut s = sender(10_000_000);
        let mut out = Vec::new();
        s.open(SimTime::ZERO, &mut out);
        let mut out = Vec::new();
        s.on_segment(
            &Segment::syn_ack(&Segment::syn(1, 0, 0, EchoMode::None), 0),
            SimTime::from_micros(100),
            &mut out,
        );
        // Move out of slow start for a clean check.
        s.view[0].ssthresh = 8.0;
        let mut out = Vec::new();
        for _ in 0..3 {
            s.on_segment(&ack(0, 0), SimTime::from_micros(300), &mut out);
        }
        let segs = emitted(&out);
        // The dupack pipe discount yields RFC 3042 limited transmit: the
        // first two dupacks each release one *new* segment, the third
        // triggers the fast retransmit of the hole.
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].seq, 10 * 1460);
        assert_eq!(segs[1].seq, 11 * 1460);
        assert_eq!(segs[2].seq, 0, "fast retransmit of the hole");
        assert!(s.view()[0].in_recovery);
        assert_eq!(s.stats().fast_retransmits, 1);
        // cwnd collapses to ssthresh = cwnd/2 = 5; the dupack pipe
        // discount (not window inflation) governs what may still be sent.
        assert!((s.view()[0].cwnd - 5.0).abs() < 1e-9);
    }

    #[test]
    fn rto_collapses_window_and_goes_back_n() {
        let mut s = sender(10_000_000);
        let mut out = Vec::new();
        s.open(SimTime::ZERO, &mut out);
        let mut out = Vec::new();
        s.on_segment(
            &Segment::syn_ack(&Segment::syn(1, 0, 0, EchoMode::None), 0),
            SimTime::from_micros(100),
            &mut out,
        );
        assert_eq!(s.view()[0].snd_nxt, 10 * 1460);
        let mut out = Vec::new();
        s.on_rto(0, SimTime::from_millis(300), &mut out);
        assert!((s.view()[0].cwnd - 1.0).abs() < 1e-9);
        assert!((s.view()[0].ssthresh - 5.0).abs() < 1e-9);
        let rtx = emitted(&out);
        assert_eq!(rtx.len(), 1);
        assert_eq!(rtx[0].seq, 0);
        assert_eq!(s.stats().rtos, 1);
        // Further acks re-grow and resend the already-allocated bytes before
        // touching fresh data.
        let mut out = Vec::new();
        s.on_segment(&ack(1460, 0), SimTime::from_millis(301), &mut out);
        let segs = emitted(&out);
        assert_eq!(segs[0].seq, 1460, "resend continues where ack left off");
    }

    /// A late ACK for data sent *before* an RTO rollback acknowledges bytes
    /// beyond the rolled-back `snd_nxt` (`snd_nxt < ack <= sub_allocated`).
    /// The sender must fast-forward `snd_nxt` past the acked bytes instead
    /// of resending them — the go-back-N resend resumes at the hole.
    #[test]
    fn late_ack_after_rto_rollback_fast_forwards_snd_nxt() {
        let mut s = sender(10_000_000);
        let mut out = Vec::new();
        s.open(SimTime::ZERO, &mut out);
        let mut out = Vec::new();
        s.on_segment(
            &Segment::syn_ack(&Segment::syn(1, 0, 0, EchoMode::None), 0),
            SimTime::from_micros(100),
            &mut out,
        );
        // IW burst: 10 segments allocated to the subflow.
        assert_eq!(s.view()[0].snd_nxt, 10 * 1460);
        // RTO: go-back-N rolls snd_nxt back to snd_una and resends the head
        // at cwnd = 1.
        let mut out = Vec::new();
        s.on_rto(0, SimTime::from_millis(300), &mut out);
        assert_eq!(s.view()[0].snd_nxt, 1460, "head resent at cwnd = 1");
        // The late ACK covers 5 pre-rollback segments.
        let mut out = Vec::new();
        s.on_segment(&ack(5 * 1460, 0), SimTime::from_millis(301), &mut out);
        assert_eq!(s.view()[0].snd_una, 5 * 1460);
        assert!(
            s.view()[0].snd_nxt >= 5 * 1460,
            "snd_nxt fast-forwarded past the acked bytes"
        );
        let segs = emitted(&out);
        assert!(!segs.is_empty());
        assert_eq!(
            segs[0].seq,
            5 * 1460,
            "resend resumes at the first unacked byte, not at the rollback"
        );
        assert_eq!(s.stats().bytes_acked, 5 * 1460);
    }

    #[test]
    fn completes_and_signals_exactly_once() {
        let total = 3000u64; // 2 full segments + 80 bytes
        let mut s = sender(total);
        let mut out = Vec::new();
        s.open(SimTime::ZERO, &mut out);
        let mut out = Vec::new();
        s.on_segment(
            &Segment::syn_ack(&Segment::syn(1, 0, 0, EchoMode::None), 0),
            SimTime::from_micros(100),
            &mut out,
        );
        let data = emitted(&out);
        assert_eq!(data.len(), 3);
        assert_eq!(data[2].len, 3000 - 2 * 1460);
        assert!(data[2].push, "final segment carries PSH");
        assert!(!data[0].push);
        let mut out = Vec::new();
        s.on_segment(&ack(total, 0), SimTime::from_micros(400), &mut out);
        assert!(s.is_completed());
        assert!(matches!(out.last(), Some(TxAction::Completed)));
        assert_eq!(s.stats().completed, Some(SimTime::from_micros(400)));
        assert_eq!(s.stats().bytes_acked, total);
        // Goodput: 3000 B in 400 us.
        let g = s.stats().goodput_bps(SimTime::from_micros(400));
        assert!((g - 3000.0 * 8.0 / 400e-6).abs() / g < 1e-9);
    }

    #[test]
    fn multipath_allocation_splits_across_subflows() {
        let mut s = MpSender::new(
            1,
            vec![spec(), spec()],
            1_000_000,
            Box::new(Reno::new()),
            &StackConfig::default(),
            SimTime::ZERO,
        );
        let mut out = Vec::new();
        s.open(SimTime::ZERO, &mut out);
        assert_eq!(emitted(&out).len(), 2, "one SYN per subflow");
        let mut out = Vec::new();
        s.on_segment(
            &Segment::syn_ack(&Segment::syn(1, 0, 0, EchoMode::None), 0),
            SimTime::from_micros(100),
            &mut out,
        );
        s.on_segment(
            &Segment::syn_ack(&Segment::syn(1, 1, 0, EchoMode::None), 0),
            SimTime::from_micros(120),
            &mut out,
        );
        let data = emitted(&out);
        assert_eq!(data.len(), 20, "IW on each subflow");
        // Each subflow starts its own sequence space at 0.
        assert_eq!(data.iter().filter(|d| d.subflow == 0).count(), 10);
        assert_eq!(data.iter().filter(|d| d.seq == 0).count(), 2);
    }

    #[test]
    fn syn_timeout_retries_with_backoff() {
        let mut s = sender(1000);
        let mut out = Vec::new();
        s.open(SimTime::ZERO, &mut out);
        let mut out = Vec::new();
        s.on_rto(0, SimTime::from_millis(200), &mut out);
        let seg = emitted(&out);
        assert_eq!(seg[0].kind, SegKind::Syn);
        // Backoff doubled the next RTO.
        match out.last().unwrap() {
            TxAction::ArmRto(_, at) => {
                assert_eq!(*at, SimTime::from_millis(200 + 400));
            }
            other => panic!("expected ArmRto, got {other:?}"),
        }
    }

    #[test]
    fn dupacks_without_outstanding_data_ignored() {
        let mut s = sender(1460);
        let mut out = Vec::new();
        s.open(SimTime::ZERO, &mut out);
        let mut out = Vec::new();
        s.on_segment(
            &Segment::syn_ack(&Segment::syn(1, 0, 0, EchoMode::None), 0),
            SimTime::from_micros(100),
            &mut out,
        );
        let mut out = Vec::new();
        s.on_segment(&ack(1460, 0), SimTime::from_micros(200), &mut out);
        assert!(s.is_completed());
        // Late duplicate does nothing.
        let mut out = Vec::new();
        s.on_segment(&ack(1460, 0), SimTime::from_micros(300), &mut out);
        assert!(out.is_empty());
    }
}
