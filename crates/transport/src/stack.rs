//! The host protocol stack: a [`netsim` agent](xmp_netsim::Agent) that
//! multiplexes any number of sending and receiving connections on one host,
//! turning what the pure sender/receiver state machines do into packets and
//! timers as they do it.
//!
//! Drivers open connections with [`HostStack::open`] (via
//! [`Sim::with_agent`](xmp_netsim::Sim::with_agent)); when a sending
//! connection's last byte is acknowledged, the stack raises the connection
//! key as a simulation **signal** so workloads can react immediately
//! (goodput accounting, starting follow-up flows, job bookkeeping).

use crate::cc::CongestionControl;
use crate::config::StackConfig;
use crate::receiver::{MpReceiver, ReplyPath, RxAction};
use crate::segment::{ConnKey, SegKind, Segment};
use crate::sender::{ConnStats, MpSender, SubflowSpec, TxAction};
use crate::sink::Sink;
use std::any::Any;
use xmp_des::ByteSize;
use xmp_netsim::hash::FxHashMap;
use xmp_netsim::{Agent, Ctx, Ecn, FlowId, Packet, PortId};

const KIND_RTO: u64 = 0;
const KIND_DELACK: u64 = 1;

fn token(conn: ConnKey, subflow: u8, kind: u64) -> u64 {
    debug_assert!(
        conn < 1 << 59,
        "connection key too large for timer encoding"
    );
    (conn << 4) | (u64::from(subflow) << 1) | kind
}

fn untoken(token: u64) -> (ConnKey, u8, u64) {
    (token >> 4, ((token >> 1) & 0x7) as u8, token & 1)
}

enum ConnState<C: CongestionControl> {
    /// Boxed: a sender is five times a receiver's size, and receivers —
    /// which stay in the table after their flow completes, so a late
    /// duplicate is still ACKed — are most of it.
    Tx(Box<MpSender<C>>),
    Rx(MpReceiver),
}

/// What [`HostStack::conn_stats`] reports of a sending connection, running
/// or retired. A retired sender's full [`ConnStats`] went to the caller of
/// [`HostStack::retire`]; its key and this count, 16 bytes, are all its
/// host keeps, so a caller can still check what each finished flow
/// delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Acked {
    /// Cumulative acknowledged bytes (across subflows).
    pub bytes_acked: u64,
}

/// One connection's [`Sink`] on a host: each action becomes a packet, timer
/// or signal on the simulator the moment the state machine takes it.
struct Wire<'c, 'a> {
    ctx: &'c mut Ctx<'a, Segment>,
    conn: ConnKey,
}

impl Wire<'_, '_> {
    /// The flow id of subflow `r`'s data direction; ACKs set bit 62 so the
    /// reverse direction hashes onto its own ECMP path.
    fn flow(&self, r: u8) -> FlowId {
        FlowId((self.conn << 3) | u64::from(r))
    }
}

impl Sink<TxAction> for Wire<'_, '_> {
    fn push(&mut self, act: TxAction) {
        match act {
            TxAction::Emit(..) => unreachable!("a sender emits through `Sink::emit`"),
            TxAction::ArmRto(r, at) => self.ctx.set_timer(token(self.conn, r, KIND_RTO), at),
            TxAction::CancelRto(r) => self.ctx.cancel_timer(token(self.conn, r, KIND_RTO)),
            TxAction::Completed => self.ctx.signal(self.conn),
        }
    }

    fn emit(&mut self, act: TxAction, spec: &SubflowSpec, ect: bool) {
        let TxAction::Emit(r, seg) = act else {
            return self.push(act);
        };
        let ecn = if ect { Ecn::Ect } else { Ecn::NotEct };
        let pkt = Packet::new(spec.src, spec.dst, self.flow(r), ecn, seg.wire_size(), seg);
        self.ctx.send(spec.local_port, pkt);
    }
}

impl Sink<RxAction> for Wire<'_, '_> {
    fn push(&mut self, act: RxAction) {
        match act {
            RxAction::Emit(r, seg, reply) => {
                let flow = FlowId(self.flow(r).0 ^ (1 << 62));
                let pkt = Packet::new(
                    reply.src,
                    reply.dst,
                    flow,
                    Ecn::NotEct,
                    seg.wire_size(),
                    seg,
                );
                self.ctx.send(reply.port, pkt);
            }
            RxAction::ArmDelack(r, at) => self.ctx.set_timer(token(self.conn, r, KIND_DELACK), at),
            RxAction::CancelDelack(r) => self.ctx.cancel_timer(token(self.conn, r, KIND_DELACK)),
        }
    }
}

/// Per-host transport stack.
///
/// Generic over the congestion controller `C` (see [`MpSender`]); the
/// default keeps heterogeneous boxed controllers working, while fixing `C`
/// to a closed enum devirtualizes the per-ACK hot path.
pub struct HostStack<C: CongestionControl = Box<dyn CongestionControl>> {
    cfg: StackConfig,
    conns: FxHashMap<ConnKey, ConnState<C>>,
    /// The acknowledged byte count of each sender [`HostStack::retire`]
    /// removed, sorted by key: all the table keeps of it.
    retired: Vec<(ConnKey, u64)>,
}

impl<C: CongestionControl> HostStack<C> {
    /// A stack with the given configuration.
    pub fn new(cfg: StackConfig) -> Self {
        HostStack {
            cfg,
            conns: FxHashMap::default(),
            retired: Vec::new(),
        }
    }

    /// The stack configuration.
    pub fn config(&self) -> &StackConfig {
        &self.cfg
    }

    /// Open a sending connection of `total` bytes (`u64::MAX` = unbounded)
    /// across `subflows`, controlled by `cc`. Emits the SYNs immediately.
    pub fn open(
        &mut self,
        ctx: &mut Ctx<'_, Segment>,
        conn: ConnKey,
        subflows: Vec<SubflowSpec>,
        total: u64,
        cc: C,
    ) {
        assert!(
            !self.conns.contains_key(&conn),
            "connection {conn} already exists on this host"
        );
        let now = ctx.now();
        let mut sender = MpSender::new(conn, subflows, total, cc, &self.cfg, now);
        sender.open(now, &mut Wire { ctx, conn });
        self.conns.insert(conn, ConnState::Tx(Box::new(sender)));
    }

    /// Join an extra subflow on a running sending connection.
    pub fn add_subflow(&mut self, ctx: &mut Ctx<'_, Segment>, conn: ConnKey, spec: SubflowSpec) {
        let Some(ConnState::Tx(s)) = self.conns.get_mut(&conn) else {
            panic!("add_subflow on unknown sending connection {conn}");
        };
        s.add_subflow(spec, &self.cfg, ctx.now(), &mut Wire { ctx, conn });
    }

    /// Drop a connection (used to stop unbounded background flows). Timers
    /// are implicitly stale-cancelled; in-flight packets are ignored on
    /// arrival.
    pub fn close(&mut self, ctx: &mut Ctx<'_, Segment>, conn: ConnKey) {
        if let Some(ConnState::Tx(s)) = self.conns.get(&conn) {
            for r in 0..s.subflow_count() {
                ctx.cancel_timer(token(conn, r as u8, KIND_RTO));
            }
        }
        self.conns.remove(&conn);
    }

    /// Remove the sender of a completed connection and return its
    /// statistics. A completed sender ignores every segment and timer and
    /// has cancelled its own, so the simulation runs on exactly as before;
    /// only [`HostStack::sender`] stops finding it. Without this a host
    /// holds every sender it ever opened. `None`, and nothing changes,
    /// unless `conn` is a completed sender.
    pub fn retire(&mut self, conn: ConnKey) -> Option<ConnStats> {
        if !matches!(self.conns.get(&conn), Some(ConnState::Tx(s)) if s.is_completed()) {
            return None;
        }
        let Some(ConnState::Tx(s)) = self.conns.remove(&conn) else {
            unreachable!("checked above");
        };
        let stats = s.stats().clone();
        match self.retired_at(conn) {
            Ok(i) => self.retired[i].1 = stats.bytes_acked,
            Err(i) => self.retired.insert(i, (conn, stats.bytes_acked)),
        }
        Some(stats)
    }

    fn retired_at(&self, conn: ConnKey) -> Result<usize, usize> {
        self.retired.binary_search_by_key(&conn, |&(c, _)| c)
    }

    /// Sending-connection accessor (stats, per-subflow windows/rates).
    pub fn sender(&self, conn: ConnKey) -> Option<&MpSender<C>> {
        match self.conns.get(&conn) {
            Some(ConnState::Tx(s)) => Some(s),
            _ => None,
        }
    }

    /// Bytes acknowledged on a sending connection, running or retired.
    /// The full stats of a running sender are [`HostStack::sender`]'s.
    pub fn conn_stats(&self, conn: ConnKey) -> Option<Acked> {
        let bytes_acked = match self.conns.get(&conn) {
            Some(ConnState::Tx(s)) => s.stats().bytes_acked,
            _ => self.retired[self.retired_at(conn).ok()?].1,
        };
        Some(Acked { bytes_acked })
    }

    /// Receiving-connection accessor.
    pub fn receiver(&self, conn: ConnKey) -> Option<&MpReceiver> {
        match self.conns.get(&conn) {
            Some(ConnState::Rx(r)) => Some(r),
            _ => None,
        }
    }

    /// Number of connections in the table: running senders and receivers.
    pub fn conn_count(&self) -> usize {
        self.conns.len()
    }
}

impl<C: CongestionControl + 'static> Agent<Segment> for HostStack<C> {
    fn on_packet(&mut self, pkt: Packet<Segment>, port: PortId, ctx: &mut Ctx<'_, Segment>) {
        let seg = pkt.payload; // Segment is Copy: no clone
        let conn = seg.conn;
        let now = ctx.now();
        match seg.kind {
            SegKind::Syn => {
                let rx = match self.conns.entry(conn).or_insert_with(|| {
                    ConnState::Rx(MpReceiver::new(
                        conn,
                        seg.echo_mode,
                        self.cfg.delack_timeout,
                    ))
                }) {
                    ConnState::Rx(r) => r,
                    // Key collision with a local sender: ignore.
                    ConnState::Tx(_) => return,
                };
                let reply = ReplyPath {
                    port,
                    src: pkt.dst,
                    dst: pkt.src,
                };
                rx.on_syn(&seg, reply, now, &mut Wire { ctx, conn });
            }
            SegKind::Data => {
                if let Some(ConnState::Rx(rx)) = self.conns.get_mut(&conn) {
                    let ce = pkt.ecn == Ecn::Ce;
                    rx.on_data(&seg, ce, now, &mut Wire { ctx, conn });
                }
            }
            SegKind::SynAck | SegKind::Ack => {
                if let Some(ConnState::Tx(tx)) = self.conns.get_mut(&conn) {
                    tx.on_segment(&seg, now, &mut Wire { ctx, conn });
                }
            }
        }
    }

    fn on_timer(&mut self, tok: u64, ctx: &mut Ctx<'_, Segment>) {
        let (conn, subflow, kind) = untoken(tok);
        // A timer for a closed connection is stale: nothing to do.
        match (kind, self.conns.get_mut(&conn)) {
            (KIND_RTO, Some(ConnState::Tx(tx))) => {
                tx.on_rto(subflow as usize, ctx.now(), &mut Wire { ctx, conn });
            }
            (KIND_DELACK, Some(ConnState::Rx(rx))) => {
                rx.on_delack(subflow as usize, &mut Wire { ctx, conn });
            }
            _ => {}
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Convenience: wire size of a full data packet under `cfg`.
pub fn full_packet_size(cfg: &StackConfig) -> ByteSize {
    ByteSize::from_bytes(u64::from(cfg.mss) + u64::from(crate::segment::HEADER_BYTES))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_round_trip() {
        for conn in [0u64, 1, 77, 1 << 40] {
            for sub in 0..8u8 {
                for kind in [KIND_RTO, KIND_DELACK] {
                    assert_eq!(untoken(token(conn, sub, kind)), (conn, sub, kind));
                }
            }
        }
    }

    #[test]
    fn a_table_entry_is_a_receiver_or_a_pointer() {
        // A host keeps every receiver it ever had, so an entry is paid once
        // per flow. `Tx` is a box: the controller type does not change it.
        assert!(std::mem::size_of::<ConnState<Box<dyn CongestionControl>>>() <= 56);
        assert!(std::mem::size_of::<ConnState<crate::Dctcp>>() <= 56);
    }

    #[test]
    fn a_host_stack_holds_no_action_buffers() {
        // Paid once per host (1 024 on a k = 16 fat tree): the config, the
        // table and the retired receipts. Actions go straight to the
        // simulator's emit buffer. The controller sits behind the table's
        // box, so every `C` (`xmp-core`'s `CcKind` too) gives this size.
        assert!(std::mem::size_of::<HostStack<Box<dyn CongestionControl>>>() <= 104);
        assert!(std::mem::size_of::<HostStack<crate::Dctcp>>() <= 104);
    }

    #[test]
    fn full_packet_is_1500() {
        assert_eq!(full_packet_size(&StackConfig::default()).as_bytes(), 1500);
    }
}
