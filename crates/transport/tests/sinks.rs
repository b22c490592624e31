//! One state machine, two sinks. A scripted XMP-2 connection — handshake,
//! a lost segment, a lost window and its RTO, completion — runs through
//! `HostStack` in a `Sim`; every input each host's stack got is then
//! replayed into an `MpSender` and an `MpReceiver` writing to `Vec`s. Both
//! must give the same packets, timers and signals in the same order.

use std::collections::HashMap;
use xmp_core::{CcKind, Xmp};
use xmp_des::{Bandwidth, SimDuration, SimTime};
use xmp_netsim::agent::Emit;
use xmp_netsim::routing::StaticRouter;
use xmp_netsim::{Addr, Agent, Ctx, Ecn, FlowId, LinkParams, Packet, PortId, QdiscConfig, Sim};
use xmp_transport::{
    CongestionControl, ConnKey, EchoMode, HostStack, MpReceiver, MpSender, ReplyPath, RxAction,
    SegKind, Segment, StackConfig, SubflowSpec, TxAction, DEFAULT_MSS,
};

const A: Addr = Addr::new(10, 0, 0, 1);
const B: Addr = Addr::new(10, 0, 0, 2);
const CONN: ConnKey = 7;
const TOTAL: u64 = 400_000;
const MSS: u64 = DEFAULT_MSS as u64;

fn specs() -> Vec<SubflowSpec> {
    let spec = SubflowSpec {
        local_port: PortId(0),
        src: A,
        dst: B,
    };
    vec![spec; 2]
}

fn xmp2() -> CcKind {
    CcKind::Xmp(Xmp::new(4))
}

/// What reached a host's stack.
enum Input {
    Open,
    Packet(Packet<Segment>, PortId),
    Timer(u64),
}

/// A host stack that logs each input, its time and what the stack
/// emitted for it, after dropping the packets `lose` picks (it is given
/// the packet, the time and how many copies of that segment came before).
struct Tap {
    stack: HostStack<CcKind>,
    lose: fn(&Segment, SimTime, usize) -> bool,
    copies: HashMap<(u8, u8, u64), usize>,
    log: Vec<(SimTime, Input, Vec<String>)>,
}

impl Tap {
    fn new(lose: fn(&Segment, SimTime, usize) -> bool) -> Self {
        Tap {
            stack: HostStack::new(StackConfig::default()),
            lose,
            copies: HashMap::new(),
            log: Vec::new(),
        }
    }

    fn record(&mut self, input: Input, ctx: &Ctx<'_, Segment>) {
        let out = ctx.emitted().iter().map(|e| format!("{e:?}")).collect();
        self.log.push((ctx.now(), input, out));
    }
}

impl Agent<Segment> for Tap {
    fn on_packet(&mut self, pkt: Packet<Segment>, port: PortId, ctx: &mut Ctx<'_, Segment>) {
        let seg = pkt.payload;
        let copies = self
            .copies
            .entry((seg.kind as u8, seg.subflow, seg.seq))
            .or_default();
        *copies += 1;
        if (self.lose)(&seg, ctx.now(), *copies - 1) {
            return;
        }
        self.stack.on_packet(pkt.clone(), port, ctx);
        self.record(Input::Packet(pkt, port), ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, Segment>) {
        self.stack.on_timer(token, ctx);
        self.record(Input::Timer(token), ctx);
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// The stack's timer token: key, subflow, and bit 0 set for the
/// delayed-ACK timer.
fn token(r: u8, delack: bool) -> u64 {
    (CONN << 4) | (u64::from(r) << 1) | u64::from(delack)
}

fn show(e: Emit<Segment>) -> String {
    format!("{e:?}")
}

/// What the stack must emit for a sender's actions: data on flow
/// `conn << 3 | r`, ECT on data segments under a controller that reads
/// echoes, the subflow's addressing; RTO timers; the completion signal.
fn tx_emits(out: Vec<TxAction>, s: &MpSender<CcKind>) -> Vec<String> {
    let emit = |act| match act {
        TxAction::Emit(r, seg) => {
            let spec = s.spec(r as usize);
            let ect = seg.kind == SegKind::Data && s.cc().echo_mode() != EchoMode::None;
            let ecn = if ect { Ecn::Ect } else { Ecn::NotEct };
            let flow = FlowId((CONN << 3) | u64::from(r));
            let pkt = Packet::new(spec.src, spec.dst, flow, ecn, seg.wire_size(), seg);
            Emit::Send {
                port: spec.local_port,
                pkt,
            }
        }
        TxAction::ArmRto(r, at) => Emit::SetTimer {
            token: token(r, false),
            at,
        },
        TxAction::CancelRto(r) => Emit::CancelTimer {
            token: token(r, false),
        },
        TxAction::Completed => Emit::Signal(CONN),
    };
    out.into_iter().map(emit).map(show).collect()
}

/// What the stack must emit for a receiver's actions: ACKs on the
/// reverse flow id (bit 62 set), never ECT, on the reply path;
/// delayed-ACK timers.
fn rx_emits(out: Vec<RxAction>) -> Vec<String> {
    let emit = |act| match act {
        RxAction::Emit(r, seg, reply) => {
            let flow = FlowId(((CONN << 3) | u64::from(r)) ^ (1 << 62));
            let pkt = Packet::new(
                reply.src,
                reply.dst,
                flow,
                Ecn::NotEct,
                seg.wire_size(),
                seg,
            );
            Emit::Send {
                port: reply.port,
                pkt,
            }
        }
        RxAction::ArmDelack(r, at) => Emit::SetTimer {
            token: token(r, true),
            at,
        },
        RxAction::CancelDelack(r) => Emit::CancelTimer {
            token: token(r, true),
        },
    };
    out.into_iter().map(emit).map(show).collect()
}

/// The sending host's inputs, replayed into an `MpSender` over a `Vec`.
fn replay_sender(log: &[(SimTime, Input, Vec<String>)]) -> Vec<Vec<String>> {
    let cfg = StackConfig::default();
    let mut sender: Option<MpSender<CcKind>> = None;
    let mut each = Vec::new();
    for (now, input, _) in log {
        let mut out = Vec::new();
        match input {
            Input::Open => {
                let s = sender.insert(MpSender::new(CONN, specs(), TOTAL, xmp2(), &cfg, *now));
                s.open(*now, &mut out);
            }
            Input::Packet(pkt, _) => {
                let s = sender.as_mut().expect("opened first");
                s.on_segment(&pkt.payload, *now, &mut out);
            }
            Input::Timer(tok) => {
                assert_eq!(tok & 1, 0, "a sender arms only RTO timers");
                let s = sender.as_mut().expect("opened first");
                s.on_rto((tok >> 1 & 7) as usize, *now, &mut out);
            }
        }
        each.push(tx_emits(out, sender.as_ref().expect("opened first")));
    }
    each
}

/// The receiving host's inputs, replayed into an `MpReceiver` over a `Vec`.
fn replay_receiver(log: &[(SimTime, Input, Vec<String>)]) -> Vec<Vec<String>> {
    let cfg = StackConfig::default();
    let mut receiver: Option<MpReceiver> = None;
    let mut each = Vec::new();
    for (now, input, _) in log {
        let mut out = Vec::new();
        match input {
            Input::Open => unreachable!("the receiving host opens nothing"),
            Input::Packet(pkt, port) => {
                let seg = &pkt.payload;
                let rx = receiver.get_or_insert_with(|| {
                    MpReceiver::new(CONN, seg.echo_mode, cfg.delack_timeout)
                });
                match seg.kind {
                    SegKind::Syn => {
                        let reply = ReplyPath {
                            port: *port,
                            src: pkt.dst,
                            dst: pkt.src,
                        };
                        rx.on_syn(seg, reply, *now, &mut out);
                    }
                    _ => rx.on_data(seg, pkt.ecn == Ecn::Ce, *now, &mut out),
                }
            }
            Input::Timer(tok) => {
                assert_eq!(tok & 1, 1, "a receiver arms only delayed-ACK timers");
                let rx = receiver.as_mut().expect("a SYN came first");
                rx.on_delack((tok >> 1 & 7) as usize, &mut out);
            }
        }
        each.push(rx_emits(out));
    }
    each
}

/// Subflow 0 loses the first copy of its eleventh segment (three
/// duplicate ACKs follow: a fast retransmit); subflow 1 loses every data
/// segment that reaches the receiver in [3 ms, 50 ms), its whole window
/// and whatever is resent inside it (no duplicate ACK comes back: an RTO).
fn lose(seg: &Segment, now: SimTime, copies: usize) -> bool {
    let blackout = (SimTime::from_millis(3)..SimTime::from_millis(50)).contains(&now);
    match (seg.kind, seg.subflow) {
        (SegKind::Data, 0) => seg.seq == 10 * MSS && copies == 0,
        (SegKind::Data, _) => blackout,
        _ => false,
    }
}

#[test]
fn host_stack_and_vec_sinks_see_the_same_connection() {
    let mut sim: Sim<Segment, Tap> = Sim::new(1);
    let a = sim.add_host("a", Tap::new(|_, _, _| false));
    let b = sim.add_host("b", Tap::new(lose));
    let sw = sim.add_switch("sw", Box::new(StaticRouter::new()));
    let params = LinkParams::new(
        Bandwidth::from_mbps(100),
        SimDuration::from_micros(100),
        QdiscConfig::EcnThreshold { cap: 200, k: 20 },
    );
    sim.connect(a, sw, &params, "a-sw");
    sim.connect(b, sw, &params, "b-sw");
    sim.set_router(
        sw,
        Box::new(StaticRouter::new().to(A, PortId(0)).to(B, PortId(1))),
    );
    sim.bind_addr(A, a);
    sim.bind_addr(B, b);

    sim.with_agent::<Tap, _>(a, |tap, ctx| {
        tap.stack.open(ctx, CONN, specs(), TOTAL, xmp2());
        tap.record(Input::Open, ctx);
    });
    let mut signals = Vec::new();
    sim.run_until(SimTime::from_secs(5), |_, node, code| {
        signals.push((node, code))
    });
    assert_eq!(signals, [(a, CONN)]);

    let (a_log, b_log) = (
        sim.with_agent::<Tap, _>(a, |tap, _| std::mem::take(&mut tap.log)),
        sim.with_agent::<Tap, _>(b, |tap, _| std::mem::take(&mut tap.log)),
    );
    // The script reached every part of the connection's life.
    let stats = sim.with_agent::<Tap, _>(a, |tap, _| {
        tap.stack.conn_stats(CONN).expect("a sender");
        tap.stack.sender(CONN).expect("not retired").stats().clone()
    });
    assert_eq!(stats.bytes_acked, TOTAL);
    assert!(stats.completed.is_some());
    assert!(stats.fast_retransmits >= 1, "{stats:?}");
    assert!(stats.rtos >= 1, "{stats:?}");
    let delivered = sim.with_agent::<Tap, _>(b, |tap, _| {
        tap.stack.receiver(CONN).expect("a receiver").delivered()
    });
    assert_eq!(delivered, TOTAL);
    assert!(a_log.iter().any(|(_, i, _)| matches!(i, Input::Timer(_))));
    assert!(b_log.iter().any(|(_, i, _)| matches!(i, Input::Timer(_))));

    for (log, replayed) in [
        (&a_log, replay_sender(&a_log)),
        (&b_log, replay_receiver(&b_log)),
    ] {
        assert_eq!(log.len(), replayed.len());
        for ((now, _, stack), vec) in log.iter().zip(&replayed) {
            assert_eq!(stack, vec, "at {now:?}");
        }
    }
    let emitted: usize = a_log
        .iter()
        .chain(&b_log)
        .map(|(_, _, out)| out.len())
        .sum();
    assert!(emitted > 2 * TOTAL.div_ceil(MSS) as usize);
}
