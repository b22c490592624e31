//! Isolated kernels: one public operation of one layer in a loop, with
//! nothing else running. The traced run says how much time the big buckets
//! hold; the kernels say how much of a bucket a single operation explains.
//!
//! Every kernel is sized by what the traced run of the same workload
//! reported (population, event mix, schemes, mark fraction, counts) and
//! never by the workload's name.

use crate::trace::PacketSample;
use crate::workloads::{Counts, K_MARK, QUEUE_CAP};
use std::hint::black_box;
use std::time::{Duration, Instant};
use xmp_des::{ByteSize, EventQueue, SimDuration, SimRng, SimTime};
use xmp_netsim::{
    Addr, Agent, Ecn, FlowId, LinkId, NetEvent, NodeId, Packet, PortId, Qdisc, QdiscConfig, Sim,
};
use xmp_transport::{
    AckInfo, CongestionControl, MpReceiver, MpSender, ReplyPath, RxAction, SegKind, Segment,
    StackConfig, SubflowCc, SubflowSpec, TxAction, DEFAULT_MSS,
};
use xmp_workloads::Scheme;

/// Wall-clock budget of one kernel.
const BUDGET: Duration = Duration::from_millis(150);

/// Run `pass` (which returns the operations it performed) until the budget
/// is spent, at least three times, and return the median ns per operation.
fn median_ns_per_op(mut pass: impl FnMut() -> u64) -> f64 {
    let mut per_op = Vec::new();
    let t0 = Instant::now();
    while per_op.len() < 3 || t0.elapsed() < BUDGET {
        let t = Instant::now();
        let ops = pass();
        per_op.push(t.elapsed().as_nanos() as f64 / ops.max(1) as f64);
    }
    per_op.sort_by(f64::total_cmp);
    per_op[per_op.len() / 2]
}

/// `des.hold_ns`: the classic hold model on the library's `EventQueue` —
/// pop the earliest event and push one a workload-typical delay later — at
/// the workload's mean pending population, with its mix of serialization,
/// propagation and timer delays, carrying the simulator's own event type.
pub fn des_hold(c: &Counts, timer_delay: SimDuration) -> f64 {
    let population = (c.pending_mean.round() as usize).max(1);
    // One delay per scheduled event kind, weighted by how many the run saw.
    let mix = [
        (c.tx_done, c.mean_serialize_ns),
        (c.hops, c.mean_propagate_ns),
        (c.timers, timer_delay.as_nanos() as f64),
    ];
    let total: u64 = mix.iter().map(|m| m.0).sum();
    if total == 0 {
        return 0.0;
    }
    let mut rng = SimRng::new(0xde5);
    let delays: Vec<u64> = (0..4096)
        .map(|_| {
            let mut pick = rng.uniform_u64(0, total);
            let mut base = mix[0].1;
            for &(count, delay_ns) in &mix {
                base = delay_ns;
                if pick < count {
                    break;
                }
                pick -= count;
            }
            (base * (0.5 + rng.unit_f64())).max(1.0) as u64
        })
        .collect();
    let event = || NetEvent::<Segment>::TxDone {
        link: LinkId(0),
        dir: 0,
        gen: 0,
    };
    let mut q: EventQueue<NetEvent<Segment>> = EventQueue::new();
    for i in 0..population {
        q.push_keyed(
            SimTime::from_nanos(delays[i % delays.len()]),
            i as u64 & 1023,
            event(),
        );
    }
    let mut i = 0usize;
    median_ns_per_op(|| {
        const OPS: u64 = 200_000;
        for _ in 0..OPS {
            let ev = q.pop().expect("hold model keeps the population constant");
            i = (i + 1) % delays.len();
            q.push_keyed(ev.at + SimDuration::from_nanos(delays[i]), ev.key, ev.event);
        }
        black_box(q.len());
        OPS
    })
}

fn data_packet(seq: u64) -> Packet<Segment> {
    Packet::new(
        Addr::new(10, 0, 0, 2),
        Addr::new(10, 1, 0, 2),
        FlowId(seq & 7),
        Ecn::Ect,
        ByteSize::from_bytes(u64::from(DEFAULT_MSS) + 40),
        Segment::data(1, 0, seq * u64::from(DEFAULT_MSS), DEFAULT_MSS, 1, false),
    )
}

/// `netsim.qdisc_ns`: one enqueue plus one dequeue on the paper's
/// threshold marker, at a depth just under K (no mark) and just over K
/// (mark), weighted by the workload's per-hop mark fraction.
pub fn qdisc(mark_frac: f64) -> f64 {
    let at_depth = |depth: usize| {
        let mut q = QdiscConfig::EcnThreshold {
            cap: QUEUE_CAP,
            k: K_MARK,
        }
        .build::<Segment>();
        for s in 0..depth {
            q.enqueue(data_packet(s as u64));
        }
        let mut seq = depth as u64;
        median_ns_per_op(|| {
            const OPS: u64 = 200_000;
            for _ in 0..OPS {
                seq += 1;
                black_box(q.enqueue(black_box(data_packet(seq))));
                black_box(q.dequeue());
            }
            OPS
        })
    };
    let f = mark_frac.clamp(0.0, 1.0);
    (1.0 - f) * at_depth(K_MARK - 2) + f * at_depth(K_MARK + 2)
}

/// `netsim.fib_lookup_ns`: `Sim::route_on` over the (switch, dst, flow)
/// lookups the sampled packets of this run made on their way through the
/// topology, replayed against the run's own tables.
pub fn fib_lookup<A: Agent<Segment>>(sim: &Sim<Segment, A>, samples: &[PacketSample]) -> f64 {
    let mut lookups: Vec<(NodeId, Addr, FlowId, PortId)> = Vec::new();
    let step = |node: NodeId, port: PortId| {
        let (link, dir) = sim.node(node).ports[port.0 as usize];
        let d = sim.link(link).dir(dir);
        (d.to_node, d.to_port)
    };
    for s in samples {
        let Some(src) = sim.lookup_addr(s.src) else {
            continue;
        };
        let (mut node, mut in_port) = step(src, PortId(0));
        // A path longer than any in-tree topology's diameter is a loop.
        for _ in 0..16 {
            if sim.node(node).is_host() {
                break;
            }
            let out = sim.route_on(node, s.dst, s.flow, in_port);
            lookups.push((node, s.dst, s.flow, in_port));
            (node, in_port) = step(node, out);
        }
    }
    if lookups.is_empty() {
        return 0.0;
    }
    median_ns_per_op(|| {
        let mut acc = 0u64;
        for _ in 0..8 {
            for &(node, dst, flow, in_port) in &lookups {
                acc += u64::from(sim.route_on(node, black_box(dst), flow, in_port).0);
            }
        }
        black_box(acc);
        8 * lookups.len() as u64
    })
}

/// `transport.ack_ns` / `transport.data_ns`: `MpSender::on_segment` and
/// `MpReceiver::on_data` in a network-less loop — what the sender emits is
/// handed to the receiver half an RTT later and back — for flows of the
/// workload's mean size under its scheme, with CE set on the fraction of
/// data segments the workload's receivers saw marked. Each direction is
/// timed per window-sized batch, so the clock reads are amortized.
/// Returns (ns per ACK at the sender, ns per data segment at the receiver).
pub fn transport_loop(
    scheme: Scheme,
    flow_bytes: u64,
    ce_frac: f64,
    data_budget: u64,
    cfg: &StackConfig,
) -> (f64, f64) {
    let half_rtt = SimDuration::from_micros(100);
    let reply = ReplyPath {
        port: PortId(0),
        src: Addr::new(10, 1, 0, 2),
        dst: Addr::new(10, 0, 0, 2),
    };
    let specs: Vec<SubflowSpec> = (0..scheme.subflow_count())
        .map(|r| SubflowSpec {
            local_port: PortId(0),
            src: Addr::new(10, 0, 0, 2),
            dst: Addr::new(10, 1, 0, 2 + r as u8),
        })
        .collect();
    let mut rng = SimRng::new(0x7a11);
    let mut now = SimTime::ZERO;
    let (mut ack_ns, mut data_ns, mut acks, mut datas) = (0u128, 0u128, 0u64, 0u64);
    let mut tx_out: Vec<TxAction> = Vec::new();
    let mut rx_out: Vec<RxAction> = Vec::new();
    let mut to_rx: Vec<(Segment, bool)> = Vec::new();
    let mut to_tx: Vec<Segment> = Vec::new();
    let mut conn = 0u64;
    while datas < data_budget {
        conn += 1;
        let mut tx = MpSender::new(
            conn,
            specs.clone(),
            flow_bytes.max(1),
            scheme.make_cc(),
            cfg,
            now,
        );
        let mut rx = MpReceiver::new(conn, tx.cc().echo_mode(), cfg.delack_timeout);
        tx.open(now, &mut tx_out);
        while !tx.is_completed() {
            to_rx.clear();
            for act in tx_out.drain(..) {
                if let TxAction::Emit(_, seg) = act {
                    to_rx.push((seg, rng.chance(ce_frac)));
                }
            }
            if to_rx.is_empty() {
                break; // nothing in flight: the loop cannot make progress
            }
            now += half_rtt;
            let mut delack: [bool; 8] = [false; 8];
            let t = Instant::now();
            for (seg, ce) in &to_rx {
                match seg.kind {
                    SegKind::Syn => rx.on_syn(seg, reply, now, &mut rx_out),
                    _ => rx.on_data(seg, *ce, now, &mut rx_out),
                }
            }
            data_ns += t.elapsed().as_nanos();
            datas += to_rx.len() as u64;
            to_tx.clear();
            for act in rx_out.drain(..) {
                match act {
                    RxAction::Emit(_, seg, _) => to_tx.push(seg),
                    RxAction::ArmDelack(r, _) => delack[r as usize] = true,
                    RxAction::CancelDelack(r) => delack[r as usize] = false,
                }
            }
            // A delayed ACK still armed at the end of the window fires.
            for r in (0..8).filter(|&r| delack[r]) {
                rx.on_delack(r, &mut rx_out);
            }
            for act in rx_out.drain(..) {
                if let RxAction::Emit(_, seg, _) = act {
                    to_tx.push(seg);
                }
            }
            now += half_rtt;
            let t = Instant::now();
            for seg in &to_tx {
                tx.on_segment(seg, now, &mut tx_out);
            }
            ack_ns += t.elapsed().as_nanos();
            acks += to_tx.len() as u64;
        }
        tx_out.clear();
        black_box(rx.delivered());
    }
    (
        ack_ns as f64 / acks.max(1) as f64,
        data_ns as f64 / datas.max(1) as f64,
    )
}

/// `core.cc_ack_ns`: `CongestionControl::on_ack` on the controller
/// `Scheme::make_cc()` builds, cycling over the scheme's subflows, every
/// ACK covering two segments each marked with the workload's CE fraction.
pub fn cc_ack(scheme: Scheme, ce_frac: f64) -> f64 {
    let n = scheme.subflow_count();
    let mss = u64::from(DEFAULT_MSS);
    let rtt = SimDuration::from_micros(200);
    let mut cc = scheme.make_cc();
    cc.init(n);
    let mut view: Vec<SubflowCc> = (0..n)
        .map(|_| {
            let mut v = SubflowCc::new(StackConfig::default().initial_cwnd);
            v.srtt = Some(rtt);
            v
        })
        .collect();
    let mut rng = SimRng::new(0xcc);
    let ce: Vec<u8> = (0..4096)
        .map(|_| u8::from(rng.chance(ce_frac)) + u8::from(rng.chance(ce_frac)))
        .collect();
    let mut now = SimTime::ZERO;
    let mut i = 0usize;
    median_ns_per_op(|| {
        const OPS: u64 = 200_000;
        for _ in 0..OPS {
            i += 1;
            let r = i % n;
            let v = &mut view[r];
            v.snd_una += 2 * mss;
            v.snd_nxt = v.snd_nxt.max(v.snd_una + v.cwnd as u64 * mss);
            let info = AckInfo {
                ack_seq: v.snd_una,
                newly_acked: 2 * mss,
                ce_count: ce[i % ce.len()],
                covered: 2,
                rtt_sample: Some(rtt),
                now,
                mss: DEFAULT_MSS,
            };
            now += SimDuration::from_nanos(500);
            cc.on_ack(r, black_box(&info), &mut view);
        }
        black_box(view[0].cwnd);
        OPS
    })
}
