//! Tracing from outside the program: spans at the public boundary of each
//! layer, recorded by wrappers the benchmark owns. Nothing in the library
//! is touched; spans inside the engine are a later change.
//!
//! Two kinds of span:
//!
//! * **Phase spans** (`topo.build`, `netsim.compile_fibs`, ...) happen a few
//!   times per repetition and are kept individually with their parent id.
//!   Both the traced and the untraced run record them — they are where
//!   `setup_s` and `wall_s` come from.
//! * **Event spans** (`transport.on_packet`, `netsim.run_signals`, ...)
//!   happen millions of times and are aggregated per name into
//!   (count, total, self, max). Only the traced run enters them.
//!
//! Self time is a span's duration minus the part its child spans cover, so
//! the self times of all spans under a phase add up to the phase.

use std::any::Any;
use std::cell::RefCell;
use std::time::Instant;
use xmp_des::SimTime;
use xmp_netsim::{
    Addr, Agent, Ctx, Ecn, FlowId, FluidFlowStats, FluidId, FluidSpec, NodeId, Packet, PortId,
};
use xmp_transport::{SegKind, Segment};
use xmp_workloads::{FlowSim, Host};

/// The aggregated event spans, named `<layer>.<boundary>`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum Ev {
    RunSignals,
    WithHost,
    AdvanceTo,
    FluidCall,
    OnPacket,
    OnTimer,
    HostClosure,
    DriverRun,
    OnSignal,
}

pub const EV_COUNT: usize = 9;
pub const EV_NAMES: [&str; EV_COUNT] = [
    "netsim.run_signals",
    "netsim.with_host",
    "netsim.advance_to",
    "netsim.fluid_call",
    "transport.on_packet",
    "transport.on_timer",
    "transport.host_closure",
    "workloads.driver_run",
    "workloads.on_signal",
];

/// One aggregated event span.
#[derive(Clone, Copy, Default, Debug)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub max_ns: u64,
}

/// One phase span, kept individually.
#[derive(Clone, Debug)]
pub struct Phase {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Nanoseconds of this phase covered by child spans of either kind.
    pub child_ns: u64,
}

impl Phase {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    /// Nanoseconds of the phase that no child span covers.
    pub fn self_ns(&self) -> u64 {
        self.end_ns - self.start_ns - self.child_ns
    }
}

/// A delivered packet's addressing, sampled by the agent wrapper so the FIB
/// kernel can replay the lookups the workload actually made.
#[derive(Clone, Copy, Debug)]
pub struct PacketSample {
    pub src: Addr,
    pub dst: Addr,
    pub flow: FlowId,
}

struct Open {
    ev: usize,
    start_ns: u64,
    child_ns: u64,
}

/// Everything one repetition recorded.
#[derive(Default, Debug)]
pub struct Record {
    pub phases: Vec<Phase>,
    pub agg: [Agg; EV_COUNT],
    pub samples: Vec<PacketSample>,
    /// Data segments handed to host agents, and how many carried CE: the
    /// mark fraction receivers saw, which sizes the transport kernels.
    pub data_delivered: u64,
    pub ce_delivered: u64,
}

impl Record {
    /// Seconds spent in the phases called `name`, summed.
    pub fn phase_secs(&self, name: &str) -> f64 {
        self.phases
            .iter()
            .filter(|p| p.name == name)
            .map(Phase::secs)
            .sum()
    }

    /// Self seconds of the phases called `name`, summed.
    pub fn phase_self_secs(&self, name: &str) -> f64 {
        self.phases
            .iter()
            .filter(|p| p.name == name)
            .map(|p| p.self_ns() as f64 / 1e9)
            .sum()
    }

    /// Self seconds of the given event spans, summed.
    pub fn self_secs(&self, evs: &[Ev]) -> f64 {
        evs.iter()
            .map(|&e| self.agg[e as usize].self_ns)
            .sum::<u64>() as f64
            / 1e9
    }
}

struct Tracer {
    epoch: Instant,
    rec: Record,
    open: Vec<Open>,
    open_phases: Vec<usize>,
    delivered: u64,
    /// Every `sample_every`-th delivered packet is sampled.
    sample_every: u64,
}

/// Sampling starts at every `SAMPLE_EVERY`-th delivered packet. When
/// `SAMPLE_CAP` samples are held, every other one is dropped and packets are
/// sampled half as often from there on, so the samples are always evenly
/// spread over the whole run, however long it is.
const SAMPLE_EVERY: u64 = 61;
const SAMPLE_CAP: usize = 4096;

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        epoch: Instant::now(),
        rec: Record::default(),
        open: Vec::with_capacity(16),
        open_phases: Vec::new(),
        delivered: 0,
        sample_every: SAMPLE_EVERY,
    });
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Drop whatever was recorded and start a fresh record.
pub fn reset() {
    TRACER.with_borrow_mut(|t| {
        assert!(
            t.open.is_empty() && t.open_phases.is_empty(),
            "reset inside a span"
        );
        t.rec = Record::default();
        t.rec.samples.reserve(SAMPLE_CAP);
        t.delivered = 0;
        t.sample_every = SAMPLE_EVERY;
    });
}

/// Take the record of the repetition that just ended.
pub fn take() -> Record {
    TRACER.with_borrow_mut(|t| {
        assert!(
            t.open.is_empty() && t.open_phases.is_empty(),
            "take inside a span"
        );
        std::mem::take(&mut t.rec)
    })
}

/// Run `f` as the phase `name`, a child of whatever phase is open.
pub fn phase<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let idx = TRACER.with_borrow_mut(|t| {
        let idx = t.rec.phases.len();
        let parent = t.open_phases.last().map(|&i| t.rec.phases[i].id);
        let start_ns = t.now_ns();
        t.rec.phases.push(Phase {
            id: idx as u32,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
            child_ns: 0,
        });
        t.open_phases.push(idx);
        idx
    });
    let r = f();
    TRACER.with_borrow_mut(|t| {
        let end_ns = t.now_ns();
        assert_eq!(t.open_phases.pop(), Some(idx), "phases must nest");
        t.rec.phases[idx].end_ns = end_ns;
        let dur = end_ns - t.rec.phases[idx].start_ns;
        if let Some(&p) = t.open_phases.last() {
            t.rec.phases[p].child_ns += dur;
        }
    });
    r
}

fn enter(ev: Ev) {
    TRACER.with_borrow_mut(|t| {
        let start_ns = t.now_ns();
        t.open.push(Open {
            ev: ev as usize,
            start_ns,
            child_ns: 0,
        });
    });
}

fn exit(ev: Ev) {
    TRACER.with_borrow_mut(|t| {
        let end_ns = t.now_ns();
        let o = t.open.pop().expect("exit without enter");
        debug_assert_eq!(o.ev, ev as usize);
        let dur = end_ns - o.start_ns;
        let a = &mut t.rec.agg[o.ev];
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += dur - o.child_ns.min(dur);
        a.max_ns = a.max_ns.max(dur);
        if let Some(parent) = t.open.last_mut() {
            parent.child_ns += dur;
        } else if let Some(&p) = t.open_phases.last() {
            t.rec.phases[p].child_ns += dur;
        }
    });
}

/// Run `f` as one event span.
pub fn span<R>(ev: Ev, f: impl FnOnce() -> R) -> R {
    enter(ev);
    let r = f();
    exit(ev);
    r
}

/// The wrapper that times a layer at its public boundary. Around a
/// [`FlowSim`] it times the calls the driver makes into the simulator;
/// around an [`Agent`] it times the calls the simulator makes into the
/// transport. All state lives in the thread's tracer, so the wrapper is
/// exactly as large as what it wraps.
#[repr(transparent)]
pub struct Timed<T>(pub T);

impl<T> Timed<T> {
    fn wrap_mut(inner: &mut T) -> &mut Timed<T> {
        // SAFETY: `Timed<T>` is `repr(transparent)` over its only field, so
        // `T` and `Timed<T>` have the same layout and validity, and the
        // returned borrow has the lifetime of the one it is made from.
        unsafe { &mut *(inner as *mut T).cast::<Timed<T>>() }
    }
}

impl<S: FlowSim> FlowSim for Timed<S> {
    fn now(&self) -> SimTime {
        self.0.now()
    }

    fn advance_to(&mut self, t: SimTime) {
        span(Ev::AdvanceTo, || self.0.advance_to(t));
    }

    fn with_host<R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut Host, &mut Ctx<'_, Segment>) -> R,
    ) -> R {
        span(Ev::WithHost, || {
            self.0
                .with_host(node, |host, ctx| span(Ev::HostClosure, || f(host, ctx)))
        })
    }

    fn run_signals(
        &mut self,
        deadline: SimTime,
        mut on_signal: impl FnMut(&mut Self, NodeId, u64),
    ) {
        span(Ev::RunSignals, || {
            self.0.run_signals(deadline, |inner, node, code| {
                span(Ev::OnSignal, || {
                    on_signal(Timed::wrap_mut(inner), node, code)
                });
            });
        });
    }

    fn fluid_supported(&self) -> bool {
        self.0.fluid_supported()
    }

    fn fluid_open(&mut self, spec: &FluidSpec) -> Option<FluidId> {
        span(Ev::FluidCall, || self.0.fluid_open(spec))
    }

    fn fluid_stats(&self, id: FluidId) -> Option<FluidFlowStats> {
        span(Ev::FluidCall, || self.0.fluid_stats(id))
    }

    fn fluid_stop(&mut self, id: FluidId) -> Option<FluidFlowStats> {
        span(Ev::FluidCall, || self.0.fluid_stop(id))
    }
}

impl<A: Agent<Segment>> Agent<Segment> for Timed<A> {
    fn on_packet(&mut self, pkt: Packet<Segment>, port: PortId, ctx: &mut Ctx<'_, Segment>) {
        TRACER.with_borrow_mut(|t| {
            t.delivered += 1;
            if pkt.payload.kind == SegKind::Data {
                t.rec.data_delivered += 1;
                t.rec.ce_delivered += u64::from(pkt.ecn == Ecn::Ce);
            }
            if t.delivered % t.sample_every == 0 {
                t.rec.samples.push(PacketSample {
                    src: pkt.src,
                    dst: pkt.dst,
                    flow: pkt.flow,
                });
                if t.rec.samples.len() == SAMPLE_CAP {
                    let mut nth = 0;
                    t.rec.samples.retain(|_| {
                        nth += 1;
                        nth % 2 == 0
                    });
                    t.sample_every *= 2;
                }
            }
        });
        span(Ev::OnPacket, || self.0.on_packet(pkt, port, ctx));
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, Segment>) {
        span(Ev::OnTimer, || self.0.on_timer(token, ctx));
    }

    // Delegates to the wrapped agent, as the library's `Box<A>` impl does,
    // so the driver's downcasts to `Host` reach it through the wrapper.
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.0.as_any_mut()
    }
}
