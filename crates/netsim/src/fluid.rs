//! Fluid flow registry for the hybrid fluid/packet mode (`SimTuning::hybrid`).
//!
//! The paper's own analysis (Eqs. 3–4, reproduced in `core::analysis` and
//! pinned by `tests/fluid_model.rs`) gives closed-form equilibrium
//! window/marking behaviour for long-running flows. This module turns those
//! per-round window recurrences into a discrete-event fluid model: each
//! registered *elephant* flow advances as a set of per-subflow window ODEs,
//! sampled at RTT granularity by ordinary wheel events
//! ([`NetEvent::Fluid`](crate::NetEvent)), and contributes an analytic byte
//! backlog to every link direction on its path. Packet-level traffic — the
//! latency-sensitive *mice* — keeps running on the same links and sees the
//! fluid-contributed occupancy in its ECN marking and drop decisions
//! (the coupling terms live in `Sim::enqueue_on`, guarded by the tuning
//! flag so hybrid-off runs are bit-identical to builds without this file).
//!
//! # The window recurrences
//!
//! All schemes step once per round (one base RTT), scaled by the number of
//! rounds elapsed since the previous tick (forward-Euler in rounds):
//!
//! * **BOS / XMP** (`FluidCc::Bos`): `Δw = δ·(1−p) − (w/β)·p`, whose fixed
//!   point is exactly the paper's Eq. 3/4 pair — solving `Δw = 0` for `p`
//!   gives `p* = 1/(1 + w/(δβ))` (`core::analysis::equilibrium_mark_prob`)
//!   and solving for `w` gives `w* = δβ(1−p)/p`
//!   (`core::analysis::equilibrium_window`). With `coupled` set, δ follows
//!   the TraSh coupling `δ_r = w_r / (Σ_s (w_s/rtt_s) · min_rtt)`, clamped
//!   to the same `[0.01, 8]` band as the packet-level implementation.
//! * **DCTCP** (`FluidCc::Dctcp`): `Δw = (1−p) − p·w·α/2` with the gain
//!   EWMA `α ← (1−g)·α + g·F` per round (`F` = per-packet mark fraction).
//! * **Reno** (`FluidCc::Reno`): `Δw = (1−p) − p·w/2`.
//! * **LIA** (`FluidCc::Lia`): `Δw_r = (1−p)·min(a·w_r/w_tot, 1) − p·w_r/2`
//!   with the standard coupled-increase `a` recomputed from the live
//!   windows each tick. OLIA is approximated by LIA in fluid mode (their
//!   equilibria coincide on symmetric paths; documented in DESIGN.md §18).
//!
//! `p` is the *per-round* congestion probability, derived from the
//! per-packet mark/drop probabilities of every hop's queue discipline
//! ([`Qdisc`]-specific ramps, see `QdiscKind::fluid_signal`) as
//! `p_round = 1 − (1−p_pkt)^w`. Packet loss always costs a multiplicative
//! `w/2` cut, for every scheme.
//!
//! The steppers are free functions so `core::analysis` (which owns the
//! closed forms — this crate cannot depend on it) pins them against the
//! equilibria in its own test suite.

use crate::link::{Link, LinkId};
use crate::network::Payload;
use crate::node::{NodeId, PortId};
use crate::packet::FlowId;
use crate::queue::Qdisc;
use crate::Addr;
use xmp_des::{SimDuration, SimTime};

/// Reference packet size for converting the byte-denominated fluid backlog
/// into the packet-denominated queue occupancy the qdiscs reason about
/// (and back). Matches the MSS every in-tree workload uses.
pub const REF_PKT_BYTES: f64 = 1500.0;

/// Window floor, matching the packet-level transport's minimum.
pub const MIN_CWND: f64 = 2.0;

/// Window safety ceiling (packets); keeps a signal-free path from growing
/// a window into float territory where the rate math loses precision.
pub const MAX_CWND: f64 = 1.0e6;

/// TraSh δ clamp, matching `core::trash`.
pub const MIN_DELTA: f64 = 0.01;
/// TraSh δ clamp, matching `core::trash`.
pub const MAX_DELTA: f64 = 8.0;

/// Longest supported path in hops. Fat trees need 6 (host→edge→agg→core→
/// agg→edge→host); the two extra slots cover the torus topologies.
pub const MAX_HOPS: usize = 8;

/// Cap on how many recurrence rounds a single tick may advance a window.
///
/// With a coarse `tick_floor` the elapsed interval spans many RTTs, but the
/// congestion signal is sampled once, at tick start. Extrapolating the full
/// `dt/rtt` rounds against that frozen signal is unconditionally unstable:
/// slow start alone would multiply the window by `2^(dt/rtt)` per tick, and
/// the AIMD recurrences overshoot the queue they cannot yet see. Capping the
/// advance trades *transient speed* (convergence takes proportionally more
/// simulated time) for stability; the fixed points are unchanged because the
/// equilibria of the recurrences do not depend on how fast they are stepped.
/// One round per tick is the delayed-feedback stability margin: at two, a
/// link's co-located flows can jointly surge past the queue capacity within
/// a single coarse tick and the closed loop limit-cycles between empty and
/// full (measured as RTO chains in the mice FCT tail of the BENCH_pr10
/// ratio cell); at full-fidelity floors the elapsed interval is the fastest
/// subflow's RTT, so `dt/rtt ≤ 1` per subflow and the cap never binds.
pub const MAX_ROUNDS_PER_TICK: f64 = 1.0;

/// Congestion-control scheme of a fluid flow. A deliberately smaller set
/// than the packet-level `CcKind`: fluid mode only models the window
/// *recurrence*, not retransmission or round bookkeeping.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FluidCc {
    /// TCP Reno additive-increase / halve-on-congestion.
    Reno,
    /// DCTCP: α-proportional cuts with gain `g` (the standard 1/16).
    Dctcp {
        /// EWMA gain for the mark-fraction estimate.
        g: f64,
    },
    /// BOS (uncoupled, δ = 1) or XMP (TraSh-coupled δ across subflows).
    Bos {
        /// Multiplicative-decrease divisor β (the paper's β ≥ 2).
        beta: f64,
        /// Couple δ across subflows with TraSh (XMP) instead of the
        /// standalone δ = 1 (BOS / uncoupled XMP).
        coupled: bool,
    },
    /// MPTCP LIA coupled increase (also used as the OLIA approximation).
    Lia,
}

/// One subflow of a fluid flow: its resolved path and window state.
#[derive(Clone, Debug)]
pub struct FluidSubflow {
    /// Path as `(link, direction)` hops, valid up to `hops`.
    path: [(LinkId, u8); MAX_HOPS],
    /// Number of valid entries in `path`.
    hops: u8,
    /// Base round-trip time (propagation + one-MSS serialization per hop,
    /// both ways); the round length of the window recurrence.
    pub rtt: SimDuration,
    /// Congestion window (packets).
    pub cwnd: f64,
    /// Slow-start threshold (`INFINITY` until the first congestion signal).
    pub ssthresh: f64,
    /// TraSh additive-increase gain δ.
    pub delta: f64,
    /// DCTCP mark-fraction EWMA α.
    pub alpha: f64,
    /// Sending rate currently registered on every hop (bytes/s).
    rate: f64,
    /// Path bottleneck capacity (bytes/s); subflow rates are clamped to it.
    cap: f64,
}

impl FluidSubflow {
    /// A detached subflow with no resolved path and an unbounded path
    /// capacity, in its initial (slow-start) state. Drives the window
    /// recurrence outside a simulation — `core::analysis` pins the
    /// steppers against its closed-form equilibria this way.
    pub fn model(rtt: SimDuration) -> FluidSubflow {
        subflow([(LinkId(0), 0); MAX_HOPS], 0, rtt, f64::INFINITY)
    }

    /// Resolved path as `(link, direction)` hops.
    pub fn hops(&self) -> &[(LinkId, u8)] {
        &self.path[..self.hops as usize]
    }

    /// Current sending rate (bytes/s).
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

/// Cross-subflow coupling totals, recomputed once per tick and passed to
/// the per-subflow steppers ([`window_step`]).
#[derive(Clone, Copy, Debug)]
pub struct CouplingView {
    /// Σ windows (packets).
    pub w_tot: f64,
    /// Σ w_s / rtt_s (packets per second).
    pub rate_pkts: f64,
    /// Minimum subflow base RTT (seconds).
    pub min_rtt_s: f64,
    /// LIA coupled-increase gain `a` (ignored by the other schemes).
    pub lia_a: f64,
}

impl CouplingView {
    /// Coupling totals over a set of subflows.
    pub fn of(subs: &[FluidSubflow]) -> CouplingView {
        let mut w_tot = 0.0;
        let mut rate_pkts = 0.0;
        let mut min_rtt_s = f64::INFINITY;
        let mut best = 0.0f64;
        for s in subs {
            let rtt_s = s.rtt.as_secs_f64().max(1e-9);
            w_tot += s.cwnd;
            rate_pkts += s.cwnd / rtt_s;
            min_rtt_s = min_rtt_s.min(rtt_s);
            best = best.max(s.cwnd / (rtt_s * rtt_s));
        }
        // LIA's alpha: w_tot * max_r(w_r/rtt_r^2) / (Σ_r w_r/rtt_r)^2.
        let lia_a = if rate_pkts > 0.0 {
            w_tot * best / (rate_pkts * rate_pkts)
        } else {
            1.0
        };
        CouplingView {
            w_tot,
            rate_pkts,
            min_rtt_s,
            lia_a,
        }
    }
}

/// Per-packet congestion signal of one path: mark and loss probabilities.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PathSignal {
    /// Per-packet ECN mark probability.
    pub p_mark: f64,
    /// Per-packet loss probability.
    pub p_loss: f64,
}

/// Per-packet → per-round probability: chance at least one of `w` packets
/// sees the signal.
pub fn per_round(p_pkt: f64, w: f64) -> f64 {
    if p_pkt <= 0.0 {
        0.0
    } else if p_pkt >= 1.0 {
        1.0
    } else {
        1.0 - (1.0 - p_pkt).powf(w.max(1.0))
    }
}

/// Advance one subflow's window by `rounds` rounds of its scheme's
/// recurrence under per-packet mark/loss probabilities `sig`, with
/// cross-subflow coupling totals `view`. Mutates the subflow's window, α,
/// δ and ssthresh in place. Pure state-machine math — no queues, no time —
/// so `core::analysis` can pin its fixed points against the closed forms.
pub fn window_step(
    cc: &FluidCc,
    sub: &mut FluidSubflow,
    view: &CouplingView,
    sig: PathSignal,
    rounds: f64,
) {
    let w = sub.cwnd;
    let p = per_round(sig.p_mark, w);
    let p_loss = per_round(sig.p_loss, w);
    // Slow start: double per round until the first congestion signal.
    if sub.ssthresh.is_infinite() {
        if sig.p_mark <= 0.0 && sig.p_loss <= 0.0 {
            sub.cwnd = (w * 2f64.powf(rounds.min(32.0))).min(MAX_CWND);
            return;
        }
        sub.ssthresh = w;
    }
    let dw = match *cc {
        FluidCc::Reno => (1.0 - p) - p * w / 2.0,
        FluidCc::Dctcp { g } => {
            sub.alpha += g * rounds.min(1.0 / g) * (sig.p_mark - sub.alpha);
            sub.alpha = sub.alpha.clamp(0.0, 1.0);
            (1.0 - p) - p * w * sub.alpha / 2.0
        }
        FluidCc::Bos { beta, coupled } => {
            if coupled {
                // Eq. 9: δ_r = (T_r·x_r)/(T_s·y_s) with x_r = w_r/T_r, so
                // δ_r = w_r / (min_rtt · Σ_s w_s/rtt_s).
                let denom = view.rate_pkts * view.min_rtt_s;
                sub.delta = if denom > 0.0 {
                    (w / denom).clamp(MIN_DELTA, MAX_DELTA)
                } else {
                    1.0
                };
            } else {
                sub.delta = 1.0;
            }
            sub.delta * (1.0 - p) - (w / beta) * p
        }
        FluidCc::Lia => (1.0 - p) * (view.lia_a * w / view.w_tot.max(1e-9)).min(1.0) - p * w / 2.0,
    };
    // Loss costs a halving for every scheme, on top of the mark response.
    let new = w + rounds * (dw - p_loss * w / 2.0);
    sub.cwnd = new.clamp(MIN_CWND, MAX_CWND);
}

/// Everything `Sim::fluid_open` needs to register one fluid flow.
#[derive(Clone, Debug)]
pub struct FluidSpec {
    /// Sending host (receives the completion signal).
    pub src_node: NodeId,
    /// Driver-chosen completion code, signalled as `(src_node, code)` when
    /// the last byte is served — the same channel packet transports use.
    pub code: u64,
    /// Congestion-control scheme.
    pub cc: FluidCc,
    /// Bytes to transfer; `None` = unbounded background elephant.
    pub size: Option<u64>,
    /// Segment size (bytes) for window→rate conversion.
    pub mss: u32,
    /// One entry per subflow.
    pub subflows: Vec<FluidSubflowSpec>,
}

/// Path selector of one subflow: the sim resolves the actual hop list by
/// walking its routing tables, exactly as a packet with this flow id would
/// be forwarded.
#[derive(Clone, Copy, Debug)]
pub struct FluidSubflowSpec {
    /// Local NIC port the subflow transmits on.
    pub local_port: PortId,
    /// Destination address.
    pub dst: Addr,
    /// Flow id hashed by ECMP routing (path diversity across subflows).
    pub flow: FlowId,
}

/// Handle of a registered fluid flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FluidId(pub u32);

/// Progress snapshot of one fluid flow (`Sim::fluid_stats` /
/// `Sim::fluid_stop`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FluidFlowStats {
    /// Bytes served so far across all subflows.
    pub delivered_bytes: f64,
    /// Current aggregate sending rate (bits/s).
    pub rate_bps: f64,
    /// Mean base RTT across subflows (ns).
    pub mean_rtt_ns: u64,
    /// Completion time, once the last byte was served.
    pub completed: Option<SimTime>,
}

/// One registered fluid flow.
#[derive(Clone, Debug)]
pub(crate) struct FluidFlow {
    cc: FluidCc,
    src_node: NodeId,
    code: u64,
    mss: f64,
    /// Bytes left to serve (`INFINITY` = unbounded).
    remaining: f64,
    delivered: f64,
    subs: Vec<FluidSubflow>,
    last: SimTime,
    completed: Option<SimTime>,
}

/// Outcome of one fluid tick, applied by the sim's event handler.
pub(crate) struct TickOutcome {
    /// When to schedule the next tick (`None` once completed/stopped).
    pub(crate) next: Option<SimTime>,
    /// Completion signal to push, if the flow just finished.
    pub(crate) completed: Option<(NodeId, u64)>,
}

/// Registry of all fluid flows of one [`Sim`](crate::Sim), slab-indexed by
/// [`FluidId`]. Owns no packets and no generic state, so the sim can move
/// it out during a tick and hand the handler disjoint `&mut` access to the
/// link table.
#[derive(Debug, Default)]
pub struct FluidState {
    slots: Vec<Option<FluidFlow>>,
    free: Vec<u32>,
    /// Lower bound on the tick interval. `ZERO` (default) ticks every base
    /// RTT — full fidelity; the million-flow scale cell raises it to
    /// amortize rate updates over many RTTs (documented accuracy lever).
    pub(crate) tick_floor: SimDuration,
    active: usize,
    pub(crate) ticks: u64,
}

impl FluidState {
    /// Number of registered (not yet stopped) flows, completed included.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Whether no flow is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of flows still actively sending.
    pub fn active(&self) -> usize {
        self.active
    }

    /// Rate-update ticks processed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    pub(crate) fn insert(&mut self, flow: FluidFlow) -> u32 {
        self.active += 1;
        match self.free.pop() {
            Some(id) => {
                self.slots[id as usize] = Some(flow);
                id
            }
            None => {
                self.slots.push(Some(flow));
                (self.slots.len() - 1) as u32
            }
        }
    }

    pub(crate) fn open_flow(
        &mut self,
        spec: &FluidSpec,
        subs: Vec<FluidSubflow>,
        now: SimTime,
    ) -> (u32, SimTime) {
        let flow = FluidFlow {
            cc: spec.cc,
            src_node: spec.src_node,
            code: spec.code,
            mss: spec.mss as f64,
            remaining: spec.size.map_or(f64::INFINITY, |s| s as f64),
            delivered: 0.0,
            subs,
            last: now,
            completed: None,
        };
        let first = now + Self::tick_interval(self.tick_floor, &flow);
        (self.insert(flow), first)
    }

    /// Tick interval of a flow: its fastest subflow RTT, floored.
    fn tick_interval(floor: SimDuration, flow: &FluidFlow) -> SimDuration {
        let min_rtt = flow
            .subs
            .iter()
            .map(|s| s.rtt)
            .min()
            .unwrap_or(SimDuration::from_micros(100));
        min_rtt.max(floor).max(SimDuration::from_nanos(1))
    }

    /// Progress snapshot (`None` for an unknown/stopped id).
    pub(crate) fn stats(&self, id: u32) -> Option<FluidFlowStats> {
        let flow = self.slots.get(id as usize)?.as_ref()?;
        Some(Self::flow_stats(flow))
    }

    fn flow_stats(flow: &FluidFlow) -> FluidFlowStats {
        let rate: f64 = flow.subs.iter().map(|s| s.rate).sum();
        let rtt_sum: u64 = flow.subs.iter().map(|s| s.rtt.as_nanos()).sum();
        FluidFlowStats {
            delivered_bytes: flow.delivered,
            rate_bps: rate * 8.0,
            mean_rtt_ns: rtt_sum / flow.subs.len().max(1) as u64,
            completed: flow.completed,
        }
    }

    /// Withdraw a flow's rates from its hops and free the slot, returning
    /// the final snapshot. Idempotent on unknown ids.
    pub(crate) fn stop<P: Payload>(
        &mut self,
        id: u32,
        now: SimTime,
        links: &mut [Link<P>],
    ) -> Option<FluidFlowStats> {
        let slot = self.slots.get_mut(id as usize)?;
        let flow = slot.take()?;
        if flow.completed.is_none() {
            // Still running: credit the partial interval, then withdraw.
            let dt = now.duration_since(flow.last).as_secs_f64();
            let mut flow = flow;
            if dt > 0.0 {
                let total: f64 = flow.subs.iter().map(|s| s.rate).sum();
                flow.delivered += total * dt;
            }
            for s in &mut flow.subs {
                withdraw(s, now, links);
            }
            self.active -= 1;
            self.free.push(id);
            return Some(Self::flow_stats(&flow));
        }
        self.free.push(id);
        Some(Self::flow_stats(&flow))
    }

    /// One rate-update tick of flow `id`: credit served bytes, advance the
    /// hop backlogs, read the path congestion signals, step every
    /// subflow's window, and re-register the new rates.
    pub(crate) fn tick<P: Payload>(
        &mut self,
        id: u32,
        now: SimTime,
        links: &mut [Link<P>],
    ) -> TickOutcome {
        let Some(mut flow) = self.slots.get_mut(id as usize).and_then(Option::take) else {
            return TickOutcome {
                next: None,
                completed: None,
            };
        };
        self.ticks += 1;
        let floor = self.tick_floor;
        let dt = now.duration_since(flow.last).as_secs_f64();
        flow.last = now;

        // 1. Credit bytes served over the elapsed interval at the rates
        //    that were in effect during it.
        let total_rate: f64 = flow.subs.iter().map(|s| s.rate).sum();
        let served = total_rate * dt;
        flow.delivered += served;
        if flow.remaining.is_finite() {
            flow.remaining -= served;
        }

        // 2. Completed? Withdraw the rates and signal the driver.
        if flow.remaining <= 0.5 * flow.mss {
            for s in &mut flow.subs {
                withdraw(s, now, links);
            }
            flow.completed = Some(now);
            self.active -= 1;
            let done = (flow.src_node, flow.code);
            *self.slots.get_mut(id as usize).expect("slot exists") = Some(flow);
            return TickOutcome {
                next: None,
                completed: Some(done),
            };
        }

        // 3. Step every subflow's window against its path signal and
        //    re-register the new rate on each hop.
        let view = CouplingView::of(&flow.subs);
        for s in &mut flow.subs {
            let mut up = true;
            let mut keep_mark = 1.0f64;
            let mut keep_loss = 1.0f64;
            let mut qdelay_s = 0.0f64;
            for h in 0..s.hops as usize {
                let (lid, dir) = s.path[h];
                let link = &mut links[lid.0 as usize];
                let cap = link.bandwidth.as_bps() as f64 / 8.0;
                let d = &mut link.dirs[dir as usize];
                if d.down {
                    up = false;
                    break;
                }
                d.fluid_advance(now, cap, d.queue.capacity() as f64 * REF_PKT_BYTES);
                d.retire_before(now);
                let backlog_pkts = d.fluid_backlog / REF_PKT_BYTES + d.waiting(now) as f64;
                let sig = d.queue.fluid_signal(backlog_pkts);
                keep_mark *= 1.0 - sig.p_mark;
                keep_loss *= 1.0 - sig.p_loss;
                // Queueing delay this subflow's packets would see; inflates
                // the effective RTT in the window→rate conversion below, so
                // a MIN_CWND-floored window on a congested path still maps
                // to a vanishing rate (as real TCP's seconds-long RTTs do
                // in heavy incast) instead of `2·mss/base_rtt`.
                qdelay_s += backlog_pkts * REF_PKT_BYTES / cap;
            }
            if !up {
                // A downed hop blackholes everything: stop sending until
                // the path heals (the next tick re-probes it).
                withdraw(s, now, links);
                continue;
            }
            let sig = PathSignal {
                p_mark: 1.0 - keep_mark,
                p_loss: 1.0 - keep_loss,
            };
            let rtt_s = s.rtt.as_secs_f64().max(1e-9);
            let rounds = (dt / rtt_s).min(MAX_ROUNDS_PER_TICK);
            if rounds > 0.0 {
                window_step(&flow.cc, s, &view, sig, rounds);
            }
            // Rate = window / *effective* RTT (base + current queueing
            // delay); the recurrence itself stays in base-RTT rounds.
            let new_rate = (s.cwnd * flow.mss / (rtt_s + qdelay_s)).min(s.cap);
            let delta = new_rate - s.rate;
            if delta != 0.0 {
                for h in 0..s.hops as usize {
                    let (lid, dir) = s.path[h];
                    let link = &mut links[lid.0 as usize];
                    let cap = link.bandwidth.as_bps() as f64 / 8.0;
                    let d = &mut link.dirs[dir as usize];
                    d.fluid_advance(now, cap, d.queue.capacity() as f64 * REF_PKT_BYTES);
                    d.fluid_rate += delta;
                }
                s.rate = new_rate;
            }
        }

        // 4. Next tick: one interval ahead, or sooner if the flow will
        //    finish first at the new aggregate rate.
        let interval = Self::tick_interval(floor, &flow);
        let new_total: f64 = flow.subs.iter().map(|s| s.rate).sum();
        let mut next = now + interval;
        if flow.remaining.is_finite() && new_total > 0.0 {
            let finish_s = flow.remaining / new_total;
            let finish = now + SimDuration::from_nanos((finish_s * 1e9).ceil().max(1.0) as u64);
            next = next.min(finish);
        }
        self.slots[id as usize] = Some(flow);
        TickOutcome {
            next: Some(next),
            completed: None,
        }
    }
}

/// Remove a subflow's registered rate from every hop (backlogs advanced to
/// `now` first so the withdrawal doesn't retroactively change history).
fn withdraw<P: Payload>(s: &mut FluidSubflow, now: SimTime, links: &mut [Link<P>]) {
    if s.rate == 0.0 {
        return;
    }
    for h in 0..s.hops as usize {
        let (lid, dir) = s.path[h];
        let link = &mut links[lid.0 as usize];
        let cap = link.bandwidth.as_bps() as f64 / 8.0;
        let d = &mut link.dirs[dir as usize];
        d.fluid_advance(now, cap, d.queue.capacity() as f64 * REF_PKT_BYTES);
        d.fluid_rate -= s.rate;
        if d.fluid_rate < 1e-6 {
            d.fluid_rate = 0.0;
        }
    }
    s.rate = 0.0;
}

/// Build a subflow from a resolved path (used by `Sim::fluid_open`).
pub(crate) fn subflow(
    path: [(LinkId, u8); MAX_HOPS],
    hops: u8,
    rtt: SimDuration,
    cap: f64,
) -> FluidSubflow {
    FluidSubflow {
        path,
        hops,
        rtt,
        cwnd: MIN_CWND,
        ssthresh: f64::INFINITY,
        delta: 1.0,
        alpha: 1.0,
        rate: 0.0,
        cap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_sub(rtt_us: u64) -> FluidSubflow {
        subflow(
            [(LinkId(0), 0); MAX_HOPS],
            1,
            SimDuration::from_micros(rtt_us),
            f64::INFINITY,
        )
    }

    /// Iterate a stepper under a constant per-round signal until the
    /// window settles; `p` is fed as the *round* probability by inverting
    /// the per-packet conversion each iteration.
    fn converge(cc: FluidCc, p_round: f64) -> f64 {
        let mut sub = test_sub(200);
        sub.ssthresh = 1.0; // skip slow start
        sub.cwnd = 10.0;
        for _ in 0..20_000 {
            let view = CouplingView::of(std::slice::from_ref(&sub));
            // Per-packet probability that yields `p_round` at the current
            // window: p_pkt = 1 - (1-p_round)^(1/w).
            let p_pkt = 1.0 - (1.0 - p_round).powf(1.0 / sub.cwnd.max(1.0));
            let sig = PathSignal {
                p_mark: p_pkt,
                p_loss: 0.0,
            };
            window_step(&cc, &mut sub, &view, sig, 1.0);
        }
        sub.cwnd
    }

    #[test]
    fn bos_fixed_point_matches_closed_form() {
        // Δw = δ(1-p) - (w/β)p = 0  ⇔  w = δβ(1-p)/p (the paper's Eq. 4).
        for (beta, p) in [(4.0, 0.05), (4.0, 0.2), (6.0, 0.1), (2.0, 0.3)] {
            let w = converge(
                FluidCc::Bos {
                    beta,
                    coupled: false,
                },
                p,
            );
            let expect = (beta * (1.0 - p) / p).max(MIN_CWND);
            assert!(
                (w - expect).abs() / expect < 0.05,
                "BOS beta={beta} p={p}: converged {w}, closed form {expect}"
            );
        }
    }

    #[test]
    fn reno_fixed_point() {
        // (1-p) = p w/2  ⇔  w = 2(1-p)/p.
        for p in [0.01, 0.05, 0.2] {
            let w = converge(FluidCc::Reno, p);
            let expect = (2.0 * (1.0 - p) / p).max(MIN_CWND);
            assert!(
                (w - expect).abs() / expect < 0.05,
                "Reno p={p}: converged {w}, closed form {expect}"
            );
        }
    }

    #[test]
    fn dctcp_alpha_tracks_mark_fraction() {
        let mut sub = test_sub(200);
        sub.ssthresh = 1.0;
        sub.cwnd = 20.0;
        let cc = FluidCc::Dctcp { g: 1.0 / 16.0 };
        for _ in 0..5_000 {
            let view = CouplingView::of(std::slice::from_ref(&sub));
            let sig = PathSignal {
                p_mark: 0.25,
                p_loss: 0.0,
            };
            window_step(&cc, &mut sub, &view, sig, 1.0);
        }
        assert!(
            (sub.alpha - 0.25).abs() < 0.01,
            "alpha {} should track the 0.25 mark fraction",
            sub.alpha
        );
    }

    #[test]
    fn trash_delta_is_one_for_single_subflow() {
        let mut sub = test_sub(200);
        sub.ssthresh = 1.0;
        sub.cwnd = 30.0;
        let view = CouplingView::of(std::slice::from_ref(&sub));
        window_step(
            &FluidCc::Bos {
                beta: 4.0,
                coupled: true,
            },
            &mut sub,
            &view,
            PathSignal {
                p_mark: 0.05,
                p_loss: 0.0,
            },
            1.0,
        );
        assert!(
            (sub.delta - 1.0).abs() < 1e-9,
            "single-subflow TraSh delta should be 1, got {}",
            sub.delta
        );
    }

    #[test]
    fn slow_start_doubles_until_signal() {
        let mut sub = test_sub(200);
        let view = CouplingView::of(std::slice::from_ref(&sub));
        let quiet = PathSignal::default();
        window_step(&FluidCc::Reno, &mut sub, &view, quiet, 1.0);
        assert_eq!(sub.cwnd, 2.0 * MIN_CWND);
        window_step(&FluidCc::Reno, &mut sub, &view, quiet, 2.0);
        assert_eq!(sub.cwnd, 8.0 * MIN_CWND);
        assert!(sub.ssthresh.is_infinite());
        window_step(
            &FluidCc::Reno,
            &mut sub,
            &view,
            PathSignal {
                p_mark: 0.1,
                p_loss: 0.0,
            },
            1.0,
        );
        assert!(sub.ssthresh.is_finite(), "first signal ends slow start");
    }

    #[test]
    fn loss_halves_every_scheme() {
        for cc in [
            FluidCc::Reno,
            FluidCc::Dctcp { g: 1.0 / 16.0 },
            FluidCc::Bos {
                beta: 4.0,
                coupled: false,
            },
            FluidCc::Lia,
        ] {
            let mut sub = test_sub(200);
            sub.ssthresh = 1.0;
            sub.cwnd = 100.0;
            let view = CouplingView::of(std::slice::from_ref(&sub));
            window_step(
                &cc,
                &mut sub,
                &view,
                PathSignal {
                    p_mark: 0.0,
                    p_loss: 1.0,
                },
                1.0,
            );
            assert!(
                sub.cwnd <= 51.0,
                "{cc:?}: certain loss should roughly halve 100, got {}",
                sub.cwnd
            );
        }
    }
}
