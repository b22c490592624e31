//! Partitioned parallel simulation: one `Sim` sharded across threads,
//! bit-identical to the serial run.
//!
//! # Model
//!
//! A [`PartitionPlan`] assigns every node to one of `W` shards. Each shard
//! is a complete [`Sim`] of its own — its own event wheel, RNG streams,
//! qdisc state and stats — holding the **real** node/agent/timer state
//! for its assigned nodes and lightweight placeholders for everyone else.
//! The link table is **fully replicated**: every shard carries a pristine
//! copy of every link so global link indices (and therefore the
//! per-direction RNG stream derivations) are preserved without remapping.
//! Per direction, exactly one shard is *transmit-authoritative* (the shard
//! owning the sending node runs the qdisc, fault draws and serialization)
//! and one is *receive-authoritative* (the shard owning the receiving node
//! processes the `Deliver`, draws corruption and dispatches). For most
//! links both are the same shard; for **cut links** they differ, and the
//! transmit side pushes the delivery into an outbox instead of its own
//! wheel.
//!
//! # Conservative synchronization
//!
//! Workers advance in rounds bounded by the *lookahead* `L`: the minimum
//! propagation delay over all cut links. A `Deliver` handed off while
//! processing an event at `t ∈ (h, h+L]` arrives at
//! `depart + delay > h + L` (serialization is strictly positive and the
//! cut link's delay is at least `L`), i.e. strictly after the round's
//! horizon — so exchanging outboxes at the round barrier, *before* the
//! next round runs, can never violate causality. Each round is: run every
//! shard's wheel to the horizon in parallel, barrier, drain outboxes into
//! per-target buffers, barrier, sort and schedule the received deliveries,
//! barrier, advance the horizon.
//!
//! # Determinism
//!
//! The contract is **bit-identity with the serial run**, which rests on
//! the identity-keyed `(time, key)` event ordering:
//!
//! * two events with equal `(time, key)` share their identity (same link
//!   direction, same node), hence live on the same shard — cross-shard
//!   ties are impossible, and merging per-shard event streams sorted by
//!   `(time, key)` reproduces the serial order exactly;
//! * received deliveries are sorted by `(arrival, key, source order)`
//!   before scheduling, so the merge is independent of thread timing and
//!   lock acquisition order;
//! * every RNG draw happens on the shard that is authoritative for that
//!   stream (fault draws tx-side, corruption draws rx-side, per-direction
//!   streams derived from the *global* link index), so each stream
//!   advances exactly as in the serial run;
//! * probe records carry a merge rank — the identity key of the event
//!   being processed when they were recorded — so the reassembled record
//!   list is byte-identical to the serial export.
//!
//! Fault events are replicated to every shard (each holds the full link
//! table, so down/up transitions evolve identically everywhere); agent
//! signals are collected per shard and replayed to the driver callback in
//! serial event order after each window.
//!
//! Driver callbacks run at window boundaries rather than mid-window, so
//! workloads that *inject new flows from completion callbacks* see those
//! flows start at the end of the current window — statistically
//! equivalent, not bit-identical. Pre-submitted workloads with
//! harvest-only callbacks (the determinism tests, the scale experiment and
//! the benchmarks) are bit-identical end to end.

use super::{deliver_key, event_rank, AuditReport, NetEvent, Payload, ShardState, Sim, SAMPLE_KEY};
use crate::agent::{Agent, Ctx};
use crate::fabric::{DirOwners, Fabric};
use crate::fault::FaultTimeline;
use crate::hosts::Hosts;
use crate::ledger::Ledger;
use crate::link::LinkId;
use crate::node::NodeId;
use crate::observers::Observers;
use crate::probe::Probes;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use xmp_des::{Engine, SimDuration, SimTime};

/// Merge-rank namespace for driver operations ([`PartitionedSim::with_agent`]):
/// they rank after every same-instant engine event and probe sample, in call
/// order — exactly where the serial run performs them (after `run_until`
/// returns at that instant).
const DRIVER_RANK_BASE: u64 = 1 << 32;

/// Assignment of every node to a shard (worker thread).
///
/// Topology builders produce plans (e.g.
/// `FatTree::partition_plan` in the `topo` crate assigns pods to shards
/// and spreads core switches round-robin); any assignment is valid — the
/// partitioning is bit-identical regardless — but wall-clock speedup needs
/// balanced shards and long cut-link delays (the lookahead).
#[derive(Clone, Debug)]
pub struct PartitionPlan {
    assignment: Vec<u32>,
    workers: usize,
}

impl PartitionPlan {
    /// Plan from an explicit per-node shard assignment. Shard ids must be
    /// dense (every id in `0..=max` used is fine; gaps just produce idle
    /// workers).
    pub fn new(assignment: Vec<u32>) -> Self {
        assert!(!assignment.is_empty(), "empty partition plan");
        let workers = assignment
            .iter()
            .map(|&s| s as usize + 1)
            .max()
            .unwrap_or(1);
        PartitionPlan {
            assignment,
            workers,
        }
    }

    /// The trivial plan: all `nodes` on one shard.
    pub fn single(nodes: usize) -> Self {
        PartitionPlan::new(vec![0; nodes])
    }

    /// Number of shards (worker threads).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The per-node shard assignment.
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Shard owning `node`.
    pub fn owner(&self, node: NodeId) -> u32 {
        self.assignment[node.0 as usize]
    }
}

/// Split a per-node table across `workers` shards without renumbering:
/// entry `i` moves to shard `owner[i]`, and every other shard holds
/// `stand_in(&entry)` at index `i` instead.
pub(crate) fn scatter<T>(
    table: Vec<T>,
    owner: &[u32],
    workers: usize,
    stand_in: impl Fn(&T) -> T,
) -> Vec<Vec<T>> {
    let mut shards: Vec<Vec<T>> = (0..workers)
        .map(|_| Vec::with_capacity(table.len()))
        .collect();
    for (entry, &own) in table.into_iter().zip(owner) {
        for (s, shard) in shards.iter_mut().enumerate() {
            if s != own as usize {
                shard.push(stand_in(&entry));
            }
        }
        shards[own as usize].push(entry);
    }
    shards
}

/// Inverse of [`scatter`]: entry `i` comes back from shard `owner[i]`.
pub(crate) fn gather<T>(shards: Vec<Vec<T>>, owner: &[u32]) -> Vec<T> {
    let mut shards: Vec<_> = shards.into_iter().map(Vec::into_iter).collect();
    let mut next = |own: &u32| {
        let mut row: Vec<T> = shards
            .iter_mut()
            .map(|it| it.next().expect("tables aligned"))
            .collect();
        row.swap_remove(*own as usize)
    };
    owner.iter().map(&mut next).collect()
}

/// A cross-shard delivery in flight through the broker:
/// `(arrival, link, dir, fail_gen, packet, source sequence)`.
type Handoff<P> = (SimTime, LinkId, u8, u32, crate::packet::Packet<P>, u64);

/// An agent signal captured on a shard during a window:
/// `(time, merge rank, node, code)`.
type SignalRec = (SimTime, (u64, u64), NodeId, u64);

/// Move `sim`'s outbox into `per_target[receive shard]`, stamping each
/// handoff with its emission order; returns how many there were.
fn drain_outbox<P: Payload, A: Agent<P>>(
    sim: &mut Sim<P, A>,
    dir_owner: &DirOwners,
    per_target: &mut [Vec<Handoff<P>>],
) -> u64 {
    let outbox = std::mem::take(&mut sim.part.as_mut().expect("shard state").outbox);
    let n = outbox.len() as u64;
    for (seq, (at, link, dir, gen, pkt)) in outbox.into_iter().enumerate() {
        let target = dir_owner[link.0 as usize][dir as usize].1 as usize;
        per_target[target].push((at, link, dir, gen, pkt, seq as u64));
    }
    n
}

/// Schedule received handoffs on `sim`'s wheel, sorted by `(arrival,
/// identity key, source order)`: equal `(arrival, key)` pairs share a
/// source shard, where `seq` preserves emission order, so the result does
/// not depend on the order the handoffs were collected in.
fn absorb<P: Payload, A: Agent<P>>(sim: &mut Sim<P, A>, mut inbox: Vec<Handoff<P>>) {
    inbox.sort_by_key(|&(at, link, dir, _, _, seq)| (at, deliver_key(link, dir), seq));
    for (at, link, dir, gen, pkt, _) in inbox {
        let ev = NetEvent::Deliver {
            link,
            dir,
            gen,
            pkt,
        };
        sim.engine.schedule_keyed(at, deliver_key(link, dir), ev);
    }
}

/// A [`Sim`] sharded across `std::thread` workers.
///
/// Build the full topology (and install fault plans / probes) on a single
/// pristine `Sim`, then hand it to [`PartitionedSim::new`] with a plan.
/// Drive it with the same `run_until` / `advance_to` / `with_agent` calls
/// a serial sim takes, and call [`PartitionedSim::finish`] to reassemble
/// one serial `Sim` holding the merged end state — stats, probe records,
/// audit counters and pending events all bit-identical to a serial run of
/// the same workload.
pub struct PartitionedSim<P: Payload, A: Agent<P> + Send> {
    shards: Vec<Sim<P, A>>,
    /// Node → owning shard.
    owner: Vec<u32>,
    /// Link → per-direction `(tx shard, rx shard)`.
    dir_owner: Vec<[(u32, u32); 2]>,
    /// Conservative round bound: minimum cut-link propagation delay.
    /// `None` when no link crosses shards (single round per window).
    lookahead: Option<SimDuration>,
    /// Driver-visible clock (advanced by `run_until`/`advance_to`).
    clock: SimTime,
    /// Driver-operation counter backing `with_agent` merge ranks.
    op_seq: u64,
    /// Wall-clock nanoseconds spent inside `run_until` (whole-window, so
    /// barrier and exchange overhead is included; becomes the merged
    /// profile's `run_wall_ns`).
    wall_ns: u64,
    /// Conservative synchronization rounds run so far (merged into the
    /// final profile's `sync_rounds`).
    rounds: u64,
    /// Cross-shard handoffs exchanged through round outboxes so far
    /// (merged into the final profile's `handoffs`).
    handoffs: u64,
    /// The probes as installed before sharding, waiting for `finish` to
    /// append the shards' records in serial order (`None` = unprobed).
    probes: Option<Probes>,
    /// Signals raised by driver operations (`with_agent`) between windows,
    /// stamped with the operation's rank; delivered by the next `run_until`.
    pending_signals: Vec<SignalRec>,
}

impl<P: Payload, A: Agent<P> + Send> PartitionedSim<P, A> {
    /// Shard a pristine sim according to `plan`.
    ///
    /// # Panics
    /// Panics if the sim has already run (events processed, traffic on any
    /// link, or a non-zero clock) or the plan's length does not match the
    /// node count.
    pub fn new(sim: Sim<P, A>, plan: &PartitionPlan) -> Self {
        Self::try_new(sim, plan).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Non-panicking [`PartitionedSim::new`]: reports unsatisfiable
    /// preconditions (non-pristine sim, plan/node length
    /// mismatch, zero-delay cut links, …) as a typed
    /// [`ConfigError`](crate::ConfigError) instead of aborting, so CLI
    /// frontends can surface an actionable message.
    pub fn try_new(sim: Sim<P, A>, plan: &PartitionPlan) -> Result<Self, crate::ConfigError> {
        use crate::ConfigError;
        if sim.engine.now() != SimTime::ZERO {
            return Err(ConfigError::NotPristine {
                now: sim.engine.now(),
            });
        }
        if plan.assignment.len() != sim.fabric.nodes.len() {
            return Err(ConfigError::PlanLengthMismatch {
                plan: plan.assignment.len(),
                nodes: sim.fabric.nodes.len(),
            });
        }
        if !sim.hosts.signals.is_empty() {
            return Err(ConfigError::UndrainedSignals);
        }
        if sim.part.is_some() {
            return Err(ConfigError::AlreadyPartitioned);
        }
        if sim.tuning.hybrid || sim.fluid.is_some() {
            // Fluid elephants span pods; their rate updates touch links on
            // many shards at once, which the conservative protocol cannot
            // order. Hybrid runs stay serial.
            return Err(ConfigError::HybridUnsupported);
        }
        let w = plan.workers();
        let owner = plan.assignment.clone();

        // Per-direction authority and the conservative lookahead. The
        // sender of `dirs[d]` is the *other* end: `dirs[d]` delivers to
        // `dirs[d].to_node`, which `dirs[d^1].to_node` transmits toward.
        let mut dir_owner = Vec::with_capacity(sim.fabric.links.len());
        let mut lookahead: Option<SimDuration> = None;
        for (li, l) in sim.fabric.links.iter().enumerate() {
            let mut per = [(0u32, 0u32); 2];
            for d in 0..2usize {
                let tx = owner[l.dirs[d ^ 1].to_node.0 as usize];
                let rx = owner[l.dirs[d].to_node.0 as usize];
                per[d] = (tx, rx);
                if tx != rx {
                    if l.delay == SimDuration::ZERO {
                        return Err(ConfigError::ZeroDelayCutLink {
                            link: crate::LinkId(li as u32),
                            label: l.label.clone(),
                        });
                    }
                    lookahead = Some(match lookahead {
                        Some(cur) => cur.min(l.delay),
                        None => l.delay,
                    });
                }
            }
            dir_owner.push(per);
        }

        // Every owner splits itself; what is left to decide here is where
        // the master's pending events go.
        let Sim {
            engine,
            fabric,
            hosts,
            ledger,
            observers,
            faults,
            tuning,
            fluid: _,
            part: _,
        } = sim;
        let (observers, probes) = observers.shard(w);
        let mut subs = fabric
            .shard(&owner, w)
            .into_iter()
            .zip(hosts.shard(&owner, w))
            .zip(ledger.shard(w))
            .zip(observers)
            .zip(faults.shard(w));

        // Faults go to every shard (each holds the full link table), timers
        // to the owner; sampling ticks are re-armed per shard below.
        // Traffic events cannot exist on a pristine sim.
        let mut engines: Vec<Engine<NetEvent<P>>> = (0..w).map(|_| Engine::new()).collect();
        let mut eng = engine;
        while let Some((t, ev)) = eng.pop() {
            let key = event_rank(&ev);
            match ev {
                NetEvent::Fault { idx } => {
                    for e in engines.iter_mut() {
                        e.schedule_keyed(t, key, NetEvent::Fault { idx });
                    }
                }
                NetEvent::Sample => {}
                NetEvent::Timer { node, .. } => {
                    engines[owner[node.0 as usize] as usize].schedule_keyed(t, key, ev);
                }
                NetEvent::Deliver { .. } | NetEvent::TxDone { .. } => {
                    panic!("partitioning requires a pristine sim (traffic already scheduled)")
                }
                NetEvent::Fluid { .. } => {
                    unreachable!("hybrid sims are rejected before event routing")
                }
            }
        }

        let mut shards = Vec::with_capacity(w);
        for (s, mut engine) in engines.into_iter().enumerate() {
            let ((((fabric, hosts), ledger), observers), faults) =
                subs.next().expect("one sub-state per shard");
            // The probes are replicated (uniform tick phase across shards);
            // the roles decide which series each shard actually records.
            if let Some(first) = observers.next_tick(SimTime::ZERO) {
                engine.schedule_keyed(first, SAMPLE_KEY, NetEvent::Sample);
            }
            let remote_rx = dir_owner
                .iter()
                .map(|per| {
                    let mut bits = 0u8;
                    for (d, &(tx, rx)) in per.iter().enumerate() {
                        if tx == s as u32 && rx != s as u32 {
                            bits |= 1 << d;
                        }
                    }
                    bits
                })
                .collect();
            let part = ShardState {
                remote_rx,
                outbox: Vec::new(),
                rank: (0, 0),
                watch_roles: observers.watch_roles(s as u32, &dir_owner),
            };
            shards.push(Sim {
                engine,
                fabric,
                hosts,
                ledger,
                observers,
                faults,
                tuning,
                fluid: None,
                part: Some(Box::new(part)),
            });
        }

        Ok(PartitionedSim {
            shards,
            owner,
            dir_owner,
            lookahead,
            clock: SimTime::ZERO,
            op_seq: 0,
            wall_ns: 0,
            rounds: 0,
            handoffs: 0,
            probes,
            pending_signals: Vec::new(),
        })
    }

    /// Number of shards (worker threads).
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// The conservative round bound: minimum cut-link propagation delay
    /// (`None` when no link crosses shards).
    pub fn lookahead(&self) -> Option<SimDuration> {
        self.lookahead
    }

    /// Driver-visible clock (the last `run_until`/`advance_to` boundary).
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Wall-clock nanoseconds spent inside `run_until` windows so far.
    pub fn wall_ns(&self) -> u64 {
        self.wall_ns
    }

    /// Drain every shard's outbox into the target shards' wheels (serial;
    /// used before rounds start and by `finish`).
    fn exchange(&mut self) {
        let w = self.shards.len();
        let mut per_target: Vec<Vec<Handoff<P>>> = (0..w).map(|_| Vec::new()).collect();
        for sim in &mut self.shards {
            drain_outbox(sim, &self.dir_owner, &mut per_target);
        }
        for (sim, inbox) in self.shards.iter_mut().zip(per_target) {
            absorb(sim, inbox);
        }
    }

    /// Process all events up to and including `deadline` on every shard,
    /// synchronizing conservatively in lookahead-bounded rounds. Agent
    /// signals are replayed to `on_signal` in serial event order after the
    /// window (see the module docs for the callback-timing caveat).
    pub fn run_until(
        &mut self,
        deadline: SimTime,
        mut on_signal: impl FnMut(&mut Self, NodeId, u64),
    ) {
        assert!(deadline >= self.clock, "run_until into the past");
        let wall = std::time::Instant::now();
        // Driver injections since the last window may have produced
        // cross-shard deliveries; place them before the rounds start.
        self.exchange();
        let start = self.clock;
        let lookahead = self.lookahead;
        let w = self.shards.len();
        let dir_owner = &self.dir_owner;
        let barrier = Barrier::new(w);
        let buckets: Vec<Mutex<Vec<Handoff<P>>>> = (0..w).map(|_| Mutex::new(Vec::new())).collect();
        // Per-shard earliest-pending-event time (nanos; `u64::MAX` =
        // idle), backing the adaptive round length. Written before each
        // round's closing barrier and read after it, so every worker
        // derives the same next horizon from the same snapshot; seeded
        // here from the post-exchange wheels for round one.
        let next_at: Vec<AtomicU64> = self
            .shards
            .iter()
            .map(|sim| AtomicU64::new(sim.engine.peek_time().map_or(u64::MAX, |t| t.as_nanos())))
            .collect();
        let next_at = &next_at;
        let mut sigs: Vec<(Vec<SignalRec>, u64, u64)> = Vec::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(w);
            for (s, sim) in self.shards.iter_mut().enumerate() {
                let barrier = &barrier;
                let buckets = &buckets;
                handles.push(scope.spawn(move || {
                    let mut local: Vec<SignalRec> = Vec::new();
                    // Reused per-target grouping buffers: one lock + bulk
                    // append per (source, target) pair per round instead
                    // of one lock round-trip per handoff.
                    let mut per_target: Vec<Vec<Handoff<P>>> = (0..w).map(|_| Vec::new()).collect();
                    let mut rounds = 0u64;
                    let mut handoffs = 0u64;
                    let mut h = start;
                    loop {
                        // Adaptive round length: every pending event
                        // anywhere sits at `min_next` or later, so no
                        // handoff can arrive before `min_next + L`
                        // (cut-link delay ≥ L); running to one nanosecond
                        // short of that stays strictly causal while
                        // skipping the empty `h + L` crawl through sparse
                        // phases (RTO waits, drained shards). With every
                        // wheel empty nothing can happen until the driver
                        // speaks again: one final round to the deadline.
                        let min_next = next_at
                            .iter()
                            .map(|a| a.load(Ordering::Relaxed))
                            .min()
                            .unwrap_or(u64::MAX);
                        h = match lookahead {
                            Some(l) if min_next != u64::MAX => {
                                let fence = SimTime::from_nanos(min_next) + l;
                                SimTime::from_nanos(fence.as_nanos() - 1)
                                    .max(h + l)
                                    .min(deadline)
                            }
                            _ => deadline,
                        };
                        rounds += 1;
                        sim.run_until(h, |s2, node, code| {
                            let rank = s2.part.as_ref().map_or((0, 0), |ps| ps.rank);
                            local.push((s2.now(), rank, node, code));
                        });
                        barrier.wait();
                        // Drain this shard's outbox into per-target buffers:
                        // group locally first, then one bulk append per
                        // non-empty target.
                        handoffs += drain_outbox(sim, dir_owner, &mut per_target);
                        for (t, buf) in per_target.iter_mut().enumerate() {
                            if !buf.is_empty() {
                                buckets[t].lock().expect("bucket lock").append(buf);
                            }
                        }
                        barrier.wait();
                        // Absorb deliveries addressed to this shard, in an
                        // order independent of the lock-acquisition
                        // interleaving.
                        absorb(
                            sim,
                            std::mem::take(&mut *buckets[s].lock().expect("bucket lock")),
                        );
                        // Publish this shard's earliest pending event for
                        // the next round's horizon vote. The closing
                        // barrier orders these stores before any worker's
                        // loads at the top of its next round.
                        next_at[s].store(
                            sim.engine.peek_time().map_or(u64::MAX, |t| t.as_nanos()),
                            Ordering::Relaxed,
                        );
                        barrier.wait();
                        if h >= deadline {
                            break;
                        }
                    }
                    (local, rounds, handoffs)
                }));
            }
            sigs = handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect();
        });
        self.clock = deadline;
        self.wall_ns += wall.elapsed().as_nanos() as u64;
        // Every worker runs the same number of rounds; count them once.
        // Handoff counts are per-source-shard and sum.
        if let Some((_, rounds, _)) = sigs.first() {
            self.rounds += *rounds;
        }
        self.handoffs += sigs.iter().map(|&(_, _, h)| h).sum::<u64>();
        // Replay signals in serial event order: (time, event identity
        // rank); full ties share a shard, where collection order is the
        // serial order (stable sort + shard-ordered concatenation).
        let mut all: Vec<SignalRec> = std::mem::take(&mut self.pending_signals);
        all.extend(sigs.into_iter().flat_map(|(s, _, _)| s));
        all.sort_by_key(|&(t, rank, _, _)| (t, rank));
        for (_, _, node, code) in all {
            on_signal(self, node, code);
        }
    }

    /// `run_until` ignoring signals.
    pub fn run_until_quiet(&mut self, deadline: SimTime) {
        self.run_until(deadline, |_, _, _| {});
    }

    /// Advance every shard's clock to `t` (events up to `t` must already be
    /// processed) and set the driver-visible clock. Mirrors
    /// [`Sim::advance_to`].
    pub fn advance_to(&mut self, t: SimTime) {
        for sim in &mut self.shards {
            sim.advance_to(t);
        }
        self.clock = self.clock.max(t);
    }

    /// Run driver code against the concrete agent on `node`, on whichever
    /// shard owns it. Mirrors [`Sim::with_agent`]; the operation is ranked
    /// after all same-instant events for the probe-record merge.
    pub fn with_agent<T: Agent<P>, R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut T, &mut Ctx<'_, P>) -> R,
    ) -> R {
        let s = self.owner[node.0 as usize] as usize;
        self.op_seq += 1;
        let rank = (u64::MAX, DRIVER_RANK_BASE + self.op_seq);
        let sim = &mut self.shards[s];
        // A shard's engine clock rests on its last handled event, which may
        // trail the window deadline; anything the driver schedules now must
        // land at the partitioned clock or later, exactly as it would on a
        // serial sim that ran to the same instant.
        sim.advance_to(self.clock);
        if let Some(ps) = sim.part.as_mut() {
            ps.rank = rank;
        }
        let r = sim.with_agent(node, f);
        // A `ctx.signal` raised by the operation itself must not surface
        // under the next window's first event identity; stamp it with the
        // operation's own rank and deliver it with the window's signals.
        let clock = self.clock;
        while let Some((n, code)) = sim.hosts.signals.pop_front() {
            self.pending_signals.push((clock, rank, n, code));
        }
        r
    }

    /// Packet-conservation audit across all shards, accounting for
    /// in-flight cross-partition packets: a handed-off packet stays
    /// counted in the transmit shard's copy of the direction until the
    /// receive shard processes its `Deliver` (decrementing its own copy),
    /// so per-direction occupancy — and the global balance — is the
    /// *signed sum over every shard's copy*. Panics if the books don't
    /// balance.
    pub fn audit_conservation(&self) -> AuditReport {
        let fabrics: Vec<&Fabric<P>> = self.shards.iter().map(|s| &s.fabric).collect();
        Fabric::in_network(&fabrics)
            .and_then(|n| Ledger::merge(self.shards.iter().map(|s| s.ledger)).conservation(n))
            .unwrap_or_else(|e| panic!("across partitions: {e}"))
    }

    /// Reassemble one serial [`Sim`] from the shards: owned node, agent and
    /// timer state; per-direction link state merged from the transmit- and
    /// receive-authoritative copies; pending events re-merged into one
    /// wheel in `(time, key)` order; probe records re-ordered into the
    /// serial recording order. The result is bit-identical to the serial
    /// run's end state for every driver-visible surface (stats, probes,
    /// audit, pending work) and can keep running serially.
    pub fn finish(mut self) -> Sim<P, A> {
        assert!(
            self.pending_signals.is_empty(),
            "undelivered driver signals at finish (run a window first)"
        );
        // Driver injections since the last window may still sit in
        // outboxes; place them so the merged wheel sees them.
        self.exchange();
        let w = self.shards.len();
        let mut engines = Vec::with_capacity(w);
        let mut fabrics = Vec::with_capacity(w);
        let mut hosts = Vec::with_capacity(w);
        let mut ledgers = Vec::with_capacity(w);
        let mut observers = Vec::with_capacity(w);
        let mut faults = Vec::with_capacity(w);
        let mut tuning = None;
        for sim in self.shards.drain(..) {
            let Sim {
                engine,
                fabric,
                hosts: h,
                ledger,
                observers: o,
                faults: f,
                tuning: t,
                fluid: _,
                part: _,
            } = sim;
            engines.push(engine);
            fabrics.push(fabric);
            hosts.push(h);
            ledgers.push(ledger);
            observers.push(o);
            faults.push(f);
            tuning.get_or_insert(t);
        }

        // One wheel from all pending events. Equal (time, key) pairs come
        // from one shard (identity ⇒ ownership), so a stable sort over the
        // shard-ordered concatenation reproduces the serial FIFO order.
        // Replicated Fault events dedup to shard 0's copy; per-shard
        // sampling ticks collapse to one (they share the tick phase).
        let mut processed = 0u64;
        let mut scheduled = 0u64;
        let mut sample_at: Option<SimTime> = None;
        let mut pend: Vec<(SimTime, u64, NetEvent<P>)> = Vec::new();
        for (s, mut eng) in engines.into_iter().enumerate() {
            processed += eng.processed();
            scheduled += eng.scheduled();
            while let Some((t, ev)) = eng.pop() {
                match &ev {
                    NetEvent::Fault { .. } if s != 0 => continue,
                    NetEvent::Sample => {
                        if s == 0 {
                            sample_at = Some(t);
                        }
                        continue;
                    }
                    _ => {}
                }
                pend.push((t, event_rank(&ev), ev));
            }
        }
        pend.sort_by_key(|e| (e.0, e.1));
        let mut engine = Engine::new();
        for (t, key, ev) in pend {
            engine.schedule_keyed(t, key, ev);
        }
        if let Some(t) = sample_at {
            engine.schedule_keyed(t, SAMPLE_KEY, NetEvent::Sample);
        }
        engine.advance_to(self.clock);
        engine.absorb_counters(processed, scheduled);

        // Every owner merges itself; the window's wall clock and the
        // protocol's own counters are this engine's to report.
        let mut observers = Observers::merge(observers, self.probes.take());
        observers.profile.run_wall_ns = self.wall_ns;
        observers.profile.sync_rounds = self.rounds;
        observers.profile.handoffs = self.handoffs;
        Sim {
            engine,
            fabric: Fabric::merge(fabrics, &self.owner, &self.dir_owner),
            hosts: Hosts::merge(hosts, &self.owner),
            ledger: Ledger::merge(ledgers),
            observers,
            faults: FaultTimeline::merge(faults),
            tuning: tuning.expect("at least one shard"),
            fluid: None,
            part: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;
    use crate::fault::FaultPlan;
    use crate::link::LinkParams;
    use crate::node::PortId;
    use crate::packet::{Ecn, FlowId, Packet};
    use crate::probe::{ProbeConfig, ProbeRecord};
    use crate::queue::QdiscConfig;
    use crate::routing::StaticRouter;
    use std::any::Any;
    use xmp_des::{Bandwidth, ByteSize};

    type DynAgent = Box<dyn Agent<u64> + Send>;

    /// Paced source + sink: bursts `burst` packets to a fixed peer on each
    /// timer tick, records arrivals, raises a signal per delivery.
    struct Pacer {
        src: Addr,
        dst: Addr,
        flow: u64,
        ticks: u64,
        max_ticks: u64,
        burst: u32,
        period: SimDuration,
        received: Vec<(u64, u64)>,
    }

    impl Agent<u64> for Pacer {
        fn on_packet(&mut self, pkt: Packet<u64>, _port: PortId, ctx: &mut Ctx<'_, u64>) {
            self.received.push((ctx.now().as_nanos(), pkt.payload));
            ctx.signal(pkt.payload);
        }
        fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_, u64>) {
            for i in 0..self.burst {
                let payload = self.flow * 1_000_000 + self.ticks * 100 + i as u64;
                ctx.send(
                    PortId(0),
                    Packet::new(
                        self.src,
                        self.dst,
                        FlowId(self.flow),
                        Ecn::Ect,
                        ByteSize::from_bytes(1500),
                        payload,
                    ),
                );
            }
            self.ticks += 1;
            if self.ticks < self.max_ticks {
                let next = ctx.now() + self.period;
                ctx.set_timer(0, next);
            }
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn pacer(src: Addr, dst: Addr, flow: u64) -> DynAgent {
        Box::new(Pacer {
            src,
            dst,
            flow,
            ticks: 0,
            max_ticks: 30,
            burst: 3,
            period: SimDuration::from_micros(150),
            received: Vec::new(),
        })
    }

    /// Two "pods" (switch + two hosts each) joined by one inter-switch
    /// link: the cut link of the two-way partition. All four flows cross
    /// it. Returns the sim, the plan, the hosts and the cut link.
    fn build(workers: u32) -> (Sim<u64, DynAgent>, PartitionPlan, Vec<NodeId>, LinkId) {
        let mut sim: Sim<u64, DynAgent> = Sim::new(42);
        let a = |i: u8| Addr::new(10, 0, 0, i);
        let edge = LinkParams::new(
            Bandwidth::from_gbps(1),
            SimDuration::from_micros(20),
            QdiscConfig::EcnThreshold { cap: 64, k: 4 },
        );
        let trunk = LinkParams::new(
            Bandwidth::from_gbps(1),
            SimDuration::from_micros(40),
            QdiscConfig::EcnThreshold { cap: 64, k: 4 },
        );
        let h0 = sim.add_host("h0", pacer(a(1), a(3), 1));
        let h1 = sim.add_host("h1", pacer(a(2), a(4), 2));
        let sw0 = sim.add_switch("sw0", Box::new(StaticRouter::new()));
        let h2 = sim.add_host("h2", pacer(a(3), a(1), 3));
        let h3 = sim.add_host("h3", pacer(a(4), a(2), 4));
        let sw1 = sim.add_switch("sw1", Box::new(StaticRouter::new()));
        sim.connect(h0, sw0, &edge, "h0-sw0"); // sw0 port 0
        sim.connect(h1, sw0, &edge, "h1-sw0"); // sw0 port 1
        let cut = sim.connect(sw0, sw1, &trunk, "sw0-sw1"); // sw0 p2, sw1 p0
        sim.connect(h2, sw1, &edge, "h2-sw1"); // sw1 port 1
        sim.connect(h3, sw1, &edge, "h3-sw1"); // sw1 port 2
        for (i, h) in [h0, h1, h2, h3].iter().enumerate() {
            sim.bind_addr(a(i as u8 + 1), *h);
        }
        sim.set_router(
            sw0,
            Box::new(
                StaticRouter::new()
                    .to(a(1), PortId(0))
                    .to(a(2), PortId(1))
                    .to(a(3), PortId(2))
                    .to(a(4), PortId(2)),
            ),
        );
        sim.set_router(
            sw1,
            Box::new(
                StaticRouter::new()
                    .to(a(1), PortId(0))
                    .to(a(2), PortId(0))
                    .to(a(3), PortId(1))
                    .to(a(4), PortId(2)),
            ),
        );
        sim.install_fault_plan(
            &FaultPlan::new()
                .drop_rate(cut, 0.02)
                .corrupt_rate(cut, 0.01)
                .link_down(SimTime::from_micros(1500), cut)
                .link_up(SimTime::from_micros(2500), cut),
        );
        sim.install_probes(ProbeConfig {
            interval: SimDuration::from_micros(100),
            until: SimTime::from_micros(8000),
            watch: vec![(cut, 0), (cut, 1)],
            record_marks: true,
        });
        for h in [h0, h1, h2, h3] {
            sim.with_agent::<Pacer, _>(h, |_, ctx| {
                ctx.set_timer(0, SimTime::from_micros(10));
            });
        }
        let plan = if workers == 1 {
            PartitionPlan::single(6)
        } else {
            PartitionPlan::new(vec![0, 0, 0, 1, 1, 1])
        };
        (sim, plan, vec![h0, h1, h2, h3], cut)
    }

    /// Everything the driver can observe, digested for comparison.
    fn observe(sim: &mut Sim<u64, DynAgent>, hosts: &[NodeId]) -> String {
        let mut out = String::new();
        use std::fmt::Write;
        writeln!(out, "clock={:?}", sim.now()).unwrap();
        for &h in hosts {
            let recv = sim.with_agent::<Pacer, _>(h, |p, _| p.received.clone());
            writeln!(out, "host {h:?}: {recv:?}").unwrap();
        }
        for (id, l) in sim.links() {
            for d in 0..2 {
                writeln!(out, "{id:?}/{d}: {:?}", l.dirs[d].stats).unwrap();
            }
        }
        let p = sim.profile();
        writeln!(out, "deliver={} timer={}", p.deliver, p.timer).unwrap();
        out
    }

    type Observed = (String, Vec<(NodeId, u64)>, Vec<ProbeRecord>, AuditReport);

    fn drive_serial() -> Observed {
        let (mut sim, _, hosts, _) = build(1);
        let mut sigs = Vec::new();
        sim.run_until(SimTime::from_micros(2000), |_, n, c| sigs.push((n, c)));
        // Mid-run driver injection: one extra packet from h0, at exactly
        // t = 2 ms (the flow driver always advances to the stop instant
        // before touching agents, and `PartitionedSim::with_agent` matches
        // that convention).
        sim.advance_to(SimTime::from_micros(2000));
        let h0 = hosts[0];
        sim.with_agent::<Pacer, _>(h0, |p, ctx| {
            let pkt = Packet::new(
                p.src,
                p.dst,
                FlowId(p.flow),
                Ecn::Ect,
                ByteSize::from_bytes(700),
                999_999,
            );
            ctx.send(PortId(0), pkt);
        });
        sim.run_until(SimTime::from_micros(8000), |_, n, c| sigs.push((n, c)));
        let audit = sim.audit_conservation();
        let digest = observe(&mut sim, &hosts);
        let records = sim
            .take_probes()
            .expect("probes installed")
            .records()
            .to_vec();
        (digest, sigs, records, audit)
    }

    fn drive_partitioned(workers: u32) -> Observed {
        let (sim, plan, hosts, _) = build(workers);
        let mut part = PartitionedSim::new(sim, &plan);
        if workers > 1 {
            assert_eq!(part.lookahead(), Some(SimDuration::from_micros(40)));
        }
        let mut sigs = Vec::new();
        part.run_until(SimTime::from_micros(2000), |_, n, c| sigs.push((n, c)));
        let h0 = hosts[0];
        part.with_agent::<Pacer, _>(h0, |p, ctx| {
            let pkt = Packet::new(
                p.src,
                p.dst,
                FlowId(p.flow),
                Ecn::Ect,
                ByteSize::from_bytes(700),
                999_999,
            );
            ctx.send(PortId(0), pkt);
        });
        part.run_until(SimTime::from_micros(8000), |_, n, c| sigs.push((n, c)));
        let audit = part.audit_conservation();
        let mut merged = part.finish();
        let digest = observe(&mut merged, &hosts);
        let records = merged
            .take_probes()
            .expect("probes installed")
            .records()
            .to_vec();
        (digest, sigs, records, audit)
    }

    /// FNV-1a over everything [`Observed`] holds.
    fn digest(o: &Observed) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in format!("{o:?}").bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    #[test]
    fn partitioned_matches_serial_and_the_recorded_outcome() {
        // Host arrivals, per-direction stats, signals, probe records and
        // the audit, recorded from the two-event (`TxDone` + `Deliver`)
        // link pipeline at commit ce843ca; serial and sharded runs must
        // keep reproducing them.
        const RECORDED: u64 = 3211794231008737860;
        let serial = drive_serial();
        assert_eq!(digest(&serial), RECORDED, "serial");
        for workers in [1u32, 2] {
            let part = drive_partitioned(workers);
            assert_eq!(serial.0, part.0, "digest mismatch (workers={workers})");
            assert_eq!(serial.1, part.1, "signal mismatch (workers={workers})");
            assert_eq!(serial.2, part.2, "probe mismatch (workers={workers})");
            assert_eq!(serial.3, part.3, "audit mismatch (workers={workers})");
        }
    }

    #[test]
    fn finished_sim_keeps_running_serially() {
        // Cut the run mid-flight, reassemble, and let the merged serial sim
        // finish the workload: pending cross-partition deliveries must
        // survive the merge.
        let (sim, plan, hosts, _) = build(2);
        let mut part = PartitionedSim::new(sim, &plan);
        part.run_until_quiet(SimTime::from_micros(700));
        let mut merged = part.finish();
        assert!(merged.engine.pending() > 0, "expected in-flight work");
        merged.run_until_quiet(SimTime::from_micros(8000));
        merged.audit_conservation();

        let (mut serial, _, _, _cut) = build(1);
        serial.run_until_quiet(SimTime::from_micros(8000));
        let a = observe(&mut merged, &hosts);
        let b = observe(&mut serial, &hosts);
        assert_eq!(a, b, "resumed merged sim diverged from serial");
    }

    #[test]
    #[should_panic(expected = "pristine")]
    fn partitioning_a_run_sim_panics() {
        let (mut sim, plan, _, _) = build(2);
        sim.run_until_quiet(SimTime::from_micros(500));
        let _ = PartitionedSim::new(sim, &plan);
    }

    /// Sharding and merging again with nothing run in between is the
    /// identity on every sub-state, whatever the plan: same links, same
    /// timers, same ledger, and each pending event exactly once.
    #[test]
    fn shard_then_merge_restores_every_sub_state() {
        fn snapshot(mut sim: Sim<u64, DynAgent>) -> String {
            use std::fmt::Write;
            let mut out = format!("{:?}\n{:?}\n", sim.ledger, sim.hosts.timers);
            for l in &sim.fabric.links {
                writeln!(out, "{l:?} {:?}", l.dirs.each_ref().map(|d| (d, &d.stats))).unwrap();
                let cold = l
                    .dirs
                    .each_ref()
                    .map(|d| (d.fail_gen, d.down, d.fault, d.in_network));
                writeln!(out, "{cold:?}").unwrap();
            }
            while let Some((t, ev)) = sim.engine.pop() {
                writeln!(out, "{t:?} {ev:?}").unwrap();
            }
            out
        }
        let pristine = || {
            let (mut sim, _, _, _) = build(1);
            sim.ledger.injected = 9;
            sim.ledger.dropped = 9;
            sim
        };
        let want = snapshot(pristine());
        for plan in [
            PartitionPlan::single(6),
            PartitionPlan::new(vec![0, 0, 0, 1, 1, 1]),
            PartitionPlan::new(vec![0, 2, 1, 1, 0, 2]),
        ] {
            let merged = PartitionedSim::new(pristine(), &plan).finish();
            assert!(merged.observers.probes.is_some(), "probes survive");
            assert_eq!(snapshot(merged), want, "{plan:?}");
        }
        // 2 faults, 4 host timers and the sampling tick, once each.
        assert_eq!(want.matches("Fault {").count(), 2);
        assert_eq!(want.matches("Timer {").count(), 4);
        assert_eq!(want.matches("Sample").count(), 1);
    }
}
