//! Host-side state: the agents, their timers, the signals they raise and
//! the scratch buffers their callbacks emit into.
//!
//! Only the event loop mutates it — an agent runs inside [`Hosts::call`],
//! and the event loop then applies what it emitted.

use crate::agent::{Agent, Ctx, Emit};
use crate::node::NodeId;
use crate::probe::SimProfile;
use crate::timer::TimerTable;
use std::collections::VecDeque;
use xmp_des::SimTime;

/// Everything that lives on end hosts, indexed densely by `NodeId`
/// (switches hold an empty slot).
pub(crate) struct Hosts<P, A> {
    agents: Vec<Option<A>>,
    /// Recycled agent emission buffers: every packet delivery and timer
    /// expiry needs a scratch `Vec<Emit>`, and allocating one per event was
    /// the hot loop's last per-packet heap allocation.
    emit_pool: Vec<Vec<Emit<P>>>,
    /// Out-of-band `(node, code)` signals awaiting the driver callback.
    pub(crate) signals: VecDeque<(NodeId, u64)>,
    /// Every agent timer.
    pub(crate) timers: TimerTable,
}

impl<P, A: Agent<P>> Hosts<P, A> {
    pub(crate) fn new() -> Self {
        Hosts {
            agents: Vec::new(),
            emit_pool: Vec::new(),
            signals: VecDeque::new(),
            timers: TimerTable::default(),
        }
    }

    /// Slot for the next node: its agent (`None` for a switch) and an
    /// empty timer table.
    pub(crate) fn add_node(&mut self, agent: Option<A>) {
        self.agents.push(agent);
        self.timers.add_node();
    }

    /// Run `f` on `node`'s agent at `now`; returns its result and what the
    /// agent emitted, in a pooled buffer to hand back through
    /// [`Hosts::recycle`] (pool hits and misses are counted on `profile`).
    ///
    /// # Panics
    /// Panics if `node` is a switch.
    pub(crate) fn call<R>(
        &mut self,
        node: NodeId,
        now: SimTime,
        profile: &mut SimProfile,
        f: impl FnOnce(&mut A, &mut Ctx<'_, P>) -> R,
    ) -> (R, Vec<Emit<P>>) {
        let mut emits = match self.emit_pool.pop() {
            Some(buf) => {
                profile.pool_hits += 1;
                buf
            }
            None => {
                profile.pool_misses += 1;
                Vec::new()
            }
        };
        let agent = self.agents[node.0 as usize]
            .as_mut()
            .unwrap_or_else(|| panic!("{node:?} has no agent (it is a switch)"));
        let r = f(agent, &mut Ctx::new(now, &mut emits));
        (r, emits)
    }

    /// Return a drained emission buffer to the pool.
    pub(crate) fn recycle(&mut self, emits: Vec<Emit<P>>) {
        debug_assert!(emits.is_empty());
        self.emit_pool.push(emits);
    }
}
