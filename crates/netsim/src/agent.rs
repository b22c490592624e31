//! Host agents.
//!
//! An [`Agent`] is the code running on an end host: it receives packets and
//! timer expirations and reacts by emitting sends, timers and signals
//! through [`Ctx`]. Agents are pure state machines — they never touch the
//! network directly — which keeps transports unit-testable without a
//! simulator and keeps the event loop in one place.

use crate::node::PortId;
use crate::packet::Packet;
use std::any::Any;
use xmp_des::SimTime;

/// What an agent asked the simulator to do.
#[derive(Debug)]
pub enum Emit<P> {
    /// Transmit a packet out of the given local port.
    Send {
        /// Local port to transmit on.
        port: PortId,
        /// The packet.
        pkt: Packet<P>,
    },
    /// (Re)arm the timer identified by `token` to fire at `at`.
    /// Re-arming supersedes any previous setting of the same token.
    SetTimer {
        /// Agent-chosen timer identifier.
        token: u64,
        /// Absolute expiry time.
        at: SimTime,
    },
    /// Disarm the timer identified by `token`.
    CancelTimer {
        /// Agent-chosen timer identifier.
        token: u64,
    },
    /// Raise an out-of-band signal to the simulation driver
    /// (e.g. "flow 17 completed").
    Signal(u64),
}

/// Emission buffer handed to agent callbacks.
pub struct Ctx<'a, P> {
    now: SimTime,
    emits: &'a mut Vec<Emit<P>>,
}

impl<'a, P> Ctx<'a, P> {
    pub(crate) fn new(now: SimTime, emits: &'a mut Vec<Emit<P>>) -> Self {
        Ctx { now, emits }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// What this callback has emitted so far, in order.
    pub fn emitted(&self) -> &[Emit<P>] {
        self.emits
    }

    /// Transmit `pkt` on local `port`.
    pub fn send(&mut self, port: PortId, pkt: Packet<P>) {
        self.emits.push(Emit::Send { port, pkt });
    }

    /// (Re)arm timer `token` to fire at `at`.
    pub fn set_timer(&mut self, token: u64, at: SimTime) {
        self.emits.push(Emit::SetTimer { token, at });
    }

    /// Disarm timer `token`.
    pub fn cancel_timer(&mut self, token: u64) {
        self.emits.push(Emit::CancelTimer { token });
    }

    /// Raise a driver signal.
    pub fn signal(&mut self, code: u64) {
        self.emits.push(Emit::Signal(code));
    }
}

/// The code running on an end host.
pub trait Agent<P>: Any {
    /// A packet arrived on local `port`.
    fn on_packet(&mut self, pkt: Packet<P>, port: PortId, ctx: &mut Ctx<'_, P>);

    /// Timer `token` fired.
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, P>);

    /// Upcast for driver access to the concrete type
    /// (implementations return `self`).
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// A boxed agent is an agent: the escape hatch that lets
/// [`Sim`](crate::Sim) default to heterogeneous `Box<dyn Agent<P>>` hosts
/// while the hot path runs a concrete agent type with static dispatch.
///
/// `as_any_mut` delegates to the *inner* value, so
/// [`Sim::with_agent`](crate::Sim::with_agent) downcasts reach the concrete
/// agent identically through either dispatch path.
impl<P, A: Agent<P> + ?Sized> Agent<P> for Box<A> {
    fn on_packet(&mut self, pkt: Packet<P>, port: PortId, ctx: &mut Ctx<'_, P>) {
        (**self).on_packet(pkt, port, ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, P>) {
        (**self).on_timer(token, ctx);
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        (**self).as_any_mut()
    }
}
