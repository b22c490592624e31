//! Where the sender and receiver state machines put their actions.

use crate::sender::SubflowSpec;

/// Takes a state machine's actions — [`TxAction`](crate::TxAction)s from a
/// sender, [`RxAction`](crate::RxAction)s from a receiver — in the order
/// the machine produces them.
///
/// A `Vec` records them, for code that drives a machine without a network.
/// The [`HostStack`](crate::HostStack) turns each one into a packet, timer
/// or signal on the simulator as it comes, so nothing is buffered between
/// the machine and the simulator. The state machine is the same for both:
/// the sink is the only place their paths differ.
pub trait Sink<A> {
    /// Take a timer or completion action, or a receiver's `Emit` (which
    /// carries its reply path).
    fn push(&mut self, act: A);

    /// Take a sender's [`TxAction::Emit`](crate::TxAction::Emit) with what
    /// the wire needs and the action does not carry: the subflow's `spec`
    /// and whether the packet is ECN-capable (`ect`). A recording sink
    /// keeps the action alone.
    fn emit(&mut self, act: A, spec: &SubflowSpec, ect: bool) {
        let _ = (spec, ect);
        self.push(act);
    }
}

impl<A> Sink<A> for Vec<A> {
    fn push(&mut self, act: A) {
        Vec::push(self, act);
    }
}
