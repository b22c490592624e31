//! Closed enum over every in-tree congestion controller.
//!
//! [`CcKind`] is the static-dispatch counterpart to
//! `Box<dyn CongestionControl>`: the workload driver builds one per flow
//! (see `Scheme::make_cc` in `xmp-workloads`) and the generic
//! `MpSender<CcKind>` / `HostStack<CcKind>` monomorphize the per-ACK hot
//! path into direct calls — no vtable, no per-flow controller allocation.
//! A new algorithm is a new variant; a one-off experiment can instantiate
//! the generic `HostStack<C>` with its own controller type instead.

use crate::bos::Bos;
use crate::xmp::Xmp;
use xmp_transport::{
    AckInfo, CcSnapshot, CongestionControl, Dctcp, EchoMode, Lia, Olia, Reno, SubflowCc,
};

/// One in-tree congestion controller, statically dispatched.
pub enum CcKind {
    /// Standard NewReno (uncoupled).
    Reno(Reno),
    /// DCTCP's α-based proportional backoff (uncoupled).
    Dctcp(Dctcp),
    /// Buffer Occupancy Suppression — the paper's single-path building
    /// block (also XMP's uncoupled ablation arm when built per-subflow).
    Bos(Bos),
    /// The full XMP scheme: BOS + TraSh window coupling.
    Xmp(Xmp),
    /// MPTCP's Linked Increases Algorithm (RFC 6356).
    Lia(Lia),
    /// The Opportunistic LIA variant.
    Olia(Olia),
}

/// Match-delegating implementation: every arm is a direct (inlinable) call
/// into the concrete controller.
macro_rules! delegate {
    ($self:ident, $inner:ident => $body:expr) => {
        match $self {
            CcKind::Reno($inner) => $body,
            CcKind::Dctcp($inner) => $body,
            CcKind::Bos($inner) => $body,
            CcKind::Xmp($inner) => $body,
            CcKind::Lia($inner) => $body,
            CcKind::Olia($inner) => $body,
        }
    };
}

impl CongestionControl for CcKind {
    fn init(&mut self, n: usize) {
        delegate!(self, c => c.init(n))
    }

    fn on_subflow_added(&mut self) {
        delegate!(self, c => c.on_subflow_added())
    }

    fn echo_mode(&self) -> EchoMode {
        delegate!(self, c => c.echo_mode())
    }

    fn on_ack(&mut self, r: usize, info: &AckInfo, view: &mut [SubflowCc]) {
        delegate!(self, c => c.on_ack(r, info, view))
    }

    fn ssthresh_on_loss(&mut self, r: usize, view: &[SubflowCc]) -> f64 {
        delegate!(self, c => c.ssthresh_on_loss(r, view))
    }

    fn on_rto(&mut self, r: usize, view: &mut [SubflowCc]) {
        delegate!(self, c => c.on_rto(r, view))
    }

    fn name(&self) -> &'static str {
        delegate!(self, c => c.name())
    }

    fn observed_round_p(&self, r: usize) -> Option<f64> {
        delegate!(self, c => c.observed_round_p(r))
    }

    fn probe(&self, r: usize) -> Option<CcSnapshot> {
        delegate!(self, c => c.probe(r))
    }
}
