//! # xmp-transport — TCP, DCTCP and MPTCP on the simulator
//!
//! This crate is the transport substrate of the XMP reproduction:
//!
//! * [`segment`] — the modelled TCP/MPTCP header, including the paper's
//!   2-bit CE-count echo encoding,
//! * [`rtt`] — SRTT/RTTVAR estimation and RTO with `RTOmin = 200 ms`
//!   (the constant the paper blames for LIA's completion-time tail),
//! * [`sender`] / [`receiver`] — pure per-subflow TCP state machines
//!   (handshake, reassembly, delayed ACKs, NewReno fast retransmit/recovery,
//!   RTO) shared by every congestion-control scheme, writing their actions
//!   to a [`sink::Sink`],
//! * [`cc`] — the multipath-aware [`cc::CongestionControl`] trait and the
//!   baselines: [`cc::Reno`] ("TCP"), [`cc::Dctcp`], [`cc::Lia`] (MPTCP's
//!   Linked Increases). XMP itself lives in the `xmp-core` crate and plugs
//!   into the same trait,
//! * [`stack`] — the per-host agent multiplexing connections onto the
//!   network.
//!
//! Single-path TCP is simply an MPTCP connection with one subflow, so every
//! scheme shares identical loss-recovery machinery — differences between
//! schemes in the experiments are differences in congestion control only,
//! as in the paper.
//!
//! The externally observable behaviour of these state machines is
//! spec-quoted clause by clause in the repository's `specs/` tree
//! (RFC 5681, 6582, 3168, 6356, 8257, 6298) — see `specs/README.md`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cc;
pub mod config;
pub mod receiver;
pub mod rtt;
pub mod segment;
pub mod sender;
pub mod sink;
pub mod stack;

pub use cc::{AckInfo, CcSnapshot, CongestionControl, Dctcp, Lia, Olia, Reno, SubflowCc, MIN_CWND};
pub use config::StackConfig;
pub use receiver::{MpReceiver, ReplyPath, RxAction};
pub use rtt::RttEstimator;
pub use segment::{ConnKey, EchoMode, SegKind, Segment, DEFAULT_MSS, HEADER_BYTES};
pub use sender::{ConnStats, MpSender, SubflowSpec, TxAction};
pub use sink::Sink;
pub use stack::{Acked, HostStack};
