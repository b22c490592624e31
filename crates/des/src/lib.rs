//! # xmp-des — deterministic discrete-event simulation kernel
//!
//! This crate is the bottom layer of the XMP reproduction stack. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time,
//! * [`EventQueue`] — a priority queue with **deterministic** ordering
//!   (ties at equal timestamps are broken by insertion order, never by
//!   allocation or hash state),
//! * [`Engine`] — a minimal run loop over a user-supplied event type,
//! * [`units`] — strongly-typed bandwidth and data-size quantities,
//! * [`SimRng`] — an explicitly seeded RNG so every simulation is
//!   reproducible from its seed alone,
//! * [`hint`] — the cache prefetch hint the run loop issues for events the
//!   queue already knows are next.
//!
//! The design follows the event-driven, allocation-light ethos of
//! embedded-style network stacks: no async runtime, no global state, and no
//! hidden sources of nondeterminism. Everything above (links, switches,
//! transports, congestion control) is expressed as handlers invoked by the
//! engine in timestamp order.
//!
//! ```
//! use xmp_des::{Engine, SimDuration, SimTime};
//!
//! // A toy simulation: two ping-pong events.
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut engine = Engine::new();
//! engine.schedule(SimTime::ZERO + SimDuration::from_micros(5), Ev::Ping);
//! engine.schedule(SimTime::ZERO + SimDuration::from_micros(9), Ev::Pong);
//!
//! let mut seen = Vec::new();
//! while let Some((t, ev)) = engine.pop() {
//!     seen.push((t.as_nanos(), ev));
//! }
//! assert_eq!(seen.len(), 2);
//! assert_eq!(seen[0].0, 5_000);
//! ```

#![warn(missing_docs)]
// One exception, in `hint::prefetch_read`: the prefetch instruction itself.
#![deny(unsafe_code)]

pub mod engine;
pub mod hint;
pub mod queue;
pub mod rng;
pub mod time;
pub mod units;

pub use engine::Engine;
pub use queue::{BinaryHeapQueue, EventQueue, ScheduledEvent};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use units::{Bandwidth, ByteSize};
