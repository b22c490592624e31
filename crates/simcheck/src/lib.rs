//! # xmp-simcheck — deterministic chaos harness for the XMP simulator
//!
//! Seeded scenario fuzzing with differential oracles: every generated
//! scenario runs once in fixed slices and again cut into seeded irregular
//! windows, and every leg must produce a bit-identical digest while
//! runtime invariant audits hold mid-run. On failure the scenario is shrunk to a minimal
//! reproducer and written as a replay file that `simcheck replay`
//! re-executes exactly.
//!
//! * [`scenario`] — the declarative scenario file (parse / serialize), the
//!   one `.scn` model shared with the paper runs of `xmp-experiments`,
//! * [`gen`] — pure-function-of-seed scenario generation,
//! * [`exec`] — oracle legs, digests and invariant audits,
//! * [`mod@shrink`] — minimization to a replay file.
//!
//! Everything is std-only and fully deterministic: the same master seed
//! reproduces the same batch on any machine, and a replay file pins one
//! run exactly.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod exec;
pub mod gen;
pub mod shrink;

pub use xmp_experiments::scenario;

pub use exec::{legs, run_scenario, LegOutcome, LegSpec, RunOutcome};
pub use gen::generate;
pub use scenario::{FaultLine, FaultSpec, FlowLine, LinkRef, NodeRef, QdiscSpec, Scenario};
pub use shrink::shrink;
