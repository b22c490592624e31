//! # xmp-conformance — the RFC-anchored conformance layer
//!
//! The transport and congestion-control state machines in this workspace
//! claim to implement specific clauses of RFC 5681 (TCP congestion
//! control), RFC 6582 (NewReno), RFC 3168 (ECN), RFC 6356 (MPTCP coupled
//! congestion control), RFC 8257 (DCTCP), RFC 6298 (RTO computation),
//! RFC 3042 (limited transmit) and the XMP paper's Algorithm 1. The
//! `specs/` tree at the repository root pins each of those claims to the
//! **quoted clause** it implements, the item path that implements it, and
//! the name of a `#[test]` that asserts the clause's observable behaviour
//! (the approach is borrowed from `aws/s2n-quic`'s `specs/` directory).
//!
//! This crate is the machinery that keeps the tree honest:
//!
//! * [`text`] — the one reader for the workspace's keyed text files
//!   (`#` comments, `[table]` / `[[table]]` headers, `key = value` fields
//!   with line numbers), shared with simcheck's `.scn` scenarios,
//! * [`spec`] — the spec-file format on top of it (one file per RFC
//!   section, `[[spec]]` entries carrying `level`, `quote`, `impl` and
//!   `test` fields),
//! * [`scan`] — a source scanner that collects every `#[test]` function
//!   name and every item identifier in the workspace,
//! * [`check`](check::check_tree) — the conformance gate: every spec file
//!   parses, every MUST-level entry cites a test, every cited test exists
//!   in the workspace, every `impl` path resolves to a real item. Dangling
//!   citations are hard errors (nonzero exit in the CLI), so deleting or
//!   renaming a cited test breaks CI until the spec is updated,
//! * [`check`](check::render_report) — the `conformance report` output:
//!   per-file and total clause counts by level, cited/uncited coverage,
//!   and the list of uncovered quotes.
//!
//! The citation tests themselves live in the umbrella crate's
//! `tests/conformance.rs`; they run under the ordinary tier-1
//! `cargo test`. The checker deliberately verifies *existence*, not
//! execution — execution is the test suite's job; pairing the two gates
//! means "every MUST clause cites a passing test" holds whenever CI is
//! green.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod check;
pub mod scan;
pub mod spec;
pub mod text;

pub use check::{check_tree, render_report, CheckError, Coverage};
pub use scan::{SourceIndex, TestIndex};
pub use spec::{Level, SpecEntry, SpecError, SpecFile};
