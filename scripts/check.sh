#!/usr/bin/env bash
# Tier-1 gate: the release build plus the full test suite, fully offline.
# This is the command CI and the roadmap treat as the health check.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --workspace --release --offline
cargo test -q --workspace --offline
# The fat tree's closed-form forwarding against its arithmetic reference at
# every (switch, bound address) of a k = 32 tree: 157 M pairs, swept in full
# only by an optimized build (the line above takes every 61st alias).
cargo test -q --release --offline -p xmp-topo --test forwarding_reference
# Conformance gate: every spec clause in specs/ parses, every MUST cites
# a test, and every cited test exists in the workspace. Exits nonzero on
# a dangling citation (also enforced in-suite by tests/conformance.rs).
cargo run --release --offline -p xmp-conformance -- check
# Lint gate: clippy clean across every target (tests, examples, binaries).
cargo clippy --workspace --all-targets --offline -- -D warnings
# Rustdoc gate: every pub item documented, no broken intra-doc links.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline
# Smoke: the paper runs read from disk, through the one .scn runner: the
# failover file's fault plan and fig7's mid-run L3 closure (a drop split
# between two bin runs), each ending with the invariant and conservation
# audits (exit 1 on a failure). The on-disk fig7 must print what the
# built-in `fig7` alias prints.
mkdir -p results
cargo run --release --offline -p xmp-experiments -- run scenarios/paper/failover.scn --quick
cargo run --release --offline -p xmp-experiments -- run scenarios/paper/fig7.scn --quick \
  > results/fig7-file.txt
cargo run --release --offline -p xmp-experiments -- fig7 --quick > results/fig7-alias.txt
diff results/fig7-file.txt results/fig7-alias.txt
# Smoke: the k=8 fat-tree wave, with faults and probes live, must still
# print its recorded outcome digest.
cargo run --release --offline -p xmp-experiments -- scale --quick | tee results/scale.txt
grep -q 7e93a02948d16d8f results/scale.txt
# Smoke: the hybrid fluid/packet mode must stay inside its documented
# per-class tolerance bands against the packet baseline on the identical
# workload (the hybrid command exits nonzero when out of tolerance).
cargo run --release --offline -p xmp-experiments -- hybrid --quick
# Chaos gate: 50 seeded fuzz scenarios, each run in fixed slices and again
# through 1-2 seeded sequences of irregular run windows (digests must
# agree) with runtime invariant audits. Exits nonzero and writes a
# minimized replay file under results/simcheck/ on any divergence.
cargo run --release --offline -p xmp-simcheck -- run --budget quick --out results/simcheck
# Smoke: the path a human replay takes — write the quick batch to disk,
# read one file back through the .scn reader and run it (exit 0 = every
# oracle leg agrees).
cargo run --release --offline -p xmp-simcheck -- generate --budget quick --out results/scn >/dev/null
cargo run --release --offline -p xmp-simcheck -- replay results/scn/scenario-00000000513c4ec4-007.scn
# Smoke: dynamics must export parseable JSONL traces, and `trace report`
# (the std-only checker) must round-trip them. results/ stays untracked.
cargo run --release --offline -p xmp-experiments -- dynamics --quick
cargo run --release --offline -p xmp-experiments -- trace report \
  results/dynamics_xmp-2.jsonl results/dynamics_dctcp.jsonl
if git check-ignore -q results/dynamics_xmp-2.jsonl; then
  : # exported artifacts are ignored, as intended
else
  echo "check.sh: results/ must be gitignored" >&2
  exit 1
fi
# Smoke: the two examples that declare stops to the driver and bin rates
# (the clippy gate compiles every example; nothing else runs these).
cargo run --release --offline --example traffic_shifting >/dev/null
cargo run --release --offline --example rate_compensation >/dev/null
# Benchmark gate: the frozen harness in examples/benchmark/ must still
# build against the library and pass its own assertions (~10 s at 1/20
# size: outcome digests equal across repetitions and traced/untraced,
# failed == 0, zero allocations per packet-hop on db_long).
bash examples/benchmark/run.sh --self-test
# Bit-identity gate: the six seed-1 benchmark outcome digests against the
# recorded list (~1 min); names the workload that moved.
scripts/digests.sh
echo "check.sh: all green"
