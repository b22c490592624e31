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
# audits (exit 1 on a failure). The on-disk fig7, fattree, table2 and
# dynamics must print what their built-in aliases print (the fat-tree suite
# through its `[pattern]`, one pattern at --quick), and dynamics must write
# the same probe exports (results/dynamics_<variant>.jsonl).
mkdir -p results
cargo run --release --offline -p xmp-experiments -- run scenarios/paper/failover.scn --quick
for run in "fig7 --quick" "fattree --quick --pattern perm" "table2 --quick" "dynamics --quick"; do
  set -- $run
  name=$1
  shift
  rm -rf results/file && mkdir -p results/file
  cargo run --release --offline -p xmp-experiments -- run "scenarios/paper/$name.scn" "$@" \
    > "results/$name-file.txt"
  for f in results/"$name"_*.jsonl; do
    if [ -e "$f" ]; then mv "$f" results/file/; fi
  done
  cargo run --release --offline -p xmp-experiments -- "$name" "$@" > "results/$name-alias.txt"
  diff "results/$name-file.txt" "results/$name-alias.txt"
  for f in results/file/*.jsonl; do
    if [ -e "$f" ]; then cmp "$f" "results/$(basename "$f")"; fi
  done
done
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
# Smoke: the dynamics exports written above must be parseable JSONL, and
# `trace report` (the std-only checker) must round-trip them. results/
# stays untracked.
cargo run --release --offline -p xmp-experiments -- trace report \
  results/dynamics_xmp-2.jsonl results/dynamics_dctcp.jsonl
if git check-ignore -q results/dynamics_xmp-2.jsonl; then
  : # exported artifacts are ignored, as intended
else
  echo "check.sh: results/ must be gitignored" >&2
  exit 1
fi
# Smoke: the TraSh-coupling cell from disk, whose single-path flows name
# their own scheme on their [schedule] lines (ablation runs it built in).
cargo run --release --offline -p xmp-experiments -- run scenarios/paper/coupling.scn --quick >/dev/null
# Benchmark gate: the frozen harness in examples/benchmark/ must still
# build against the library and pass its own assertions (~10 s at 1/20
# size: outcome digests equal across repetitions and traced/untraced,
# failed == 0, zero allocations per packet-hop on db_long).
bash examples/benchmark/run.sh --self-test
# Bit-identity gate: the six seed-1 benchmark outcome digests against the
# recorded list (~1 min); names the workload that moved.
scripts/digests.sh
echo "check.sh: all green"
