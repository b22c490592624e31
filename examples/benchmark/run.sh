#!/usr/bin/env bash
# The benchmark's one command. Builds, then runs:
#
#   run.sh [--seed N] [--seconds S] [--traced] [--out FILE]
#       every workload: checks outputs, prints every metric by name with its
#       unit, writes <target>/benchmark/result-seed<N>.json (and, traced,
#       <target>/benchmark/trace-<workload>.json)
#   run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload; the last line of stdout is the result as one JSON object
#   run.sh --self-test
#       every workload at 1/20 size with assertions; under 15 s
#   run.sh compare A.json B.json
#       per (metric, workload) verdicts between two result files
#
# Builds go to $CARGO_TARGET_DIR when set, to the repository's target/ when not.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"

if [ "${1:-}" = compare ]; then
    shift
    exec python3 "$here/compare.py" "$@"
fi

target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# The harness is a package of its own; `cli_all_quick` runs the CLI the root
# workspace builds. Both land in the same target directory, and both must be
# built with the same release profile: the engine is measured as it ships.
profile() { sed -n '/^\[profile\.release\]/,/^\[/{/^\[/!p}' "$1" | grep -v '^#' | grep . | sort; }
if [ "$(profile "$root/Cargo.toml")" != "$(profile "$here/Cargo.toml")" ]; then
    echo "run.sh: [profile.release] differs between $root/Cargo.toml and $here/Cargo.toml" >&2
    exit 1
fi
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p xmp-experiments --bin xmp-experiments

cd "$root"
exec "$target/release/benchmark" "$@"
