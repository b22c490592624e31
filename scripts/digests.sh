#!/usr/bin/env bash
# Bit-identity gate: the six seed-1 outcome digests of the benchmark
# workloads (flow records, conservation audit, final clock) against the
# values recorded below. A change that moves a simulated bit moves one of
# them; the script names the workload and exits 1.
#
#   scripts/digests.sh
#
# Runs the frozen harness as it is (`run.sh --seed 1 --seconds 1`, ~1 min
# warm) and changes nothing in it. The digests have not moved since the
# harness was frozen (PR 11); a PR that means to change simulated behaviour
# re-records them here, in the same commit, and says why.
set -euo pipefail
cd "$(dirname "$0")/.."

recorded="ft8_perm 27595679ff69b7d3
ft8_incast 294bf72bda2f8371
ft16_wave 5ace58f35d50cdc0
db_long 46e616ff77f7e80a
hybrid_mix 612d14d816f1338a
cli_all_quick 8f89da6a576fc995"

out="${CARGO_TARGET_DIR:-$PWD/target}/benchmark/digests-seed1.json"
mkdir -p "$(dirname "$out")"
bash examples/benchmark/run.sh --seed 1 --seconds 1 --out "$out" >/dev/null

# One `"<workload>": {... "digest": "<hex>"` per workload, in file order.
got="$(grep -oE '"[a-z0-9_]+": \{"repetitions"|"digest": "[0-9a-f]+"' "$out" |
    sed -E 's/^"([a-z0-9_]+)": \{"repetitions"$/\1/; s/^"digest": "([0-9a-f]+)"$/\1/' |
    paste -d' ' - -)"

status=0
while read -r workload want; do
    have="$(awk -v w="$workload" '$1 == w { print $2 }' <<<"$got")"
    if [ "$have" != "$want" ]; then
        echo "digests.sh: $workload moved: recorded $want, got ${have:-nothing}" >&2
        status=1
    fi
done <<<"$recorded"
[ "$status" -eq 0 ] && echo "digests.sh: six seed-1 outcome digests unchanged"
exit "$status"
