#!/usr/bin/env bash
# A/B timing of one benchmark workload between two checkouts.
#
#   scripts/ab.sh [--concurrent] [--seconds T] A B WORKLOAD SEED N
#
#   e.g. scripts/ab.sh --seconds 3 ../parent . ft16_wave 1 10
#
# Builds each checkout into its own target directory (`<checkout>/target`,
# whatever CARGO_TARGET_DIR says) and stops if either build fails, so a
# stale binary is never measured in place of a fresh one. Then runs N pairs
# of `examples/benchmark/run.sh --workload W --seed S --seconds T --trace 0`
# from each checkout's root: one after the other, the first side
# alternating between pairs (A first in odd pairs), or with `--concurrent`
# both sides at once, each pinned to a vCPU of its own (`taskset`: A on
# vCPU 0 in odd pairs, on vCPU 1 in even ones), so the host's noise hits
# both alike. T defaults to 3.
#
# Prints per pair both sides' `wall_s`, `setup_s`, `peak_heap_mib` and
# outcome digest, then the medians, the median of the per-pair `wall_s`
# ratios B/A and the pairs B won (lower `wall_s`). Exits 1 when a run is
# not `correct` or the two sides' digests differ in any pair. Changes
# nothing in either checkout besides its target directory.
set -euo pipefail

usage() {
    echo "usage: scripts/ab.sh [--concurrent] [--seconds T] A B WORKLOAD SEED N" >&2
    exit 2
}

concurrent=0
seconds=3
args=()
while [ $# -gt 0 ]; do
    case "$1" in
        --concurrent) concurrent=1 ;;
        --seconds)
            [ $# -ge 2 ] || usage
            seconds="$2"
            shift
            ;;
        --*) usage ;;
        *) args+=("$1") ;;
    esac
    shift
done
[ "${#args[@]}" -eq 5 ] || usage
side_a="$(cd "${args[0]}" && pwd)"
side_b="$(cd "${args[1]}" && pwd)"
workload="${args[2]}"
seed="${args[3]}"
pairs="${args[4]}"
case "$pairs" in
    '' | *[!0-9]* | 0) usage ;;
esac
if [ "$concurrent" -eq 1 ]; then
    command -v taskset >/dev/null || { echo "ab.sh: --concurrent needs taskset" >&2; exit 2; }
    [ "$(nproc)" -ge 2 ] || { echo "ab.sh: --concurrent needs 2 vCPUs" >&2; exit 2; }
fi

# What run.sh builds, into the side's own target directory; a failure ends
# the script here.
build() {
    echo "ab: building $1" >&2
    CARGO_TARGET_DIR="$1/target" cargo build --release --offline --quiet \
        --manifest-path "$1/examples/benchmark/Cargo.toml"
    CARGO_TARGET_DIR="$1/target" cargo build --release --offline --quiet \
        --manifest-path "$1/Cargo.toml" -p xmp-experiments --bin xmp-experiments
}
build "$side_a"
[ "$side_b" = "$side_a" ] || build "$side_b"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# run SIDE OUT [CPU]: one benchmark run; its stdout goes to OUT.
run() {
    local pin=()
    [ $# -lt 3 ] || pin=(taskset -c "$3")
    (cd "$1" && CARGO_TARGET_DIR="$1/target" "${pin[@]}" bash examples/benchmark/run.sh \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 >"$2")
}

# field FILE NAME: a metric's value from the run's last (JSON) line.
field() {
    tail -n 1 "$1" | grep -oE "\"$2\": \{\"value\": [-0-9.e]+" | grep -oE '[-0-9.e]+$'
}
digest() {
    awk '$1 == "outcome" && $2 == "digest" { print $3 }' "$1"
}

median() { sort -g | awk '{ v[NR] = $1 } END { print (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }'; }

order=alternating
[ "$concurrent" -eq 0 ] || order=concurrent
echo "ab: A = $side_a ($(git -C "$side_a" rev-parse --short HEAD 2>/dev/null || echo '?'))"
echo "ab: B = $side_b ($(git -C "$side_b" rev-parse --short HEAD 2>/dev/null || echo '?'))"
echo "ab: $workload seed $seed, --seconds $seconds, $pairs pairs, $order"
printf '%-4s %-5s %10s %10s %7s %11s %11s %9s %9s  %-16s %-16s\n' \
    pair first "A wall_s" "B wall_s" B/A "A setup_s" "B setup_s" "A heap" "B heap" "A digest" "B digest"

status=0
won=0
: >"$work/ratios"
for i in $(seq 1 "$pairs"); do
    a="$work/a.$i" b="$work/b.$i"
    if [ "$concurrent" -eq 1 ]; then
        cpu_a=$(((i + 1) % 2))
        first="A@$cpu_a"
        run "$side_a" "$a" "$cpu_a" &
        pid_a=$!
        run "$side_b" "$b" $((1 - cpu_a)) &
        pid_b=$!
        wait "$pid_a"
        wait "$pid_b"
    elif [ $((i % 2)) -eq 1 ]; then
        first=A
        run "$side_a" "$a"
        run "$side_b" "$b"
    else
        first=B
        run "$side_b" "$b"
        run "$side_a" "$a"
    fi
    wa="$(field "$a" wall_s)" wb="$(field "$b" wall_s)"
    echo "$wa" >>"$work/wall_a"
    echo "$wb" >>"$work/wall_b"
    field "$a" setup_s >>"$work/setup_a"
    field "$b" setup_s >>"$work/setup_b"
    field "$a" peak_heap_mib >>"$work/heap_a"
    field "$b" peak_heap_mib >>"$work/heap_b"
    ratio="$(awk -v a="$wa" -v b="$wb" 'BEGIN { printf "%.4f", b / a }')"
    echo "$ratio" >>"$work/ratios"
    won=$((won + $(awk -v a="$wa" -v b="$wb" 'BEGIN { print (b < a) ? 1 : 0 }')))
    da="$(digest "$a")" db="$(digest "$b")"
    note=""
    if [ "$da" != "$db" ]; then
        note="  DIGEST MISMATCH"
        status=1
    fi
    for f in "$a" "$b"; do
        if ! tail -n 1 "$f" | grep -q '"correct": true'; then
            note="$note  NOT CORRECT ($([ "$f" = "$a" ] && echo A || echo B))"
            status=1
        fi
    done
    printf '%-4s %-5s %10.4f %10.4f %7.4f %11.7f %11.7f %9.4f %9.4f  %-16s %-16s%s\n' \
        "$i" "$first" "$wa" "$wb" "$ratio" "$(tail -n 1 "$work/setup_a")" "$(tail -n 1 "$work/setup_b")" \
        "$(tail -n 1 "$work/heap_a")" "$(tail -n 1 "$work/heap_b")" "$da" "$db" "$note"
done

for m in wall setup heap; do
    ma="$(median <"$work/${m}_a")" mb="$(median <"$work/${m}_b")"
    awk -v m="$m" -v a="$ma" -v b="$mb" \
        'BEGIN { printf "median %-5s A %.7g  B %.7g  B/A %.4f\n", m, a, b, (a != 0) ? b / a : 0 }'
done
echo "median per-pair wall_s ratio B/A $(median <"$work/ratios"), B won $won/$pairs pairs"
if [ "$status" -eq 0 ]; then
    echo "ab: outcome digests identical in every pair"
else
    echo "ab: a digest differs or a run was not correct (see the pairs above)" >&2
fi
exit "$status"
