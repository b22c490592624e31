#!/usr/bin/env bash
# Advisory profiler: which source lines does a benchmark workload spend its
# CPU time on?
#
#   scripts/hotspots.sh WORKLOAD [SECONDS [SEED]]    e.g. hotspots.sh ft16_wave 3 11
#
# Runs the release benchmark binary (the release profile keeps debug info)
# under a SIGPROF sampler preloaded from a scratch .so, resolves every
# sampled PC with `addr2line -i -f` and charges it to the innermost inlined
# frame that lies inside this repository *and* has a line number, then
# prints the 40 hottest file:line sites with their share of all samples.
# A PC whose in-repo frames all lost their line (the compiler merged code
# from several lines) is listed under the innermost one's file and function
# name instead, and one outside the repository under its own. This is in-program
# attribution for what the benchmark reports as `netsim.unattributed_frac`;
# nothing is compiled into the simulator, so it costs nothing when not run.
#
# Not a gate: neither tier-1 nor check.sh runs it (CI does, as a
# non-blocking smoke step, so that it keeps working). Without `cc` or
# `addr2line` it prints `skipped` and exits 0. Scratch files go to
# <target>/hotspots/.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 3 ]; then
    echo "usage: scripts/hotspots.sh WORKLOAD [SECONDS [SEED]]" >&2
    exit 2
fi
workload="$1"
seconds="${2:-3}"
seed="${3:-1}"

for tool in cc addr2line; do
    if ! command -v "$tool" >/dev/null 2>&1; then
        echo "hotspots: skipped ($tool not found)"
        exit 0
    fi
done

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# What examples/benchmark/run.sh builds: the harness, and the CLI that
# `cli_all_quick` runs as a subprocess (sampled too — the preload follows it).
cargo build --release --offline --quiet --manifest-path "$root/examples/benchmark/Cargo.toml"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p xmp-experiments --bin xmp-experiments

work="$target/hotspots"
mkdir -p "$work"
rm -f "$work"/samples.*

cat > "$work/sampler.c" <<'EOF'
/* Every 1 ms of process CPU time (or kernel tick, if coarser) -> SIGPROF ->
 * the interrupted PC, kept in a fixed array. At exit: "<prefix>.<pid>" = the
 * executable's path, then one PC per line as an offset from its load address
 * (what addr2line takes). */
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

enum { CAP = 1 << 20 };
static unsigned long pcs[CAP];
static volatile unsigned long taken;

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    ucontext_t *uc = ctx;
    (void)sig, (void)info;
#if defined(__x86_64__)
    if (taken < CAP) pcs[taken++] = uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    if (taken < CAP) pcs[taken++] = uc->uc_mcontext.pc;
#endif
}

static int first_object(struct dl_phdr_info *info, size_t size, void *base) {
    (void)size;
    *(unsigned long *)base = info->dlpi_addr; /* the executable comes first */
    return 1;
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa = {0};
    struct itimerval tick = {{0, 1000}, {0, 1000}};
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, 0);
    setitimer(ITIMER_PROF, &tick, 0);
}

__attribute__((destructor)) static void finish(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    char exe[4096], path[4200];
    const char *prefix = getenv("HOTSPOTS_OUT");
    unsigned long base = 0, i;
    ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
    FILE *f;
    setitimer(ITIMER_PROF, &off, 0);
    if (!prefix || n < 0) return;
    exe[n] = 0;
    snprintf(path, sizeof path, "%s.%d", prefix, (int)getpid());
    if (!(f = fopen(path, "w"))) return;
    dl_iterate_phdr(first_object, &base);
    fprintf(f, "%s\n", exe);
    for (i = 0; i < taken; i++) fprintf(f, "%lx\n", pcs[i] - base);
    fclose(f);
}
EOF
cc -O1 -shared -fPIC -o "$work/sampler.so" "$work/sampler.c"

echo "hotspots: $workload, seed $seed, --seconds $seconds; sampling CPU time at 1 kHz or the kernel tick" >&2
(cd "$root" && HOTSPOTS_OUT="$work/samples" LD_PRELOAD="$work/sampler.so" \
    "$target/release/benchmark" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
    > "$work/benchmark.out")
grep -E '^ +(wall_s|outcome digest) ' "$work/benchmark.out" >&2 || true

# One "count site" line per distinct PC, for every process that left samples.
: > "$work/sites"
for samples in "$work"/samples.*; do
    [ -e "$samples" ] || continue
    exe="$(head -n 1 "$samples")"
    tail -n +2 "$samples" | sort | uniq -c | awk '{ print $2, $1 }' > "$work/counts"
    [ -s "$work/counts" ] || continue
    cut -d' ' -f1 "$work/counts" | addr2line -a -i -f -C -e "$exe" |
        awk -v root="$root/" -v counts="$work/counts" '
            # Per PC, innermost frame first: a function line, then its
            # file:line. Best site wins: 3 = in this checkout with a line,
            # 2 = in this checkout, line lost, 1 = outside it.
            function flush() {
                if (pc != "") print count[pc], site
            }
            function offer(rank, text) {
                if (rank > best) { best = rank; site = text }
            }
            BEGIN {
                while ((getline line < counts) > 0) {
                    split(line, f, " ")
                    count["0x" f[1]] = f[2]
                }
            }
            /^0x[0-9a-f]+$/ {
                flush()
                # addr2line pads the address; the counts file does not.
                pc = $0; sub(/^0x0+/, "0x", pc); if (pc == "0x") pc = "0x0"
                best = 0; site = "(outside) not in the executable"; fn = ""
                next
            }
            fn == "" { fn = $0; next }
            {
                frame = $1                      # drop " (discriminator N)"
                # "../.." folded away, then split off the line number.
                while (sub(/\/[^\/]+\/\.\.\//, "/", frame)) {}
                file = frame; sub(/:[^:]*$/, "", file)
                line = substr(frame, length(file) + 2)
                if (index(file, root) == 1) {
                    file = substr(file, length(root) + 1)
                    if (line ~ /^[1-9][0-9]*$/) offer(3, file ":" line)
                    else offer(2, file " (" fn ")")
                } else if (fn != "??") {
                    sub(/^\/rustc\/[0-9a-f]+\//, "", file)
                    if (line ~ /^[1-9][0-9]*$/) offer(1, "(outside) " file ":" line)
                    else offer(1, "(outside) " fn)
                }
                fn = ""
            }
            END { flush() }
        ' >> "$work/sites"
done

if [ ! -s "$work/sites" ]; then
    echo "hotspots: no samples (run too short?)"
    exit 0
fi
total="$(awk '{ t += $1 } END { print t }' "$work/sites")"
echo "samples: $total"
echo " share  samples  site"
awk '{ n = $1; $1 = ""; by[substr($0, 2)] += n } END { for (s in by) printf "%d\t%s\n", by[s], s }' \
    "$work/sites" | sort -t "$(printf '\t')" -k1,1nr -k2 | head -n 40 |
    awk -F'\t' -v total="$total" '{ printf "%5.1f%%  %7d  %s\n", 100 * $1 / total, $1, $2 }'
