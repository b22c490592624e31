#!/usr/bin/env python3
"""compare A.json[,A2.json,...] B.json[,B2.json,...]: one row per (end-to-end metric, workload).

A is the base, B the candidate; each is one result file written by `run.sh`
or several, comma-separated. With several files a side's samples are the
files' medians, so its quartiles show the spread between runs; with one
file they are that run's repetitions, which share one process and one
stretch of host noise, and the verdicts are provisional. Every metric is
lower-is-better. The relative bounds are the ones BENCHMARK.json fixes;
`failed_frac` and `model_err` (`hybrid_mix` only) are exact for a seed and
have absolute bounds, fixed here because BENCHMARK.json has no place for
them. There is no combined score.

  regressed   B's median is worse than A's by more than the bound
  improved    B's median is better than A's by more than A's own spread
              (the distance between A's quartiles)
  unresolved  either side's spread is wider than the bound
  unchanged   anything else; a note marks a median that is worse by more
              than A's own spread though within the bound
"""
import json
import statistics
import sys
from pathlib import Path

# B may exceed A by this much, and never MODEL_ERR_BAND (the in-tree band).
ABSOLUTE = {"failed_frac": 0.0, "model_err": 0.02}
MODEL_ERR_BAND = 0.25


def quartiles(samples):
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, med, q3 = statistics.quantiles(samples, n=4)
    return q1, med, q3


def samples(docs, workload, metric):
    runs = [d["workloads"][workload]["end_to_end"][metric]["samples"] for d in docs]
    return runs[0] if len(runs) == 1 else [statistics.median(r) for r in runs]


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    bases, cands = ([json.loads(Path(p).read_text()) for p in arg.split(",")] for arg in argv[1:])
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for side, docs in (("A", bases), ("B", cands)):
        for doc in docs:
            rec = doc["record"]
            noisy = " NOISY" if rec["noisy"] else ""
            print(f"{side}: seed {rec['seed']} rev {rec['git_rev']} {rec['rustc']} "
                  f"nproc {rec['nproc']} load {rec['load1_start']}{noisy}")
    if len(bases) == 1 or len(cands) == 1:
        print("note: one run on a side; its quartiles are of repetitions within that run "
              "and understate the spread between runs")
    if {d["record"]["seed"] for d in bases} != {d["record"]["seed"] for d in cands}:
        print("note: the two sides were measured on different seeds")
    print(f"{'workload':<14} {'metric':<14} {'A median':>12} {'[q1, q3]':>24} {'B median':>12} "
          f"{'[q1, q3]':>24} {'B/A':>7} {'bound':>6}  verdict")
    worst = 0
    for name in [w["name"] for w in spec["workloads"]]:
        missing = [side for side, docs in (("A", bases), ("B", cands))
                   if any(name not in d["workloads"] for d in docs)]
        if missing:
            print(f"{name:<14} missing from {' and '.join(missing)}")
            worst = 1
            continue
        a, b = bases[0]["workloads"][name], cands[0]["workloads"][name]
        if a["digest"] != b["digest"] and bases[0]["record"]["seed"] == cands[0]["record"]["seed"]:
            print(f"{name:<14} outcome digest differs: {a['digest']} -> {b['digest']} "
                  "(expected only when simulated behaviour changed)")
        for metric, bound in bounds.items():
            qa = quartiles(samples(bases, name, metric))
            qb = quartiles(samples(cands, name, metric))
            spread = max((q[2] - q[0]) / q[1] for q in (qa, qb))
            ratio = qb[1] / qa[1]
            if ratio - 1 > bound:
                verdict = "regressed"
                worst = 1
            elif spread > bound:
                verdict = "unresolved"
            elif qa[1] - qb[1] > qa[2] - qa[0]:
                verdict = "improved"
            elif qb[1] - qa[1] > qa[2] - qa[0]:
                verdict = "unchanged (worse by more than A's spread, within the bound)"
            else:
                verdict = "unchanged"
            unit = a["end_to_end"][metric]["unit"]
            print(f"{name:<14} {metric:<14} {qa[1]:>12.6g} {f'[{qa[0]:.6g}, {qa[2]:.6g}]':>24} "
                  f"{qb[1]:>12.6g} {f'[{qb[0]:.6g}, {qb[2]:.6g}]':>24} {ratio:>7.3f} {bound:>6}  "
                  f"{verdict} ({unit}; base {qa[1]:.6g})")
        exact = {"failed_frac": [max(d["workloads"][name]["failed"] / d["workloads"][name]["attempted"]
                                     for d in docs) for docs in (bases, cands)]}
        if a.get("model_err") is not None and b.get("model_err") is not None:
            exact["model_err"] = [max(d["workloads"][name]["model_err"] for d in docs)
                                  for docs in (bases, cands)]
        for metric, (va, vb) in exact.items():
            bound = ABSOLUTE[metric]
            if vb - va > bound or (metric == "model_err" and vb > MODEL_ERR_BAND):
                verdict = "regressed"
                worst = 1
            else:
                verdict = "improved" if vb < va else "unchanged"
            print(f"{name:<14} {metric:<14} {va:>12.6g} {'':>24} {vb:>12.6g} {'':>24} "
                  f"{vb - va:>+7.3f} {f'+{bound}':>6}  {verdict} (frac, absolute; base {va:.6g})")
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv))
