#!/usr/bin/env python3
"""Attribution self-check: plant a known slowdown in one layer and confirm
that the benchmark sees it where it should, and nowhere else.

    python3 perfbench/selfcheck.py

Run from the root of a checkout. The benchmark's own wrapper around every
call of the noise layer (Qc.Noise.run_shots) busy-waits for 20% of that
call's time (--inject qc.noise:0.2). The check confirms three things:

1. Attribution: two traced runs of noisy_wide on seed 1, without and with
   the slowdown. Over the operations both runs traced (the same seed gives
   the same inputs at the same operation id), qc.noise's self time grows
   by 20% of its own time (within half of that), and no other layer's
   self time moves by more than a quarter of qc.noise's growth.
2. Detection: 5 untraced pairs of noisy_wide, alternating which side runs
   first; the median of op_ms_p50 moves past its bound in BENCHMARK.json.
3. Isolation: 3 untraced pairs of every other workload; no end-to-end
   metric other than setup_s moves past its bound.

Exits 1 if any of the three fails.
"""
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict


LAYER = "qc.noise"
FRACTION = 0.2
WORKLOAD = "noisy_wide"
METRIC = "op_ms_p50"
RUNS = 5
OTHER_RUNS = 3


def run(bench, workload, seed, trace=0, inject=None, spans=None):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", str(trace)]
    if inject:
        cmd += ["--inject", inject]
    if spans:
        cmd += ["--spans", spans]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def self_times(path):
    """{op: {layer: self seconds}} from a spans file, scaled like the
    benchmark's reported times."""
    t = defaultdict(lambda: defaultdict(float))
    for line in open(path):
        s = json.loads(line)
        t[s["op"]][s["name"]] += s["scaled_self_s"]
    return t


def worse_by(metric, base, new):
    """Relative worsening of `new` against `base` (positive = worse)."""
    change = (new - base) / base
    return -change if metric["better"] == "higher" else change


def main():
    bench = json.load(open("BENCHMARK.json"))
    inject = "%s:%g" % (LAYER, FRACTION)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    ok = True

    # 1. attribution
    os.makedirs(".bench_build", exist_ok=True)
    base_spans = ".bench_build/selfcheck-base.jsonl"
    inj_spans = ".bench_build/selfcheck-injected.jsonl"
    run(bench, WORKLOAD, 1, trace=1, spans=base_spans)
    run(bench, WORKLOAD, 1, trace=1, inject=inject, spans=inj_spans)
    base, inj = self_times(base_spans), self_times(inj_spans)
    common = sorted(set(base) & set(inj))
    names = sorted({n for op in common for n in list(base[op]) + list(inj[op])})
    tot_b = {n: sum(base[op][n] for op in common) for n in names}
    tot_i = {n: sum(inj[op][n] for op in common) for n in names}
    grew = tot_i.get(LAYER, 0) - tot_b.get(LAYER, 0)
    want = FRACTION * tot_b.get(LAYER, 0)
    print("attribution (%s, +%g%% in %s, %d operations traced in both runs):"
          % (WORKLOAD, 100 * FRACTION, LAYER, len(common)))
    print("  %-22s %12s %12s %12s" % ("layer", "base ms/op", "slowed ms/op", "change"))
    for n in names:
        d = tot_i[n] - tot_b[n]
        if n == LAYER:
            good = want > 0 and 0.5 * want <= d <= 1.5 * want
        else:
            good = abs(d) <= 0.25 * abs(grew)
        ok &= good
        print("  %-22s %12.4f %12.4f %+11.1f%%  %s" % (
            n, 1e3 * tot_b[n] / max(1, len(common)), 1e3 * tot_i[n] / max(1, len(common)),
            100 * d / tot_b[n] if tot_b[n] else 0.0,
            ("ok" if good else "MISATTRIBUTED")))
    if not common or LAYER not in names:
        print("  no common operations with %s spans" % LAYER)
        ok = False

    # 2. detection and 3. isolation
    def pairs(workload, n):
        plain, slowed = [], []
        for k in range(n):
            seed = 100 + k
            first, second = (plain, slowed) if k % 2 == 0 else (slowed, plain)
            for side in (first, second):
                side.append(run(bench, workload, seed,
                                inject=inject if side is slowed else None))
        return plain, slowed

    def medians(rs, name):
        return statistics.median(r["metrics"][name]["value"] for r in rs)

    plain, slowed = pairs(WORKLOAD, RUNS)
    m = metrics[METRIC]
    w = worse_by(m, medians(plain, METRIC), medians(slowed, METRIC))
    flagged = w > m["bound"]
    ok &= flagged
    print("detection: %s %s worse by %.1f%% (bound %.1f%%)  %s" % (
        WORKLOAD, METRIC, 100 * w, 100 * m["bound"],
        "flagged" if flagged else "MISSED"))
    for other in (x["name"] for x in bench["workloads"]):
        if other == WORKLOAD:
            continue
        plain, slowed = pairs(other, OTHER_RUNS)
        for name, m in metrics.items():
            if name == "setup_s":
                continue
            w = worse_by(m, medians(plain, name), medians(slowed, name))
            still = w <= m["bound"]
            ok &= still
            print("isolation: %s %s worse by %.1f%% (bound %.1f%%)  %s" % (
                other, name, 100 * w, 100 * m["bound"], "ok" if still else "MOVED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
