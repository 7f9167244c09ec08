#!/usr/bin/env python3
"""Steadiness check: run every workload repeatedly and compare each
end-to-end metric's spread with its bound in BENCHMARK.json.

    python3 perfbench/steady.py

Run from the root of a checkout. Round k (k = 0..9) runs every workload
once for run_seconds with seed 1+k, in the order of BENCHMARK.json on
even rounds and reversed on odd rounds, so that slow drifts of the
machine fall on every workload alike. For each workload and metric it
prints the median, the first and third quartiles (Python's
statistics.quantiles, n=4) and the quartile spread as a share of the
median, against the metric's bound. A spread passes when it is within the
bound; one above a third of the bound is marked "wide": two sets of ten
runs then risk medians that differ by more than the bound. It also prints
the share of failed operations, which must be the same in every run.
Exits 1 if a spread is over its bound, a run is not correct, or the failed
shares differ.
"""
import json
import statistics
import subprocess
import sys


RUNS = 10
SEED_BASE = 1


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    results = {w: [] for w in names}
    for k in range(RUNS):
        order = names if k % 2 == 0 else names[::-1]
        for w in order:
            r = run_once(bench, w, SEED_BASE + k)
            results[w].append(r)
            print("run %d %s seed %d: attempted %d failed %d correct %s  %s" % (
                k, w, SEED_BASE + k, r["attempted"], r["failed"], r["correct"],
                " ".join("%s=%.6g" % (n, v["value"]) for n, v in r["metrics"].items())),
                file=sys.stderr)
    ok = True
    for w in names:
        rs = results[w]
        shares = {r["failed"] / r["attempted"] for r in rs}
        correct = all(r["correct"] for r in rs)
        print("%s: %d runs, failed share %s, correct %s" % (
            w, len(rs), sorted(shares), correct))
        ok &= len(shares) == 1 and correct
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in rs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            passed = spread <= m["bound"]
            ok &= passed
            verdict = "OVER" if not passed else "wide" if spread > m["bound"] / 3 else "ok"
            print("  %-16s median %12.6g  q1 %12.6g  q3 %12.6g  spread %6.2f%%  "
                  "bound %5.1f%%  %s" % (m["name"], med, q1, q3, 100 * spread,
                                         100 * m["bound"], verdict))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
