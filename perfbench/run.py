#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark and the libraries it links
are built by dune into .bench_build (the shared dune cache is off, so the
build writes nothing outside the checkout); build output goes to stderr.
With --trace 1 the recorded spans are written to
.bench_build/spans-<workload>-<seed>.jsonl. The benchmark's last line of
stdout is its JSON result; the exit code is the benchmark's own.
"""
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")


def build():
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--cache", "disabled", "--display", "quiet", "./perfbench/main.exe"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode


def arg(args, name):
    return args[args.index(name) + 1] if name in args[:-1] else None


def main():
    args = sys.argv[1:]
    code = build()
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return code
    if arg(args, "--trace") == "1" and "--spans" not in args:
        spans = "spans-%s-%s.jsonl" % (arg(args, "--workload"), arg(args, "--seed"))
        args = args + ["--spans", os.path.join(BUILD_DIR, spans)]
    return subprocess.run([EXE] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
