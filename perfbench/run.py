#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. Every call configures and builds the library
and the benchmark binary (Release) under $CARGO_TARGET_DIR (default
.bench_build)/perfbench; after the first build only what changed is rebuilt.
Build output goes to stderr, so the binary's last stdout line — one JSON
object — stays the last line of this script's stdout. Traced runs write
their spans next to the binary.

--selftest runs the binary's oracle self-test (each oracle must accept a
clean output and reject a corrupted one), then runs every workload at toy
size, untraced and traced, and checks that each prints every metric named
in BENCHMARK.json exactly once, with its unit.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                     "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
# Runnable by name but not listed in BENCHMARK.json: on a shared host its
# single-threaded scalar code swings ~1.5x with neighbours' load, more than
# the benchmark's bounds allow (see perfbench/src/paper_sweep.cc).
UNLISTED_WORKLOADS = ["paper_sweep"]


def build():
    """Configures and builds the binary; returns False on failure."""
    steps = [["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "perfbench", "-j4"]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def run_binary(args, echo=True):
    """Runs the binary; returns (exit code, stdout)."""
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, text=True)
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    return proc.returncode, proc.stdout


def no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    dup = {k for k in keys if keys.count(k) > 1}
    if dup:
        raise ValueError("metric printed more than once: %s" % sorted(dup))
    return dict(pairs)


def selftest():
    code, _ = run_binary(["--selftest"])
    problems = 1 if code else 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]] + UNLISTED_WORKLOADS
    for name in names:
        for trace, table in (("0", "end_to_end"), ("1", "per_layer")):
            code, out = run_binary(["--workload", name, "--seed",
                                    "1", "--seconds", "0.5", "--trace", trace,
                                    "--toy"], echo=False)
            label = "%s trace=%s" % (name, trace)
            try:
                result = json.loads(out.strip().splitlines()[-1],
                                    object_pairs_hook=no_duplicates)
                want = {m["name"]: m["unit"] for m in spec[table]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                ok = (code == 0 and result["correct"] and want == got and
                      set(result) == {"correct", "attempted", "failed",
                                      "metrics"})
            except (ValueError, IndexError, KeyError, TypeError) as err:
                print("selftest %s: %s" % (label, err))
                ok = False
            print("selftest %s: %s" % (label, "ok" if ok else "FAILED"))
            problems += 0 if ok else 1
    print("selftest: %s" % ("passed" if problems == 0 else
                            "%d problem(s)" % problems))
    return 0 if problems == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed")
    parser.add_argument("--seconds")
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    binary_args = ["--workload", args.workload, "--seed", args.seed,
                   "--seconds", args.seconds, "--trace", args.trace]
    if args.trace == "1":
        binary_args += ["--trace-out", os.path.join(
            BUILD, "spans-%s-%s.tsv" % (args.workload, args.seed))]
    code, _ = run_binary(binary_args)
    return code


if __name__ == "__main__":
    sys.exit(main())
