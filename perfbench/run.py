#!/usr/bin/env python3
"""Build and run the end-to-end scenario benchmark (see README.md here).

Run from the root of a checkout:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
      one run; the last stdout line is the JSON result
  python3 perfbench/run.py --all [--seed <n>] [--seconds <s>] [--trace <0|1>]
      every workload in turn, then a table of every metric with its unit
  python3 perfbench/run.py --selftest
      the benchmark's own tests (helpers plus a seconds-long smoke run)

The benchmark binary is built from source on first use into .bench_build/ (a
Release build of the core library and this directory's targets only).
Traced runs write their spans to .bench_build/spans/ as Chrome
trace-event files.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SPANS = ROOT / ".bench_build" / "spans"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(targets):
    """Configure (a no-op re-check once done) and build `targets`.

    All build output goes to stderr, so the result stays stdout's last line.
    """
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "-j", "4", "--target", *targets]]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd[:2])} exited with {done.returncode}")


def declared_metrics():
    """(end_to_end, per_layer) metric names from BENCHMARK.json, or None."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    spec = json.loads(path.read_text())
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def run_one(workload, seed, seconds, trace):
    """Run the benchmark binary once; echo its report; return the parsed result."""
    cmd = [str(BUILD / "perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        SPANS.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-dir", str(SPANS)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload} exited with {done.returncode} and no result")
    declared = declared_metrics()
    if declared is not None:
        expected = declared[1] if trace else declared[0]
        if sorted(result["metrics"]) != sorted(expected):
            print("perfbench: metrics differ from BENCHMARK.json", file=sys.stderr)
            result["correct"] = False
    if done.returncode != 0:
        result["correct"] = False
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload")
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--selftest", action="store_true")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    if args.selftest:
        build(["perfbench_selftest"])
        sys.exit(subprocess.run([str(BUILD / "perfbench_selftest")], check=False).returncode)

    build(["perfbench"])
    if args.workload:
        result = run_one(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        sys.exit(0 if result["correct"] else 1)

    listing = subprocess.run([str(BUILD / "perfbench"), "--list"], stdout=subprocess.PIPE,
                             text=True, check=True).stdout
    names = [line.split()[0] for line in listing.splitlines() if line.strip()]
    results = {}
    for name in names:
        print(f"==== {name}")
        results[name] = run_one(name, args.seed, args.seconds, args.trace)
    print(f"\n{'workload':<20} {'metric':<28} {'value':>14}  unit")
    for name, result in results.items():
        for metric, m in result["metrics"].items():
            print(f"{name:<20} {metric:<28} {m['value']:>14.6g}  {m['unit']}")
        print(f"{name:<20} {'correct':<28} {str(result['correct']):>14}  "
              f"(attempted {result['attempted']}, failed {result['failed']})")
    sys.exit(0 if all(r["correct"] for r in results.values()) else 1)


if __name__ == "__main__":
    main()
