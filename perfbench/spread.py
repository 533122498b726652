"""Run a set of seeds of one workload and check that the set is steady.

Usage, from the repository root::

    python3 perfbench/spread.py --workload serve_tenants --seeds 1 2 3 4 5 --seconds 30

Each seed is one run of ``perfbench/run.py --trace 0``, one after the
other. For every end-to-end metric the script prints the median over
the runs, the spread (distance between the first and third quartile,
``statistics.quantiles(values, n=4)``, as a share of the median) and
the first and last runs of the set relative to each other, each beside
the metric's bound from ``BENCHMARK.json``. It exits 1 if a run fails
or checks wrong, if a spread other than ``setup_s``'s is over its
bound, or if the first and last runs differ by more than the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("seed %d exited %d: %s" % (seed, done.returncode, done.stderr[-500:]))
    for line in lines:
        if line.startswith("problem:") or line.startswith("workload "):
            print("  seed %d %s" % (seed, line))
    result = json.loads(lines[-1])
    print("  seed %d %s" % (seed, " ".join(
        "%s=%.5g" % (name, metric["value"]) for name, metric in sorted(result["metrics"].items())
    )))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = args.seconds or spec["run_seconds"]

    results = [one_run(args.workload, seed, seconds) for seed in args.seeds]
    ok = all(result["correct"] and not result["failed"] for result in results)
    if not ok:
        print("a run checked wrong or had failed operations")
    print("%-16s %12s %8s %8s %8s" % ("metric", "median", "spread", "last", "bound"))
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [result["metrics"][name]["value"] for result in results]
        median = statistics.median(values)
        quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [median] * 3
        spread = (quartiles[2] - quartiles[0]) / median
        last = values[-1] / values[0] - 1.0
        flags = []
        if name != "setup_s" and spread > bound:
            flags.append("spread over bound")
        elif spread > bound / 3:
            flags.append("spread over a third of the bound")
        if abs(last) > bound:
            flags.append("first and last runs disagree")
        if name != "setup_s" and spread > bound or abs(last) > bound:
            ok = False
        print("%-16s %12.5g %8.4f %+8.4f %8.2f %s"
              % (name, median, spread, last, bound, "; ".join(flags)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
