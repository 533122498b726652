"""The repository benchmark: one command, three workloads, every metric
printed with its unit, every round's outputs checked.

Usage, from the repository root::

    python3 perfbench/run.py --workload haswell_search --seed 0 --seconds 30 --trace 0

``--trace 0`` repeats cold rounds until ``--seconds`` would be exceeded
and prints the end-to-end metrics (medians over the rounds that checked
right). ``--trace 1`` runs one traced round and one untraced round and
prints the per-layer metrics instead, including ``trace.overhead_s``
(traced minus untraced ``wall_s``). Metric names, units and bounds come
from ``BENCHMARK.json``; ``perfbench/README.md`` documents the
workloads. The last stdout line is the result object
``{"correct", "attempted", "failed", "metrics"}``.

Every round of ``haswell_search`` and ``closed_loop_exact`` runs in a
fresh interpreter (``perfbench/worker.py``) and every round of
``serve_tenants`` boots a fresh daemon, so no in-process memo turns a
later round into a cache hit. Each round also checks that it started
cold (see ``worker.memo_problems`` and ``serve_load.serve_round``).
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

WORKLOADS = ("haswell_search", "closed_loop_exact", "serve_tenants")

#: Seconds one worker round may take before it counts as failed.
ROUND_TIMEOUT = 150

#: Requests a round needs for percentiles of its own (10 beyond p90).
PER_ROUND_SAMPLES = 100


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def child_env():
    """The environment of every child: ``src`` importable, and no
    ``REPRO_*`` setting (a codegen disk cache would make rounds warm)."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def calibration_s():
    """Best of three runs of a fixed pure-Python loop: a host-speed
    yardstick recorded beside every result set."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for index in range(1000000):
            total += index * index % 7
        best = min(best, time.perf_counter() - started)
    return best


def host_block():
    import numpy
    import scipy

    return {
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "calibration_s": calibration_s(),
    }


def import_seconds(env, repeats=5):
    """Median time of ``import repro`` in a fresh interpreter."""
    code = ("import time; started = time.perf_counter(); import repro; "
            "print(time.perf_counter() - started)")
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.strip()))
    return statistics.median(times)


class Context:
    def __init__(self, args, env, workdir):
        self.args = args
        self.env = env
        self.workdir = workdir
        self.reference = None


def worker_round(context, task, trace):
    """One round in a fresh interpreter; a crash is a failed round."""
    command = [
        sys.executable, WORKER, task, "--seed", str(context.args.seed),
        "--workdir", context.workdir,
    ]
    if context.reference:
        command += ["--reference", context.reference]
    if trace:
        command.append("--trace")
    command += ["--launched", repr(time.time())]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=context.env, capture_output=True,
            text=True, timeout=ROUND_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return {"attempted": 1, "failed": 1, "problems": ["%s timed out" % task]}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-3:]
        return {"attempted": 1, "failed": 1,
                "problems": ["%s exited %d: %s" % (task, done.returncode, " | ".join(tail))]}
    return json.loads(lines[-1])


def prepare(context, workload):
    """Per-run inputs that are not timed: the HiGHS reference matrix of
    the closed loop."""
    if workload == "closed_loop_exact":
        reference = worker_round(context, "closed_loop_reference", trace=False)
        if reference.get("problems") or "matrix" not in reference:
            raise RuntimeError("closed-loop reference failed: %s" % reference.get("problems"))
        context.reference = os.path.join(context.workdir, "reference.json")
        with open(context.reference, "w", encoding="utf-8") as handle:
            json.dump({"matrix": reference["matrix"]}, handle)


def one_round(context, workload, index, trace):
    if workload == "serve_tenants":
        import serve_load

        try:
            return serve_load.serve_round(
                ROOT, context.env, context.workdir, context.args.seed, index, trace=trace,
            )
        except (OSError, RuntimeError) as error:
            return {"attempted": 1, "failed": 1, "problems": ["serve round: %s" % error]}
    return worker_round(context, workload, trace)


def check_serve(rounds):
    """Serve outputs are checked against one in-process serial run of
    every distinct plan, after the timed rounds."""
    import serve_load

    plans = {job["plan"] for report in rounds for job in report.get("jobs", ())}
    references = serve_load.serial_references(plans)
    for report in rounds:
        jobs = report.pop("jobs", [])
        report.setdefault("problems", []).extend(serve_load.serve_problems(jobs, references))


def percentile(samples, fraction):
    """Linear-interpolated percentile (``statistics.quantiles``'
    inclusive method) of at least two samples."""
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return cuts[int(round(fraction * 100)) - 1]


def end_to_end(rounds):
    """Medians over rounds. A round with at least ``PER_ROUND_SAMPLES``
    requests (serve) gets its own latency percentiles, and the run
    reports their median, so a burst of load from outside that slows a
    few rounds does not move the run's p90. Rounds with fewer requests
    (the library workloads) pool them over the run."""
    requests = [value for report in rounds for value in report["requests_s"]]
    if "jobs_per_s" in rounds[0]:
        jobs_per_s = statistics.median(report["jobs_per_s"] for report in rounds)
    else:
        jobs_per_s = len(requests) / sum(requests)
    if all(len(report["requests_s"]) >= PER_ROUND_SAMPLES for report in rounds):
        p50 = statistics.median(statistics.median(report["requests_s"]) for report in rounds)
        p90 = statistics.median(percentile(report["requests_s"], 0.90) for report in rounds)
    else:
        p50, p90 = statistics.median(requests), percentile(requests, 0.90)
    return {
        "setup_s": statistics.median(report["setup_s"] for report in rounds),
        "wall_s": statistics.median(report["wall_s"] for report in rounds),
        "resume_s": statistics.median(report["resume_s"] for report in rounds),
        "latency_p50_ms": 1000.0 * p50,
        "latency_p90_ms": 1000.0 * p90,
        "jobs_per_s": jobs_per_s,
        "peak_rss_mb": statistics.median(report["peak_rss_mb"] for report in rounds),
    }, len(requests)


def drift(rounds):
    """Median ``wall_s`` of the last third of the rounds over that of
    the first third, minus 1: reported beside the metrics. Coldness is
    checked per round (fresh process, empty memos, no prior jobs), not
    from timings, which a burst of outside load on one round can move
    by more than any bound."""
    third = max(1, len(rounds) // 3)
    first = statistics.median(report["wall_s"] for report in rounds[:third])
    last = statistics.median(report["wall_s"] for report in rounds[-third:])
    return last / first - 1.0


def measure(context, workload, seconds, spec):
    """Cold rounds until the next one would overrun ``seconds``."""
    rounds = []
    started = time.perf_counter()
    while True:
        began = time.perf_counter()
        rounds.append(one_round(context, workload, len(rounds), trace=False))
        took = time.perf_counter() - began
        if time.perf_counter() - started + took > seconds:
            break
    if workload == "serve_tenants":
        check_serve(rounds)
    valid = [report for report in rounds if not report.get("problems")]
    problems = [problem for report in rounds for problem in report.get("problems", ())]
    details = {"rounds": len(rounds), "valid_rounds": len(valid)}
    if valid:
        metrics, details["request_samples"] = end_to_end(valid)
        details["wall_drift"] = drift(valid)
    else:
        metrics = {metric["name"]: 0.0 for metric in spec["end_to_end"]}
    return rounds, metrics, problems, details


def trace_run(context, workload):
    """One traced round for the layer numbers, one untraced round for
    the tracing overhead."""
    traced = one_round(context, workload, 0, trace=True)
    plain = one_round(context, workload, 0, trace=False)
    rounds = [traced, plain]
    if workload == "serve_tenants":
        check_serve(rounds)
    problems = [problem for report in rounds for problem in report.get("problems", ())]
    metrics = dict(traced.get("layers", {}))
    metrics["import_s"] = import_seconds(context.env)
    if "wall_s" in traced and "wall_s" in plain:
        metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    if "sweep_s" in metrics and "cell.verdict_s" in metrics:
        metrics["sweep.residual_s"] = metrics["sweep_s"] - metrics["cell.verdict_s"]
    details = {"rounds": 2}
    return rounds, metrics, problems, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro beside %s; run it from a checkout of the "
              "repository" % HERE, file=sys.stderr)
        return 2
    spec = load_spec()
    env = child_env()
    sys.path.insert(0, env["PYTHONPATH"])
    # Compile the package's bytecode before anything is timed, so the
    # first round of a fresh checkout does not pay for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(ROOT, "src")],
                   cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL, timeout=120)
    workdir = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        context = Context(args, env, workdir)
        prepare(context, args.workload)
        if args.trace:
            rounds, metrics, problems, details = trace_run(context, args.workload)
            names = spec["per_layer"]
        else:
            rounds, metrics, problems, details = measure(
                context, args.workload, args.seconds, spec,
            )
            names = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    print("host: %s" % json.dumps(host_block(), sort_keys=True))
    print("workload %s seed %d: %s" % (args.workload, args.seed, json.dumps(details)))
    for problem in problems:
        print("problem: %s" % problem)
    result = {}
    for metric in names:
        value = metrics.get(metric["name"], 0)
        result[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print("%-24s %16.6f %s" % (metric["name"], value, metric["unit"]))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(report.get("attempted", 0) for report in rounds),
        "failed": sum(
            report.get("attempted", 0) if report.get("problems") else report.get("failed", 0)
            for report in rounds
        ),
        "metrics": result,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
