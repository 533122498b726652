"""One cold round of a library workload, in a fresh interpreter.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/worker.py haswell_search --seed 0 --launched T --workdir DIR
    python3 perfbench/worker.py closed_loop_exact --seed 0 --launched T \\
        --workdir DIR --reference REF.json [--trace]
    python3 perfbench/worker.py closed_loop_reference --seed 0 --launched T --workdir DIR

Each invocation is a new interpreter, so no in-process memo
(``standard_dataset``'s ``lru_cache``, ``build_model_cone``'s cone
table, the simulator's distribution and generated-program memos, a
pipeline's ``ModelConeCache``) survives from one round to the next;
each round checks that those memos are empty before its timed work.
``--launched`` is the wall-clock time the parent started this process;
``setup_s`` runs from there to the start of timed work, so it includes
interpreter start, ``import repro`` and input generation.

The last stdout line is one JSON document: ``setup_s``, ``wall_s``,
``resume_s``, per-request latencies, ``peak_rss_mb``, operation counts,
output-check problems and the layer numbers (timed from outside around
each public call, plus span totals with ``--trace``).
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import spans  # noqa: E402

#: Models of the closed loop: the paper's two feasible m-series models
#: and the prefetch- and merging-free eliminations.
CLOSED_LOOP_MODELS = ("m4", "m5", "m7", "m8")

#: Resume passes per closed-loop round (``resume_s`` is their median).
RESUME_PASSES = 5


class Stopwatch:
    """Accumulates wall time per layer name around public calls."""

    def __init__(self):
        self.seconds = {}

    @contextmanager
    def __call__(self, name):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = (
                self.seconds.get(name, 0.0) + time.perf_counter() - started
            )


@contextmanager
def tracing(tracer):
    """Make ``tracer`` the active one so spans recorded outside a
    pipeline call (cone deduction, double description) land in it."""
    if tracer is None:
        yield
        return
    from repro.obs import activate

    with activate(tracer):
        yield


def memo_problems():
    """The in-process memos that would turn a round into a cache hit;
    each must be empty when the round's timed work starts."""
    from repro.models import dataset
    from repro.models.haswell import _CONE_CACHE
    from repro.sim import batch, codegen

    sizes = {
        "standard_dataset": dataset.standard_dataset.cache_info().currsize,
        "noisy_dataset": dataset.noisy_dataset.cache_info().currsize,
        "build_model_cone": len(_CONE_CACHE),
        "sim.batch": len(batch._DISTRIBUTION_MEMO),
        "sim.codegen": len(codegen._PROGRAM_MEMO),
    }
    return [
        "round not cold: the %s memo holds %d entries" % (name, size)
        for name, size in sorted(sizes.items()) if size
    ]


def seeded_runspecs(seed):
    """The workload matrix with every seeded generator (random, BFS,
    pointer chase, Zipfian) shifted by the seed; seed 0 is exactly
    ``standard_runspecs()``."""
    from repro.models.dataset import standard_runspecs

    specs = standard_runspecs()
    for spec in specs:
        if spec.workload.seed:
            spec.workload.seed += 1000 * seed
    return specs


def haswell_search(args, report):
    """The Section 7 case study from a cold start, float verdicts."""
    from repro.cone import ModelCone
    from repro.models import ALL_COUNTERS, M_SERIES, T_SERIES
    from repro.models.dataset import run_observation
    from repro.models.haswell import build_mudd
    from repro.pipeline import CounterPoint

    specs = seeded_runspecs(args.seed)
    pipeline = CounterPoint(backend="scipy", trace=args.trace or None)
    watch = Stopwatch()
    layers = report["layers"]
    layers["mmu.ops"] = sum(spec.n_ops + spec.warm_ops for spec in specs)
    report["problems"] += memo_problems()
    report["setup_s"] = time.time() - args.launched
    started = time.perf_counter()
    with tracing(pipeline.tracer):
        with watch("mmu.observe_s"):
            dataset = [run_observation(spec) for spec in specs]
        with watch("mudd.build_s"):
            mudds = {name: build_mudd(M_SERIES[name], name=name) for name in checks.M_ORDER}
            mudds.update(
                (name, build_mudd(M_SERIES["m4"], trigger=T_SERIES[name], name=name))
                for name in checks.T_ORDER
            )
        with watch("cone.build_s"):
            cones = {
                name: ModelCone.from_mudd(mudd, counters=ALL_COUNTERS)
                for name, mudd in mudds.items()
            }
        with watch("cone.constraints_s"):
            deduced = {name: cones[name].constraints() for name in checks.M_ORDER}
        sweeps = {}
        for name, cone in cones.items():
            report["attempted"] += 1
            request = time.perf_counter()
            try:
                sweeps[name] = pipeline.sweep(cone, dataset, explain=True)
            except Exception as error:  # noqa: BLE001 - counted and reported
                report["failed"] += 1
                report["problems"].append("sweep %s raised %r" % (name, error))
            report["requests_s"].append(time.perf_counter() - request)
    report["wall_s"] = time.perf_counter() - started
    watch.seconds["sweep_s"] = sum(report["requests_s"])

    # Warm re-run: the same sweeps through the session memo.
    resumes = []
    with tracing(pipeline.tracer):
        for _ in range(RESUME_PASSES):
            again = time.perf_counter()
            for name, cone in cones.items():
                report["attempted"] += 1
                pipeline.sweep(cone, dataset, explain=True)
            resumes.append(time.perf_counter() - again)
    report["resume_s"] = statistics.median(resumes)

    if len(sweeps) == len(cones):
        report["problems"] += checks.table3_problems(sweeps)
        report["problems"] += checks.table5_problems(sweeps)
        report["problems"] += checks.evidence_problems(sweeps)
    layers.update(watch.seconds)
    layers["mmu.ops_per_s"] = layers["mmu.ops"] / watch.seconds["mmu.observe_s"]
    layers["cone.signatures"] = sum(len(cone.signatures) for cone in cones.values())
    layers["cone.constraints"] = sum(len(found) for found in deduced.values())
    layers["cells"] = sum(sweep.n_observations for sweep in sweeps.values())
    layers["cells.infeasible"] = sum(sweep.n_infeasible for sweep in sweeps.values())
    stats = pipeline.session().stats.as_dict()
    layers["session.computed"] = stats["tests"]
    layers["session.memo_hits"] = stats["memo_hits"]
    layers["session.store_hits"] = stats["store_hits"]
    return pipeline.tracer


def _closed_loop_plan(seed):
    from repro.models import M_SERIES
    from repro.models.haswell import build_mudd
    from repro.plan import Plan

    plan = Plan()
    plan.cross_refute(
        [build_mudd(M_SERIES[name], name=name) for name in CLOSED_LOOP_MODELS],
        n_observations=2, n_uops=20000, seed=seed, op_id="matrix",
    )
    return plan


def _timed_scheduler():
    """The serial reference scheduler, timing each compute batch (one
    candidate cone against the observations pending for it)."""
    from repro.plan.schedulers import SerialScheduler

    class TimedScheduler(SerialScheduler):
        def __init__(self):
            self.batches = []

        def compute(self, session, cone, targets, use_regions, explain):
            started = time.perf_counter()
            try:
                return super().compute(session, cone, targets, use_regions, explain)
            finally:
                self.batches.append(time.perf_counter() - started)

    return TimedScheduler()


def _directory_size(path):
    entries = size = 0
    for root, _, files in os.walk(path):
        for name in files:
            entries += 1
            size += os.path.getsize(os.path.join(root, name))
    return entries, size


def closed_loop_exact(args, report):
    """Cross-refute under the exact backend, then resume from the store."""
    from repro.pipeline import CounterPoint

    with open(args.reference, "r", encoding="utf-8") as handle:
        reference = json.load(handle)["matrix"]
    plan = _closed_loop_plan(args.seed)
    store = tempfile.mkdtemp(prefix="store-", dir=args.workdir)
    tracer = None
    if args.trace:
        from repro.obs import Tracer

        tracer = Tracer()
    scheduler = _timed_scheduler()
    layers = report["layers"]
    try:
        report["problems"] += memo_problems()
        report["setup_s"] = time.time() - args.launched
        started = time.perf_counter()
        with tracing(tracer):
            with CounterPoint(backend="exact", cache_dir=store, trace=tracer) as pipeline:
                cold = pipeline.run(plan, scheduler=scheduler, collect_errors=True)
        report["wall_s"] = time.perf_counter() - started
        report["requests_s"] = scheduler.batches
        report["attempted"] += 1
        report["failed"] += len(cold.errors)
        report["problems"] += checks.closed_loop_problems(cold, reference)
        cold_bundle = checks.bundle(cold)
        layers["store.entries"], layers["store.bytes"] = _directory_size(
            os.path.join(store, "artifacts")
        )
        passes = [cold]
        resumes = []
        for _ in range(RESUME_PASSES):
            again = time.perf_counter()
            with tracing(tracer):
                with CounterPoint(backend="exact", cache_dir=store, trace=tracer) as pipeline:
                    resumed = pipeline.run(plan, collect_errors=True)
            resumes.append(time.perf_counter() - again)
            report["attempted"] += 1
            report["failed"] += len(resumed.errors)
            report["problems"] += checks.resume_problems(
                resumed, cold_bundle, checks.bundle(resumed)
            )
            passes.append(resumed)
        report["resume_s"] = statistics.median(resumes)
        for key in ("computed", "memo_hits", "store_hits"):
            layers["session.%s" % key] = sum(done.stats.get(key, 0) for done in passes)
        layers["cells"] = cold.stats.get("cells", 0)
        layers["cells.infeasible"] = sum(
            len(names) for row in checks.matrix_verdicts(cold["matrix"]).values()
            for names in row.values()
        )
    finally:
        shutil.rmtree(store, ignore_errors=True)
    return tracer


def closed_loop_reference(args, report):
    """The closed-loop matrix under HiGHS: the exact pass must match it."""
    from repro.pipeline import CounterPoint

    with CounterPoint(backend="scipy") as pipeline:
        result = pipeline.run(_closed_loop_plan(args.seed), collect_errors=True)
    report["problems"] += ["op error: %s" % (entry,) for entry in result.errors]
    report["matrix"] = checks.matrix_verdicts(result["matrix"])
    return None


TASKS = {
    "haswell_search": haswell_search,
    "closed_loop_exact": closed_loop_exact,
    "closed_loop_reference": closed_loop_reference,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("task", choices=sorted(TASKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--reference")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    report = {
        "task": args.task, "attempted": 0, "failed": 0, "problems": [],
        "requests_s": [], "layers": {},
    }
    tracer = TASKS[args.task](args, report)
    if tracer is not None:
        report["layers"].update(spans.span_metrics(tracer.records))
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
