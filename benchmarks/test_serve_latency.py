"""Serve-path latency: the queue tax on a warm submit, and dedup under
concurrent identical submissions.

The daemon's promise is that the multi-tenant machinery — admission
queue, fair scheduler, claim table — costs queue hops, not recompute:

* a *warm* submit→result round trip computes zero cells, so its p50 is
  pure serve overhead (two queue hops plus memo lookups); the median is
  gated against the committed ``BENCH_baseline.json`` entry
  (:mod:`_gate`; skipped when no baseline exists yet);
* eight tenants submitting the *same* plan concurrently share one task
  space: the LP runs once per unique cell no matter how many jobs
  requested it, and the per-tenant dedup hit-rate proves most requested
  cells were served from shared work.
"""

import threading
import time

from _gate import check_baseline
from repro.plan import Plan
from repro.serve import PlanService

#: Unique cells in :func:`_campaign` after global deduplication (14
#: are requested across its four ops).
UNIQUE_CELLS = 8


def _campaign():
    """The overlapping closed-loop campaign the serve tests use: 14
    cells requested, 8 unique after deduplication."""
    plan = Plan()
    data = plan.simulate_dataset(
        "pde_refined", n_observations=2, n_uops=2000, seed=0, op_id="data"
    )
    plan.sweep("pde_initial", dataset=data, explain=True, op_id="refute")
    plan.compare(
        ["pde_initial", "pde_refined"], dataset=data, explain=True,
        op_id="ranking",
    )
    plan.cross_refute(
        ["pde_refined", "pde_initial"], n_observations=2, n_uops=2000,
        seed=0, explain=True, op_id="matrix",
    )
    return plan


def _wait_done(service, job_id, timeout=120.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        status = service.status(job_id)
        if status["state"] in ("done", "failed", "cancelled"):
            return status
        time.sleep(0.002)
    raise AssertionError("job %s never finished" % job_id)


def test_warm_submit_to_result_p50(benchmark):
    key = "benchmarks/test_serve_latency.py::test_warm_submit_to_result_p50"
    with PlanService(workers=2, backend="scipy") as service:
        plan = _campaign()
        cold = service.submit(plan, tenant="bench")["id"]
        assert _wait_done(service, cold)["state"] == "done"
        cold_text = service.result_text(cold)

        def submit_and_fetch():
            job_id = service.submit(plan, tenant="bench")["id"]
            assert _wait_done(service, job_id)["state"] == "done"
            return service.result_text(job_id)

        text = benchmark(submit_and_fetch)
        assert text == cold_text                 # byte-identical bundle
        # Only the cold submit ever touched the LP: every benchmark
        # round was served entirely from the shared task space.
        assert service.session.stats.tests == UNIQUE_CELLS
    check_baseline(benchmark, key)


def test_eight_concurrent_identical_plans_dedup(benchmark):
    key = (
        "benchmarks/test_serve_latency.py::"
        "test_eight_concurrent_identical_plans_dedup"
    )

    def fresh_service():
        return (PlanService(workers=2, max_queue=16, backend="scipy"),), {}

    def submit_batch(service):
        try:
            plan = _campaign()
            barrier = threading.Barrier(8)
            job_ids = [None] * 8

            def submit(slot):
                barrier.wait(timeout=30)
                job_ids[slot] = service.submit(
                    plan, tenant="tenant%d" % slot
                )["id"]

            threads = [
                threading.Thread(target=submit, args=(slot,), daemon=True)
                for slot in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)

            texts = set()
            for job_id in job_ids:
                assert _wait_done(service, job_id)["state"] == "done"
                texts.add(service.result_text(job_id))
            assert len(texts) == 1               # all byte-identical
            # The LP ran once per unique cell — 8 jobs x 14 requested
            # cells collapsed onto 8 computations in the shared space.
            assert service.session.stats.tests == UNIQUE_CELLS
            stats = service.stats()
            rates = [
                tenant["dedup_hit_rate"]
                for tenant in stats["tenants"].values()
            ]
            assert len(rates) == 8
            # 104 of the 112 requested cells were deduplicated.
            assert sum(rates) / len(rates) >= 0.5
        finally:
            service.close()

    benchmark.pedantic(submit_batch, setup=fresh_service, rounds=3)
    check_baseline(benchmark, key)
