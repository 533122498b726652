"""Tracing-disabled overhead: the observability tax must stay ~zero.

Every instrumentation point added by :mod:`repro.obs` guards on
``tracer.enabled``, so an untraced run pays one attribute check per
point and nothing else. This benchmark times the hottest instrumented
path — a warm 100-cell sweep, pure memo lookups wrapped in would-be
``session.sweep`` / ``cell.verdict`` spans — with the default disabled
tracer, and gates the median against the committed ``BENCH_baseline.json``
entry (:mod:`_gate`; skipped when no baseline entry exists yet, so new
machines can record one first). A regression here means an
instrumentation point started doing work while disabled.
"""

from _gate import check_baseline
from repro.cone import ModelCone
from repro.obs import get_tracer
from repro.pipeline import CounterPoint

BASELINE_KEY = (
    "benchmarks/test_obs_overhead.py::test_warm_sweep_tracing_disabled"
)


class Obs:
    def __init__(self, name, point):
        self.name = name
        self._point = dict(point)

    def point(self):
        return dict(self._point)


def test_warm_sweep_tracing_disabled(benchmark):
    cone = ModelCone(["a", "b"], [(1, 0), (1, 1)], name="tiny")
    observations = [
        Obs("o%03d" % index, {"a": 5 + index, "b": 2})
        for index in range(100)
    ]
    with CounterPoint(backend="scipy") as pipeline:
        pipeline.sweep(cone, observations)  # warm the memo
        assert get_tracer().enabled is False
        result = benchmark(pipeline.sweep, cone, observations)
    assert result.feasible
    check_baseline(benchmark, BASELINE_KEY)
