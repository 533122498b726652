"""Throughput of the repro.sim execution engine.

The simulation subsystem is the scenario generator for large-scale
sweeps, so its two hot paths are benchmarked directly:

* the **batched** path — many traces of one model collapse to a single
  multinomial draw plus a matrix multiply (:func:`repro.sim.batch
  .batch_simulate`), the mode future scenario sweeps rely on; the
  acceptance bar is >= 100 traces per call,
* the **event-driven** path — the per-µop interpreter with the
  device-backed MMU oracle, which bounds how fast trace-replay
  simulations (and oracle-in-the-loop validation) can run.

The per-µop path is additionally benchmarked per execution backend
(interpreter / vector / codegen): the compiled backends must produce
bit-identical totals and the best one must clear a hard speedup bar
over the interpreter at bench scale (``test_sim_codegen_speedup``).
"""

import time

from _gate import check_baseline
from repro.models import M_SERIES
from repro.models.bundled import load_bundled_model
from repro.models.haswell import ALL_COUNTERS, build_haswell_mudd
from repro.sim import MMUOracle, MuDDExecutor, RandomOracle, batch_simulate
from repro.workloads import LinearAccessWorkload

MERGE_WEIGHTS = {"Merged": {"Yes": 3.0, "No": 1.0}}

def test_sim_throughput_batched_traces(benchmark):
    """>= 100 independent 100k-µop traces of a bundled model per call."""
    mudd = load_bundled_model("merging_load_side")
    result = benchmark(
        batch_simulate, mudd, 100000, n_traces=128, weights=MERGE_WEIGHTS, seed=0
    )
    assert result.n_traces >= 100
    assert result.totals.sum() > 0


def test_sim_throughput_batched_m4(benchmark):
    """The full 26-counter m4 µDD: path-distribution extraction plus a
    128-trace batch in one call (the model-variant sweep unit)."""
    mudd = build_haswell_mudd(M_SERIES["m4"], name="m4")
    result = benchmark(
        batch_simulate, mudd, 1000000, n_traces=128, counters=ALL_COUNTERS, seed=0
    )
    assert result.n_traces == 128
    assert result.totals.shape[1] == len(ALL_COUNTERS)


def test_sim_throughput_event_driven(benchmark):
    """Per-µop interpretation of m4 against live MMU devices."""
    mudd = build_haswell_mudd(M_SERIES["m4"], name="m4")

    def run():
        executor = MuDDExecutor(mudd, counters=ALL_COUNTERS)
        oracle = MMUOracle.for_features(M_SERIES["m4"])
        workload = LinearAccessWorkload(8 * 1024 * 1024, stride=64, load_store_ratio=0.9)
        executor.run(oracle, workload.ops(2000))
        return executor

    executor = benchmark(run)
    assert executor.n_uops >= 2000


def test_sim_throughput_random_oracle(benchmark):
    """Per-µop interpretation without device state — the pure
    interpreter overhead floor."""
    mudd = load_bundled_model("merging_load_side")

    def run():
        executor = MuDDExecutor(mudd)
        executor.run(RandomOracle(seed=0, weights=MERGE_WEIGHTS), [None] * 20000)
        return executor

    executor = benchmark(run)
    assert executor.n_uops == 20000


def _backend_run(mudd, backend):
    executor = MuDDExecutor(mudd, backend=backend)
    executor.run(RandomOracle(seed=0, weights=MERGE_WEIGHTS), [None] * 20000)
    return executor


def test_sim_throughput_random_oracle_vector(benchmark):
    """The vectorised backend on the interpreter-floor workload."""
    mudd = load_bundled_model("merging_load_side")
    executor = benchmark(_backend_run, mudd, "vector")
    assert executor.n_uops == 20000
    assert executor.snapshot() == _backend_run(mudd, "interpreter").snapshot()
    check_baseline(
        benchmark,
        "benchmarks/test_sim_throughput.py::"
        "test_sim_throughput_random_oracle_vector",
    )


def test_sim_throughput_random_oracle_codegen(benchmark):
    """The codegen backend on the interpreter-floor workload."""
    mudd = load_bundled_model("merging_load_side")
    executor = benchmark(_backend_run, mudd, "codegen")
    assert executor.n_uops == 20000
    assert executor.snapshot() == _backend_run(mudd, "interpreter").snapshot()
    check_baseline(
        benchmark,
        "benchmarks/test_sim_throughput.py::"
        "test_sim_throughput_random_oracle_codegen",
    )


def _best_of(repeats, run):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def test_sim_codegen_speedup():
    """The best compiled backend clears 5x over the interpreter at bench
    scale (20000 weighted-RandomOracle µops of merging_load_side).

    Measured headroom is ~7x, so the bar survives CI noise; best-of-5
    wall-clock keeps scheduler jitter out of the ratio.
    """
    mudd = load_bundled_model("merging_load_side")
    _backend_run(mudd, "codegen")          # warm the program memo
    interpreter = _best_of(5, lambda: _backend_run(mudd, "interpreter"))
    codegen = _best_of(5, lambda: _backend_run(mudd, "codegen"))
    assert codegen * 5 <= interpreter, (
        "codegen %.4fs vs interpreter %.4fs (%.1fx, need >= 5x)"
        % (codegen, interpreter, interpreter / codegen)
    )


def test_sim_auto_cold_start_overhead():
    """``backend="auto"`` never loses to the interpreter by more than
    compile cost on a cold single trace.

    The model is built inline so nothing in the session has warmed its
    program memo; the allowance (50 ms) is orders of magnitude above the
    measured sub-millisecond compile.
    """
    from repro.dsl import compile_dsl

    source = """
    switch ProbeHit {
      Yes => incr probe.hits;
      No  => { incr probe.misses; incr probe.walks; done; }
    };
    done;
    """
    compile_cost_allowance = 0.05
    interpreter_mudd = compile_dsl(source, name="cold_probe_interp")
    started = time.perf_counter()
    reference = MuDDExecutor(interpreter_mudd, backend="interpreter")
    reference.run(RandomOracle(seed=0), [None])
    interpreter_seconds = time.perf_counter() - started
    auto_mudd = compile_dsl(source, name="cold_probe_auto")
    started = time.perf_counter()
    executor = MuDDExecutor(auto_mudd, backend="auto")
    executor.run(RandomOracle(seed=0), [None])
    auto_seconds = time.perf_counter() - started
    assert executor.snapshot() == reference.snapshot()
    assert auto_seconds <= interpreter_seconds + compile_cost_allowance, (
        "auto cold start %.4fs vs interpreter %.4fs"
        % (auto_seconds, interpreter_seconds)
    )
