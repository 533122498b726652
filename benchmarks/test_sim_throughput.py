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

Without device state, the reference interpreter loop (``run_uop`` per
µop) is the overhead floor, and the default ``run()`` — which takes the
generated program for samplable oracles — must produce bit-identical
totals and clear a hard speedup bar over it at bench scale
(``test_sim_codegen_speedup``).
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


def _reference_run(mudd):
    """The reference per-µop interpreter loop (``run_uop`` per µop)."""
    executor = MuDDExecutor(mudd)
    oracle = RandomOracle(seed=0, weights=MERGE_WEIGHTS)
    for _ in range(20000):
        executor.run_uop(oracle)
    return executor


def _default_run(mudd):
    """The default ``run()``: the generated program for this samplable
    oracle."""
    executor = MuDDExecutor(mudd)
    executor.run(RandomOracle(seed=0, weights=MERGE_WEIGHTS), [None] * 20000)
    return executor


def test_sim_throughput_random_oracle(benchmark):
    """Per-µop interpretation without device state — the pure
    interpreter overhead floor."""
    mudd = load_bundled_model("merging_load_side")
    executor = benchmark(_reference_run, mudd)
    assert executor.n_uops == 20000


def test_sim_throughput_random_oracle_codegen(benchmark):
    """The default ``run()`` (generated program) on the
    interpreter-floor workload."""
    mudd = load_bundled_model("merging_load_side")
    executor = benchmark(_default_run, mudd)
    assert executor.n_uops == 20000
    assert executor.snapshot() == _reference_run(mudd).snapshot()
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
    """The default ``run()`` clears 5x over the reference interpreter
    loop at bench scale (20000 weighted-RandomOracle µops of
    merging_load_side).

    Measured headroom is ~6x, so the bar survives CI noise; best-of-5
    wall-clock keeps scheduler jitter out of the ratio.
    """
    mudd = load_bundled_model("merging_load_side")
    _default_run(mudd)                     # warm the program memo
    interpreter = _best_of(5, lambda: _reference_run(mudd))
    codegen = _best_of(5, lambda: _default_run(mudd))
    assert codegen * 5 <= interpreter, (
        "run() %.4fs vs interpreter %.4fs (%.1fx, need >= 5x)"
        % (codegen, interpreter, interpreter / codegen)
    )


def test_sim_auto_cold_start_overhead():
    """The default ``run()`` never loses to the reference interpreter
    loop by more than compile cost on a cold single trace.

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
    reference = MuDDExecutor(interpreter_mudd)
    reference.run_uop(RandomOracle(seed=0))
    interpreter_seconds = time.perf_counter() - started
    auto_mudd = compile_dsl(source, name="cold_probe_auto")
    started = time.perf_counter()
    executor = MuDDExecutor(auto_mudd)
    executor.run(RandomOracle(seed=0), [None])
    auto_seconds = time.perf_counter() - started
    assert executor.snapshot() == reference.snapshot()
    assert auto_seconds <= interpreter_seconds + compile_cost_allowance, (
        "run() cold start %.4fs vs interpreter %.4fs"
        % (auto_seconds, interpreter_seconds)
    )
