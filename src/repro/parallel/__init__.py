"""``repro.parallel`` — the process pool behind ``workers=N``.

The analysis workloads worth running at scale are matrices of
independent cells: every observation against one cone (``sweep``),
every model against every simulated dataset (``cross_refute``). The
plan engine compiles each of them into two task kinds — dataset
simulations and verdict batches — and
:class:`repro.plan.schedulers.PoolScheduler` is the one caller that
shards those tasks across a pool. This package supplies its machinery:

* :class:`ParallelRunner` — a thin, deterministic wrapper over
  :class:`concurrent.futures.ProcessPoolExecutor` with pre-flight
  picklability checks and a graceful serial fallback (``workers=1``, a
  single cell, or unpicklable work always runs in-process with
  identical results).
* :mod:`repro.parallel.tasks` — the module-level worker functions (the
  pool pickles them by name) and the two dispatchers the scheduler
  calls, ``dispatch_verdicts`` and ``parallel_simulate_dataset``.

Determinism: pooled results are *identical* to serial ones.
Simulation runs keep the serial per-run seeds (``seed + run``) however
they are chunked, and verdict chunks run the same function the serial
path runs, so ``workers=N`` changes wall-clock time, never verdicts.

Quick start::

    from repro import CounterPoint

    counterpoint = CounterPoint(
        backend="scipy", workers=4, cache_dir=".repro-cache"
    )
    matrix = counterpoint.cross_refute(
        ["merging_load_side", "no_merging_load_side", "pde_initial"]
    )
"""

from repro.parallel.runner import ParallelRunner, split_seeds

__all__ = [
    "ParallelRunner",
    "split_seeds",
]
