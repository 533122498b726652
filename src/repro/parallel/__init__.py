"""``repro.parallel`` — process-pool orchestration for sweeps.

The analysis workloads worth running at scale are matrices: every model
against every observation set (``cross_refute``), every observation
against one cone (``sweep``), every feature set against a dataset
(``explore.search``), every seed against a simulator (``repro.sim``
batches). The cells are independent, so they shard across a process
pool — this package supplies the shared machinery:

* :class:`ParallelRunner` — a thin, deterministic wrapper over
  :class:`concurrent.futures.ProcessPoolExecutor` with chunked
  dispatch, pre-flight picklability checks, and a graceful serial
  fallback (``workers=1``, a single cell, or unpicklable work always
  runs in-process with identical results).
* :mod:`repro.parallel.tasks` — module-level worker functions (the
  pool pickles them by name) plus the high-level entry points
  :func:`parallel_sweep`, :func:`parallel_cross_refute`,
  :func:`parallel_simulate_dataset`, and
  :func:`parallel_closed_loop`.

Workers coordinate through the persistent artifact store
(:mod:`repro.results.store`, at ``<cache_dir>/artifacts``): give every
worker the same ``cache_dir`` and a model's µpath
enumeration/constraint deduction runs in exactly one process, ever —
the others load the cone's JSON artifact.

Determinism: every parallel entry point produces *identical* results to
its serial counterpart. Simulation seeds are split per cell exactly as
the serial loops split them (``seed + run``, ``seed + 1000 * row``), so
``workers=N`` changes wall-clock time, never verdicts.

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
from repro.parallel.tasks import (
    parallel_closed_loop,
    parallel_cross_refute,
    parallel_simulate_dataset,
    parallel_sweep,
)

__all__ = [
    "ParallelRunner",
    "parallel_closed_loop",
    "parallel_cross_refute",
    "parallel_simulate_dataset",
    "parallel_sweep",
    "split_seeds",
]
