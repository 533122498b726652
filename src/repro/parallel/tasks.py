"""Worker functions and the high-level sharded entry points.

Every worker here is a module-level function of one picklable payload
dict — the shape :class:`repro.parallel.runner.ParallelRunner` requires
for the pooled path. Payloads carry *models and parameters*, not live
solver state: workers that need a pipeline rebuild their own
:class:`CounterPoint` with ``workers=1`` (workers never nest pools).
Worker results come back as :mod:`repro.results` schema dicts, not
pickled ad-hoc objects: the wire format between pool processes is the
same stable JSON-serializable schema the result layer persists and
renders.
Workers coordinate through the one artifact store under ``cache_dir``:
those that build model cones share deduced cones, so expensive
deduction happens in exactly one process, and those that test
feasibility share memoized verdicts, so none is recomputed anywhere.

The high-level functions (:func:`parallel_sweep`,
:func:`parallel_cross_refute`, :func:`parallel_simulate_dataset`,
:func:`parallel_closed_loop`) are what :class:`repro.pipeline.
CounterPoint`'s session and :func:`repro.sim.scenarios.closed_loop`
route to when ``workers > 1``; each is bit-for-bit equivalent to its
serial counterpart (same seeds, same ordering, same verdicts).
"""

from repro.parallel.runner import split_seeds


def _worker_tracer(payload):
    """The tracer a worker records into: enabled iff the dispatching
    parent was tracing (payloads carry a ``trace`` flag), so untraced
    runs ship no extra bytes and pay no recording cost."""
    from repro.obs.trace import Tracer

    return Tracer(enabled=bool(payload.get("trace")))


def _obs_shipment(tracer):
    """The worker's trace records and metrics, ready to ride back with
    its results (``None`` when the worker was not tracing)."""
    if not tracer.enabled:
        return None
    import os

    return {
        "pid": os.getpid(),
        "records": tracer.drain(),
        "metrics": tracer.metrics.as_dict(),
    }


def _absorb_obs(shipment):
    """Merge a worker's shipped records/metrics into the parent's
    active tracer, preserving the worker's pid/tid tags."""
    if not shipment:
        return
    from repro.obs.trace import get_tracer

    tracer = get_tracer()
    if tracer.enabled:
        tracer.absorb(shipment.get("records") or [])
        tracer.metrics.absorb(shipment.get("metrics") or {})
        tracer.metrics.counter(
            "workers.tasks.pid_%d" % shipment.get("pid", 0)
        ).inc()


def _tracing():
    from repro.obs.trace import get_tracer

    return get_tracer().enabled


def _chunks(items, n_chunks):
    """Split ``items`` into at most ``n_chunks`` contiguous runs,
    preserving order (sizes differ by at most one)."""
    items = list(items)
    n_chunks = max(1, min(n_chunks, len(items)))
    base, extra = divmod(len(items), n_chunks)
    out, start = [], 0
    for index in range(n_chunks):
        size = base + (1 if index < extra else 0)
        out.append(items[start:start + size])
        start += size
    return out


# -- verdict cells (sweep and session sharding) ----------------------------

def run_verdict_chunk(payload):
    """Worker: feasibility verdicts for one target chunk against a
    shipped cone, returned as ``CellVerdict`` schema dicts.

    Runs the exact function the serial path runs
    (:func:`repro.results.session.compute_cell_verdicts`), so chunk
    boundaries cannot change verdicts; point chunks keep the batched
    facet screen intact.

    When the dispatching parent was tracing (``payload["trace"]``), the
    chunk runs under a worker-local tracer and the result wraps the
    verdicts together with the recorded spans/metrics for the parent to
    absorb; otherwise the historic bare-list shape is returned.
    """
    from repro.obs.trace import activate
    from repro.results.session import compute_cell_verdicts

    tracer = _worker_tracer(payload)
    with activate(tracer):
        verdicts = compute_cell_verdicts(
            payload["cone"],
            payload["targets"],
            backend=payload["backend"],
            use_regions=payload["use_regions"],
            explain=payload["explain"],
        )
    entries = [verdict.to_dict() for verdict in verdicts]
    if tracer.enabled:
        return {"verdicts": entries, "obs": _obs_shipment(tracer)}
    return entries


def dispatch_verdicts(runner, cone, targets, backend="exact",
                      use_regions=False, explain=False):
    """Shard verdict computation for ``targets`` across the pool.

    The cone is built once by the caller and shipped to every worker
    (cones pickle without their process-local solver state). Returns
    :class:`~repro.results.types.CellVerdict` objects in target order —
    the session's unit of memoization, reconstructed from the schema
    dicts the workers ship back.
    """
    from repro.results.types import CellVerdict

    targets = list(targets)
    tracing = _tracing()
    cells = [
        {
            "cone": cone,
            "targets": chunk,
            "backend": backend,
            "use_regions": use_regions,
            "explain": explain,
            "trace": tracing,
        }
        for chunk in _chunks(targets, runner.workers)
    ]
    verdicts = []
    for chunk in runner.map_cells(run_verdict_chunk, cells, chunk_size=1):
        if isinstance(chunk, dict):
            _absorb_obs(chunk.get("obs"))
            chunk = chunk["verdicts"]
        verdicts.extend(CellVerdict.from_dict(entry) for entry in chunk)
    return verdicts


# -- sweep -----------------------------------------------------------------

def parallel_sweep(runner, cone, observations, backend="exact",
                   confidence=0.99, use_regions=False, correlated=True,
                   explain=False):
    """Shard one model's dataset sweep across the pool.

    The direct (session-less) entry point: every observation is turned
    into its solvable target in the parent — points keep exact totals,
    regions are summarised once at ``confidence`` — and the verdict
    cells shard across the workers. One chunk per worker keeps the
    exact facet screen's batching intact.
    """
    from repro.results.types import sweep_from_verdicts

    observations = list(observations)
    names = [observation.name for observation in observations]
    if use_regions:
        targets = [
            observation.region(confidence=confidence, correlated=correlated)
            for observation in observations
        ]
    else:
        targets = [observation.point() for observation in observations]
    verdicts = dispatch_verdicts(
        runner, cone, targets, backend=backend, use_regions=use_regions,
        explain=explain,
    )
    return sweep_from_verdicts(cone.name, names, verdicts)


# -- cross_refute ----------------------------------------------------------

def run_cross_refute_row(payload):
    """Worker: one (row, candidate-subset) cell of the closed-loop
    matrix — simulate the row's observed model, sweep the cell's
    candidates against the dataset. Sweeps come back as ``ModelSweep``
    schema dicts, alongside the worker's trace shipment (``None``
    unless the dispatching parent was tracing).

    The row seed is the serial schedule's ``seed + 1000 * row``, so the
    simulated observations are identical to a serial run's regardless
    of how the row's candidates were split across cells (every cell of
    a row re-simulates the same dataset — simulation is cheap next to
    the sweeps the split parallelises).
    """
    from repro.obs.trace import activate
    from repro.pipeline import CounterPoint
    from repro.sim import simulate_dataset

    tracer = _worker_tracer(payload)
    with activate(tracer):
        observed = payload["observed"]
        observations = simulate_dataset(
            observed,
            payload["n_observations"],
            n_uops=payload["n_uops"],
            weights=payload["weights"],
            seed=payload["row_seed"],
        )
        counters = observations[0].samples.counters
        # workers=1: pool workers never nest pools.
        with CounterPoint(
            backend=payload["backend"],
            confidence=payload["confidence"],
            cache_dir=payload["cache_dir"],
            workers=1,
        ) as counterpoint:
            sweeps = {}
            for candidate in payload["candidates"]:
                cone = counterpoint.model_cone(candidate, counters=counters)
                sweep = counterpoint.sweep(
                    cone, observations, explain=payload["explain"]
                )
                sweeps[candidate.name] = sweep.to_dict()
    return observed.name, sweeps, _obs_shipment(tracer)


def parallel_cross_refute(runner, mudds, n_observations=3, n_uops=20000,
                          weights=None, seed=0, backend="exact",
                          confidence=0.99, explain=False):
    """Shard the cross-refutation matrix across the pool.

    The base unit is a row (observed model): rows are fully
    independent, and candidate cones *and memoized verdicts* are shared
    between rows through the runner's ``cache_dir`` when set. When the
    matrix has fewer rows than would keep the pool busy (``rows < 2 *
    workers``), each row's candidate list is additionally split so
    every worker gets work — the merged result is identical either way.
    Returns a :class:`~repro.results.types.RefutationMatrix`.
    """
    from repro.results.types import ModelSweep, RefutationMatrix

    mudds = list(mudds)
    row_seeds = split_seeds(seed, len(mudds), stride=1000)
    # ceil(2*workers / rows) candidate chunks per row keeps ~2 cells
    # per worker in flight for load balancing on uneven rows.
    n_splits = max(1, -(-2 * runner.workers // max(1, len(mudds))))
    candidate_chunks = _chunks(mudds, n_splits)
    tracing = _tracing()
    cells = [
        {
            "observed": observed,
            "candidates": chunk,
            "n_observations": n_observations,
            "n_uops": n_uops,
            "weights": weights,
            "row_seed": row_seed,
            "backend": backend,
            "confidence": confidence,
            "cache_dir": runner.cache_dir,
            "explain": explain,
            "trace": tracing,
        }
        for observed, row_seed in zip(mudds, row_seeds)
        for chunk in candidate_chunks
    ]
    rows = {}
    for name, sweeps, obs in runner.map_cells(
        run_cross_refute_row, cells, chunk_size=1
    ):
        _absorb_obs(obs)
        rows.setdefault(name, {}).update({
            candidate: ModelSweep.from_dict(entry)
            for candidate, entry in sweeps.items()
        })
    # Rebuild candidate order (schema order is the model order).
    ordered = {
        observed.name: {
            candidate.name: rows[observed.name][candidate.name]
            for candidate in mudds
        }
        for observed in mudds
    }
    return RefutationMatrix(ordered)


# -- simulated datasets ----------------------------------------------------

def run_simulate_chunk(payload):
    """Worker: simulate a contiguous run-index chunk of one dataset,
    reproducing the serial per-run seeds and observation names.

    When the dispatching parent was tracing, returns
    ``{"observations": [...], "obs": shipment}`` instead of the bare
    list so the worker's spans ride back with the data.
    """
    from repro.obs.trace import activate
    from repro.sim.scenarios import simulate_observation

    tracer = _worker_tracer(payload)
    mudd = payload["mudd"]
    with activate(tracer):
        observations = [
            simulate_observation(
                mudd,
                n_uops=payload["n_uops"],
                weights=payload["weights"],
                seed=payload["seed"] + run,
                noisy=payload["noisy"],
                name="sim:%s/run%d" % (mudd.name, run),
                **payload["options"]
            )
            for run in payload["runs"]
        ]
    if tracer.enabled:
        return {"observations": observations, "obs": _obs_shipment(tracer)}
    return observations


def parallel_simulate_dataset(runner, model, n_observations, n_uops=20000,
                              weights=None, seed=0, noisy=False, **options):
    """Shard dataset simulation across the pool by run index.

    Run ``i`` always draws from seed ``seed + i`` (the serial
    schedule), so the pooled dataset equals the serial one
    observation-for-observation regardless of how runs were chunked.
    """
    from repro.sim.scenarios import as_mudd

    mudd = as_mudd(model)
    tracing = _tracing()
    cells = [
        {
            "mudd": mudd,
            "runs": chunk,
            "n_uops": n_uops,
            "weights": weights,
            "seed": seed,
            "noisy": noisy,
            "options": options,
            "trace": tracing,
        }
        for chunk in _chunks(range(n_observations), runner.workers)
    ]
    observations = []
    for chunk in runner.map_cells(run_simulate_chunk, cells, chunk_size=1):
        if isinstance(chunk, dict):
            _absorb_obs(chunk.get("obs"))
            chunk = chunk["observations"]
        observations.extend(chunk)
    return tuple(observations)


# -- closed loop -----------------------------------------------------------

def run_closed_loop_candidate(payload):
    """Worker: analyse the shared simulated target against one
    candidate model (cone served from the disk cache when present);
    ships the report back as an ``AnalysisReport`` schema dict."""
    from repro.pipeline import CounterPoint
    from repro.sim.scenarios import as_mudd

    with CounterPoint(
        backend=payload["backend"],
        confidence=payload["confidence"],
        cache_dir=payload["cache_dir"],
        workers=1,
    ) as counterpoint:
        cone = counterpoint.model_cone(
            as_mudd(payload["candidate"]), counters=payload["counters"]
        )
        report = counterpoint.analyze(cone, payload["target"])
    return report.to_dict()


def parallel_closed_loop(runner, observation, candidate_models,
                         backend="exact", confidence=0.99,
                         use_regions=False):
    """Shard :func:`repro.sim.scenarios.closed_loop`'s candidate loop.

    The observation is simulated once by the caller; each worker tests
    it against one candidate. Returns ``{candidate_name:
    AnalysisReport}`` in candidate order, like the serial loop.
    """
    from repro.results.types import AnalysisReport

    counters = observation.samples.counters
    target = (
        observation.region(confidence=confidence)
        if use_regions
        else observation.point()
    )
    cells = [
        {
            "candidate": candidate,
            "counters": counters,
            "target": target,
            "backend": backend,
            "confidence": confidence,
            "cache_dir": runner.cache_dir,
        }
        for candidate in candidate_models
    ]
    reports = {}
    for entry in runner.map_cells(run_closed_loop_candidate, cells):
        report = AnalysisReport.from_dict(entry)
        reports[report.model_name] = report
    return reports


# -- guided search ---------------------------------------------------------

def run_feature_evaluation(payload):
    """Worker: feasibility of one feature set against the dataset
    (the guided search's unit of work)."""
    from repro.cone import test_point_feasibility

    cone = payload["cone_builder"](payload["features"])
    infeasible = [
        name
        for name, point in payload["points"]
        if not test_point_feasibility(
            cone, point, backend=payload["backend"]
        ).feasible
    ]
    return frozenset(payload["features"]), infeasible


__all__ = [
    "dispatch_verdicts",
    "parallel_closed_loop",
    "parallel_cross_refute",
    "parallel_simulate_dataset",
    "parallel_sweep",
    "run_closed_loop_candidate",
    "run_cross_refute_row",
    "run_feature_evaluation",
    "run_simulate_chunk",
    "run_verdict_chunk",
]
