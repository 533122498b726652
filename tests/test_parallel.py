"""repro.parallel: the pool orchestrator and its serial equivalence.

The contract under test everywhere: ``workers=N`` changes wall-clock,
never results. Every sharded entry point is compared cell-for-cell
against its serial counterpart, and the fallback paths (workers=1,
single cell, unpicklable work) are exercised explicitly.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.errors import AnalysisError
from repro.models.bundled import bundled_model_names
from repro.parallel import ParallelRunner, split_seeds
from repro.parallel.tasks import _chunks, parallel_simulate_dataset
from repro.pipeline import CounterPoint
from repro.sim import as_mudd, simulate_dataset


def _square(x):
    return x * x


def _call(fn):
    return fn()


def _cell_n(cell):
    return cell["n"]


class TestRunner:
    def test_serial_map(self):
        runner = ParallelRunner(workers=1)
        assert runner.map_cells(_square, [1, 2, 3]) == [1, 4, 9]
        assert runner.serial
        assert runner.dispatches == 0

    def test_pool_map_preserves_order(self):
        runner = ParallelRunner(workers=2)
        assert runner.map_cells(_square, range(20)) == [i * i for i in range(20)]
        assert runner.dispatches == 1
        assert runner.fallbacks == 0

    def test_single_cell_stays_in_process(self):
        runner = ParallelRunner(workers=4)
        assert runner.map_cells(_square, [7]) == [49]
        assert runner.dispatches == 0

    def test_unpicklable_fn_falls_back_serially(self):
        runner = ParallelRunner(workers=2)
        doubler = lambda x: 2 * x  # noqa: E731 - deliberately unpicklable
        assert runner.map_cells(doubler, [1, 2, 3]) == [2, 4, 6]
        assert runner.fallbacks == 1
        assert runner.dispatches == 0

    def test_unpicklable_cell_falls_back_serially(self):
        runner = ParallelRunner(workers=2)
        cells = [lambda: 1, lambda: 2]
        assert runner.map_cells(_call, cells) == [1, 2]
        assert runner.fallbacks == 1

    def test_unpicklable_later_cell_falls_back_at_dispatch(self, tmp_path):
        # cells[0] passes the pre-flight check; the open file handle in
        # a later cell raises TypeError at pool dispatch, which must
        # degrade to the serial fallback, not escape.
        runner = ParallelRunner(workers=2)
        with open(tmp_path / "cell.txt", "w") as handle:
            cells = [{"n": 1, "handle": None}, {"n": 2, "handle": handle}]
            assert runner.map_cells(_cell_n, cells) == [1, 2]
        assert runner.fallbacks == 1

    def test_invalid_workers_rejected(self):
        with pytest.raises(AnalysisError):
            ParallelRunner(workers=0)
        with pytest.raises(AnalysisError):
            CounterPoint(workers=0)

    def test_exceptions_propagate(self):
        runner = ParallelRunner(workers=2)
        with pytest.raises(ZeroDivisionError):
            runner.map_cells(_reciprocal, [1, 0, 2])

    def test_chunking(self):
        assert _chunks([1, 2, 3, 4, 5], 2) == [[1, 2, 3], [4, 5]]
        assert _chunks([1], 4) == [[1]]
        assert _chunks([], 3) == [[]]
        assert _chunks(range(6), 3) == [[0, 1], [2, 3], [4, 5]]

    def test_split_seeds_matches_serial_schedules(self):
        assert split_seeds(5, 3) == [5, 6, 7]
        assert split_seeds(0, 3, stride=1000) == [0, 1000, 2000]
        with pytest.raises(AnalysisError):
            split_seeds(0, -1)


def _reciprocal(x):
    return 1 / x


@pytest.fixture(scope="module")
def bundled():
    return [as_mudd(name) for name in bundled_model_names()]


@pytest.fixture(scope="module")
def small_dataset(bundled):
    return simulate_dataset(bundled[0], 4, n_uops=3000)


class TestParallelEqualsSerial:
    def test_sweep(self, bundled, small_dataset):
        serial = CounterPoint(backend="scipy").sweep(bundled[1], small_dataset)
        pooled = CounterPoint(backend="scipy", workers=2).sweep(
            bundled[1], small_dataset
        )
        assert serial.infeasible_names == pooled.infeasible_names
        assert serial.n_observations == pooled.n_observations
        assert serial.model_name == pooled.model_name

    def test_sweep_regions(self, bundled, small_dataset):
        serial = CounterPoint(backend="scipy").sweep(
            bundled[1], small_dataset, use_regions=True
        )
        pooled = CounterPoint(backend="scipy", workers=2).sweep(
            bundled[1], small_dataset, use_regions=True
        )
        assert serial.infeasible_names == pooled.infeasible_names

    def test_simulate_dataset(self, bundled):
        serial = CounterPoint().simulate_dataset(bundled[0], 5, n_uops=2000)
        pooled = CounterPoint(workers=2).simulate_dataset(
            bundled[0], 5, n_uops=2000
        )
        assert [o.name for o in serial] == [o.name for o in pooled]
        assert [o.totals for o in serial] == [o.totals for o in pooled]

    def test_cross_refute(self, bundled):
        models = bundled[:3]
        serial = CounterPoint(backend="scipy").cross_refute(
            models, n_observations=2, n_uops=3000
        )
        pooled = CounterPoint(backend="scipy", workers=2).cross_refute(
            models, n_observations=2, n_uops=3000
        )
        assert set(serial) == set(pooled)
        for row in serial:
            for name in serial[row]:
                assert (
                    serial[row][name].infeasible_names
                    == pooled[row][name].infeasible_names
                )

    def test_cross_refute_diagonal_feasible(self, bundled):
        pooled = CounterPoint(backend="scipy", workers=2).cross_refute(
            bundled[:3], n_observations=2, n_uops=3000
        )
        for row, sweeps in pooled.items():
            assert sweeps[row].feasible

    def test_direct_entry_points(self, bundled):
        with ParallelRunner(workers=2) as runner:
            pooled = parallel_simulate_dataset(
                runner, bundled[0], 3, n_uops=2000
            )
        serial = simulate_dataset(bundled[0], 3, n_uops=2000)
        assert [o.name for o in pooled] == [o.name for o in serial]
        assert [o.totals for o in pooled] == [o.totals for o in serial]
        assert [o.samples.samples.tolist() for o in pooled] == [
            o.samples.samples.tolist() for o in serial
        ]


class TestFacadeWiring:
    def test_workers_none_means_cpu_count(self):
        counterpoint = CounterPoint(workers=None)
        assert counterpoint._parallel()
        assert counterpoint.runner().workers >= 1

    def test_cache_dir_requires_caching(self, tmp_path):
        with pytest.raises(AnalysisError):
            CounterPoint(cache=False, cache_dir=str(tmp_path))

    def test_cache_dir_rejects_explicit_cache_instance(self, tmp_path):
        # An explicit memory cache would silently shadow cache_dir; the
        # combination must be refused, not half-honoured.
        from repro.cone.cache import ModelConeCache

        with pytest.raises(AnalysisError):
            CounterPoint(cache=ModelConeCache(), cache_dir=str(tmp_path))

    def test_cache_dir_uses_shared_disk_cache(self, tmp_path):
        from repro.cone.cache import shared_cache

        path = str(tmp_path / "cones")
        counterpoint = CounterPoint(cache_dir=path)
        assert counterpoint.cone_cache is shared_cache(path)
        assert counterpoint.cone_cache.disk is not None

    def test_runner_carries_cache_dir(self, tmp_path):
        path = str(tmp_path / "cones")
        counterpoint = CounterPoint(workers=2, cache_dir=path)
        assert counterpoint.runner().cache_dir == path


def _pool_dispatch_imports(path):
    """``(line, what)`` for every import in ``path`` that reaches the
    pool dispatchers: the ``repro.parallel.tasks`` module itself, or a
    ``parallel_*`` / ``dispatch_verdicts`` name from ``repro.parallel``."""
    found = []
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro.parallel.tasks"):
                    found.append((node.lineno, alias.name))
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            if module == "repro.parallel.tasks":
                found.append((node.lineno, module))
            elif module == "repro.parallel":
                for alias in node.names:
                    if (alias.name == "tasks"
                            or alias.name.startswith("parallel_")
                            or alias.name == "dispatch_verdicts"):
                        found.append((node.lineno, alias.name))
    return found


class TestOnePoolPath:
    def test_only_the_pool_scheduler_dispatches_to_the_pool(self):
        # PoolScheduler is the one code path that decides serial vs
        # pool; nothing else in the package may reach the dispatchers.
        root = Path(repro.__file__).resolve().parent
        allowed = root / "plan" / "schedulers.py"
        offenders = []
        for path in sorted(root.rglob("*.py")):
            if path == allowed or (root / "parallel") in path.parents:
                continue
            offenders.extend(
                "%s:%d imports %s" % (path.relative_to(root), line, what)
                for line, what in _pool_dispatch_imports(path)
            )
        assert offenders == []
        assert _pool_dispatch_imports(allowed)  # the scan sees imports
