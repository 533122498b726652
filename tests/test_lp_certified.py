"""Differential fuzzing: certified point feasibility equals the simplex.

:func:`repro.lp.certified.point_in_cone` decides cone membership from a
float NNLS proposal plus an exact certificate, and falls back to the
Fraction simplex only when no certificate checks. The simplex is the
reference semantics. These sweeps run both over seeded random instances
(``tests/cone_fuzz.py``) and check that

* the verdicts agree, and agree with the facet screen of the exact
  H-representation,
* every witness is re-checked exactly (non-negative flows that reach the
  point), and every Farkas vector too (``y . v < 0``, ``y . s >= 0``),
* a broken proposer costs a counted fallback, never a wrong verdict.

``LP_FUZZ_SEED`` (CI rotates it daily) offsets every sweep's seed range,
so the suite explores new instances over time while any failure stays
reproducible from the seed in the assertion message.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from repro.cone import ModelCone, test_point_feasibility as point_feasibility
from repro.geometry import Cone
from repro.linalg import INT64_MAX, IntRows, int_dot
from repro.lp import certified
from repro.obs import Tracer
from repro.obs.trace import activate
from cone_fuzz import KINDS, random_instance

BASE_SEED = int(os.environ.get("LP_FUZZ_SEED", "0"))

#: Seeds per instance kind: 9 kinds x 30 = 270 seeds per sweep.
SEEDS_PER_KIND = 30

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _seeds(kind):
    offset = KINDS.index(kind)
    return [BASE_SEED + offset + len(KINDS) * i for i in range(SEEDS_PER_KIND)]


def _check_certificate(verdict, columns, point, context):
    """Exact re-check of whatever evidence ``verdict`` carries."""
    if verdict.feasible:
        flows = verdict.flows
        assert len(flows) == len(columns), context
        assert all(flow >= 0 for flow in flows), context
        reached = [
            sum(flow * column[coord] for flow, column in zip(flows, columns))
            for coord in range(len(point))
        ]
        assert reached == list(point), context
    elif verdict.farkas is not None:
        y = verdict.farkas
        assert all(isinstance(value, int) for value in y), context
        assert sum(Fraction(a) * b for a, b in zip(y, point)) < 0, context
        assert all(int_dot(y, column) >= 0 for column in columns), context


def _screen(columns, point):
    """Membership by the exact H-representation (Minkowski–Weyl)."""
    cone = Cone(columns, ambient_dim=len(point))
    return all(facet.is_satisfied_by(point) for facet in cone.facet_constraints())


def _counters(tracer):
    return tracer.metrics.as_dict()["counters"]


class TestDifferentialSweep:
    @pytest.mark.parametrize("kind", KINDS)
    def test_certified_path_matches_simplex_and_screen(self, kind):
        for seed in _seeds(kind):
            _, columns, point = random_instance(seed, kind)
            point = [Fraction(value) for value in point]
            context = "LP_FUZZ_SEED offset: seed %d (%s)" % (seed, kind)
            verdict = certified.point_in_cone(columns, point)
            oracle = certified.simplex_point_in_cone(columns, point)
            assert verdict.feasible == oracle.feasible, context
            assert verdict.feasible == _screen(columns, point), context
            _check_certificate(verdict, columns, point, context)
            _check_certificate(oracle, columns, point, context)

    def test_magnitudes_take_the_python_int_branch(self, monkeypatch):
        decisions = []
        real = IntRows.fits_int64

        def spy(self, vector):
            fits = real(self, vector)
            decisions.append(fits)
            return fits

        monkeypatch.setattr(IntRows, "fits_int64", spy)
        refuted = 0
        for seed in _seeds("magnitude"):
            _, columns, point = random_instance(seed, "magnitude")
            point = [Fraction(value) for value in point]
            verdict = certified.point_in_cone(columns, point)
            oracle = certified.simplex_point_in_cone(columns, point)
            assert verdict.feasible == oracle.feasible, seed
            _check_certificate(verdict, columns, point, "seed %d" % seed)
            refuted += verdict.route == certified.FARKAS
        assert False in decisions
        assert refuted > 0  # the Farkas route ran on 10^9+ entries

    def test_sweep_certifies_without_fallback(self):
        """The fallback is a safety net, not a route the fuzz shapes need."""
        tracer = Tracer()
        with activate(tracer):
            for kind in KINDS:
                for seed in _seeds(kind):
                    _, columns, point = random_instance(seed, kind)
                    certified.point_in_cone(columns, [Fraction(v) for v in point])
        counters = _counters(tracer)
        assert counters.get("lp.exact_fallbacks", 0) == 0
        assert counters["lp.certified"] > 0


class TestFallback:
    def _sweep(self):
        """Every non-origin instance of a short sweep through the
        certified path under a fresh tracer; the oracle runs untraced."""
        tracer = Tracer()
        calls = 0
        for kind in KINDS:
            for seed in _seeds(kind)[:10]:
                _, columns, point = random_instance(seed, kind)
                point = [Fraction(value) for value in point]
                if not any(point):
                    continue  # the origin needs no proposal
                with activate(tracer):
                    verdict = certified.point_in_cone(columns, point)
                oracle = certified.simplex_point_in_cone(columns, point)
                assert verdict.feasible == oracle.feasible, (seed, kind)
                _check_certificate(verdict, columns, point, (seed, kind))
                calls += 1
        return tracer, calls

    def test_proposer_that_gives_up_falls_back_to_the_simplex(self, monkeypatch):
        monkeypatch.setattr(certified, "nnls", lambda matrix, rhs: None)
        tracer, calls = self._sweep()
        counters = _counters(tracer)
        assert calls > 0
        assert counters["lp.exact_fallbacks"] == calls
        assert "lp.certified" not in counters
        exact_solves = [
            record for record in tracer.records
            if record["name"] == "lp.solve"
            and record["attrs"]["backend"] == "exact"
        ]
        # A fallback whose point is non-zero on an all-zero row is
        # refuted before any LP is built.
        assert 0 < len(exact_solves) <= calls

    def test_wrong_proposals_never_give_wrong_verdicts(self, monkeypatch):
        rng = random.Random(BASE_SEED)

        def wrong(array, point):
            # A random support that claims a zero residual: the witness
            # route runs on inconsistent systems and on flows of either
            # sign, then the Farkas route on the wrong columns.
            support = [j for j in range(array.shape[1]) if rng.random() < 0.5]
            return support, 0.0

        monkeypatch.setattr(certified, "_propose", wrong)
        tracer, calls = self._sweep()
        counters = _counters(tracer)
        assert counters.get("lp.exact_fallbacks", 0) > 0
        assert counters.get("lp.exact_fallbacks", 0) + \
            counters.get("lp.certified", 0) == calls


class TestIntRows:
    def test_products_match_python_ints_on_both_sides_of_the_bound(self):
        rng = random.Random(BASE_SEED)
        for magnitude in (10, 10**9, 10**12, 2**70):
            rows = [
                [rng.randint(-magnitude, magnitude) for _ in range(4)]
                for _ in range(6)
            ]
            ints = IntRows(rows, 4)
            for scale in (1, 10**6, 10**12):
                vector = [rng.randint(-scale, scale) for _ in range(4)]
                expected = [int_dot(row, vector) for row in rows]
                assert ints.matvec(vector) == expected
                bound = ints.max_abs * max(abs(value) for value in vector) * 4
                assert ints.fits_int64(vector) == (bound <= INT64_MAX)

    def test_empty_rows(self):
        assert IntRows([], 3).matvec([1, 2, 3]) == []


class TestEntryPoints:
    def test_point_feasibility_is_certified_and_traced(self):
        cone = ModelCone(
            ["load.causes_walk", "load.pde$_miss"], [(1, 1), (1, 0)],
        )
        tracer = Tracer()
        with activate(tracer):
            inside = point_feasibility(cone, [10, 4])
            outside = point_feasibility(cone, [4, 10])
        assert inside.feasible and inside.flows == [4, 6]
        assert not outside.feasible
        names = [record["name"] for record in tracer.records]
        assert names.count("lp.propose") == names.count("lp.certify") == 2
        assert "lp.solve" not in names
        routes = [
            record["attrs"]["route"] for record in tracer.records
            if record["name"] == "lp.certify"
        ]
        assert routes == [certified.WITNESS, certified.FARKAS]
        assert _counters(tracer)["lp.certified"] == 2

    def test_geometry_membership_routes_through_the_certified_path(self):
        tracer = Tracer()
        cone = Cone([[1, 0], [1, 1]])
        with activate(tracer):
            assert cone.contains([3, 1])
            assert not cone.contains([1, 3])
            assert Cone([[1, 0], [2, 1], [1, 1]]).is_generator_redundant(1)
        assert _counters(tracer)["lp.certified"] == 3

    def test_unknown_backend_is_rejected(self):
        from repro.errors import LPError

        cone = ModelCone(["a", "b"], [(1, 1)])
        with pytest.raises(LPError):
            point_feasibility(cone, [1, 1], backend="mystery")
        with pytest.raises(LPError):
            cone.contains([1, 1], backend="mystery")


def test_exact_closed_loop_plan_never_imports_scipy():
    """The exact path proposes with numpy alone: scipy costs ~49 MB of
    resident memory that exact verdicts must not pay."""
    script = (
        "import json, sys\n"
        "from repro.obs import Tracer\n"
        "from repro.pipeline import CounterPoint\n"
        "from repro.plan import Plan\n"
        "with open(sys.argv[1]) as handle:\n"
        "    plan = Plan.from_json(handle.read())\n"
        "tracer = Tracer()\n"
        "with CounterPoint(backend='exact', trace=tracer) as pipeline:\n"
        "    pipeline.run(plan)\n"
        "print(json.dumps({'scipy': 'scipy' in sys.modules,\n"
        "                  'counters': tracer.metrics.as_dict()['counters']}))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    done = subprocess.run(
        [sys.executable, "-c", script,
         os.path.join(REPO, "examples", "plans", "closed_loop.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["scipy"] is False
    assert report["counters"]["lp.certified"] > 0
