"""Tests for Farkas separating-constraint certificates."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cone import ModelCone, separating_constraint
from repro.cone import test_point_feasibility as point_feasibility
from repro.dsl import compile_dsl

PDE_MODEL = """
incr load.causes_walk;
do LookupPde$;
switch Pde$Status { Hit => pass; Miss => incr load.pde$_miss };
done;
"""


@pytest.fixture
def pde_cone():
    return ModelCone.from_mudd(compile_dsl(PDE_MODEL))


class TestSeparatingConstraint:
    def test_feasible_returns_none(self, pde_cone):
        observation = {"load.causes_walk": 10, "load.pde$_miss": 4}
        assert separating_constraint(pde_cone, observation) is None

    def test_infeasible_returns_violated_constraint(self, pde_cone):
        observation = {"load.causes_walk": 4, "load.pde$_miss": 10}
        certificate = separating_constraint(pde_cone, observation)
        assert certificate is not None
        # The certificate is violated by the observation...
        vector = pde_cone.vector_from_observation(observation)
        assert certificate.evaluate(vector) < 0
        # ...and satisfied by every µpath signature (a valid constraint).
        for signature in pde_cone.signatures:
            assert certificate.evaluate(list(signature)) >= 0

    def test_certificate_is_the_paper_constraint(self, pde_cone):
        observation = {"load.causes_walk": 4, "load.pde$_miss": 10}
        certificate = separating_constraint(pde_cone, observation)
        assert certificate.render() == "load.pde$_miss <= load.causes_walk"

    def test_scipy_backend_verified_exactly(self, pde_cone):
        observation = {"load.causes_walk": 4, "load.pde$_miss": 10}
        certificate = separating_constraint(pde_cone, observation, backend="scipy")
        assert certificate is not None
        vector = pde_cone.vector_from_observation(observation)
        assert certificate.evaluate(vector) < 0
        for signature in pde_cone.signatures:
            assert certificate.evaluate(list(signature)) >= 0

    def test_negative_counters_certified(self, pde_cone):
        certificate = separating_constraint(
            pde_cone, {"load.causes_walk": -3, "load.pde$_miss": 0}
        )
        assert certificate is not None

    def test_haswell_model_certificate(self):
        """A certificate on the full 26-counter conservative model."""
        from repro.models import M_SERIES, build_model_cone, standard_dataset

        cone = build_model_cone(M_SERIES["m0"])
        observation = standard_dataset()[0].point()
        assert not point_feasibility(cone, observation, backend="scipy").feasible
        certificate = separating_constraint(cone, observation, backend="scipy")
        assert certificate is not None
        vector = cone.vector_from_observation(observation)
        assert certificate.evaluate(vector) < 0


# ---------------------------------------------------------------------------
# Property: certificate exists iff infeasible, and is always valid.
# ---------------------------------------------------------------------------

signatures_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=1,
    max_size=4,
)

points_strategy = st.lists(
    st.integers(min_value=0, max_value=5), min_size=3, max_size=3
)


@settings(max_examples=30, deadline=None)
@given(signatures_strategy, points_strategy)
def test_certificate_iff_infeasible(signatures, point):
    cone = ModelCone(["a", "b", "c"], signatures)
    feasible = point_feasibility(cone, point).feasible
    certificate = separating_constraint(cone, point)
    assert (certificate is None) == feasible
    if certificate is not None:
        assert certificate.evaluate([v for v in point]) < 0
        for signature in cone.signatures:
            assert certificate.evaluate(list(signature)) >= 0


def _fraction_certificate_check(signatures, normal, vector):
    """The Fraction-arithmetic re-check the integer matvec replaced."""
    from fractions import Fraction

    def dot(u, v):
        return sum(Fraction(a) * Fraction(b) for a, b in zip(u, v))

    return dot(normal, vector) < 0 and all(
        dot(normal, signature) >= 0 for signature in signatures
    )


def test_integer_certificate_check_matches_the_fraction_reference():
    """Rationalised normals (denominators up to 10^6) and signatures up
    to 10^12, on both sides of the int64 overflow bound."""
    import random
    from fractions import Fraction

    from repro.cone.certificates import _is_valid_certificate

    rng = random.Random(0)
    for trial in range(300):
        magnitude = rng.choice((3, 10**6, 10**12))
        normal = [
            Fraction(rng.randint(-9, 9), rng.randint(1, 10**6)) for _ in range(4)
        ]
        if not any(normal):
            continue
        signatures = [
            tuple(rng.randint(0, magnitude) for _ in range(4))
            for _ in range(rng.randint(1, 8))
        ]
        if trial % 2:
            # Lean towards valid certificates: no signature touches a
            # coordinate where the normal is negative.
            signatures = [
                tuple(0 if weight < 0 else entry for entry, weight in zip(row, normal))
                for row in signatures
            ]
        cone = ModelCone(["a", "b", "c", "d"], signatures)
        vector = [Fraction(rng.randint(0, 20), rng.randint(1, 3)) for _ in range(4)]
        assert _is_valid_certificate(cone, normal, vector) == \
            _fraction_certificate_check(signatures, normal, vector), trial
