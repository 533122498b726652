"""Certified point feasibility: a float proposal, an exact certificate.

Whether a point ``v`` lies in the cone of integer columns ``s_1 .. s_P``
(the Appendix A flow system ``S^T f = v, f >= 0``) is the verdict behind
"refuted". :func:`point_in_cone` decides it in three steps:

1. **Propose.** Lawson–Hanson non-negative least squares (:func:`nnls`,
   numpy only) finds the cone point nearest ``v`` and its *passive set*,
   the columns that carry positive flow.
2. **Certify exactly.** When the float residual is ≈0, the passive
   columns and ``v`` go through a fraction-free RREF. A consistent
   system with a non-negative solution ``x_B`` is a flow *witness*,
   re-checked as ``S_B x_B = v`` in integers. Otherwise the exact
   least-squares residual ``r`` of ``v`` over the passive columns (a
   Bareiss solve of the integer Gram system) gives the Farkas vector
   ``y = -r``, accepted only if ``y . v < 0`` and ``y . s >= 0`` for
   every column. Both checks run in integers
   (:class:`repro.linalg.IntRows`).
3. **Fall back.** When neither certificate checks, the exact two-phase
   Fraction simplex (:mod:`repro.lp.simplex`) decides. It is traced as
   an ``lp.solve`` span with ``backend="exact"`` and counted as
   ``lp.exact_fallbacks``; certified verdicts count as ``lp.certified``.

Floats only choose *which* exact computation runs, so every verdict is
exact. The Fraction simplex stays as the fallback and as the oracle of
the differential fuzz suite (``tests/test_lp_certified.py``).
"""

from fractions import Fraction
from math import gcd

from repro.errors import LinalgError
from repro.linalg import IntRows, int_dot, int_row, rref_fast, solve
from repro.lp.problem import EQ, LinearProgram
from repro.lp.solver import Status, solve as solve_lp
from repro.obs.trace import get_tracer

#: Float residual, relative to ``|v|``, under which the proposal counts
#: as "v is in the cone" and the witness route is tried first.
WITNESS_RESIDUAL = 1e-9

#: Which step decided a :class:`PointVerdict`.
WITNESS = "witness"
FARKAS = "farkas"
SIMPLEX = "simplex"


class PointVerdict:
    """Outcome of :func:`point_in_cone`.

    Attributes
    ----------
    feasible:
        Whether the point lies in the cone.
    flows:
        When feasible, one non-negative :class:`~fractions.Fraction` flow
        per column with ``sum_j flows[j] * columns[j] == point``.
    farkas:
        When the Farkas route refuted the point, the integer vector ``y``
        with ``y . point < 0`` and ``y . column >= 0`` for every column.
    route:
        ``"witness"``, ``"farkas"`` or ``"simplex"`` (the fallback).
    """

    __slots__ = ("feasible", "flows", "farkas", "route")

    def __init__(self, feasible, route, flows=None, farkas=None):
        self.feasible = feasible
        self.route = route
        self.flows = flows
        self.farkas = farkas

    def __repr__(self):
        return "PointVerdict(feasible=%r, route=%r)" % (self.feasible, self.route)


def _lcm_of_denominators(values):
    lcm = 1
    for value in values:
        denominator = value.denominator
        lcm = lcm * denominator // gcd(lcm, denominator)
    return lcm


def nnls(matrix, rhs):
    """Lawson–Hanson non-negative least squares, numpy only.

    Minimises ``|matrix @ x - rhs|`` over ``x >= 0``. Returns
    ``(x, passive)``, where the boolean array ``passive`` marks the
    columns with positive ``x``, or ``None`` when the budget of three
    least-squares solves per column runs out.
    """
    import numpy as np

    n_rows, n_cols = matrix.shape
    x = np.zeros(n_cols)
    passive = np.zeros(n_cols, dtype=bool)
    blocked = np.zeros(n_cols, dtype=bool)
    scale = float(np.abs(matrix).sum(axis=0).max(initial=1.0))
    tolerance = 10 * np.finfo(float).eps * max(n_rows, n_cols) * scale
    budget = 3 * n_cols
    gradient = matrix.T @ rhs

    def passive_lstsq():
        trial = np.zeros(n_cols)
        columns = np.flatnonzero(passive)
        trial[columns] = np.linalg.lstsq(matrix[:, columns], rhs, rcond=None)[0]
        return trial

    while True:
        candidates = ~passive & ~blocked & (gradient > tolerance)
        if not candidates.any():
            return x, passive
        entering = int(np.argmax(np.where(candidates, gradient, -np.inf)))
        passive[entering] = True
        budget -= 1
        if budget < 0:
            return None
        trial = passive_lstsq()
        if trial[entering] <= 0:
            # A positive gradient says the entering column takes positive
            # flow; rounding disagrees. Skip it until the passive set
            # changes, or the outer loop would pick it forever.
            passive[entering] = False
            blocked[entering] = True
            continue
        while (trial[passive] <= 0).any():
            budget -= 1
            if budget < 0:
                return None
            leaving = np.flatnonzero(passive & (trial <= 0))
            ratios = x[leaving] / (x[leaving] - trial[leaving])
            step = int(np.argmin(ratios))
            x = x + ratios[step] * (trial - x)
            x[leaving[step]] = 0.0
            passive &= x > 0
            x[~passive] = 0.0
            trial = passive_lstsq()
        x = trial
        blocked[:] = False
        gradient = matrix.T @ (rhs - matrix @ x)


def _propose(array, point):
    """NNLS on unit-norm columns and a unit-norm point: the passive
    column indices and the relative float residual, or ``None``."""
    import numpy as np

    rhs = np.array([float(value) for value in point])
    length = np.linalg.norm(rhs)
    if not 0 < length < np.inf:
        return None  # the point under- or overflows a float
    rhs /= length
    norms = np.linalg.norm(array, axis=0)
    live = np.flatnonzero(norms > 0)  # zero columns carry no flow
    normalised = array[:, live] / norms[live]
    try:
        proposal = nnls(normalised, rhs)
    except np.linalg.LinAlgError:
        return None
    if proposal is None:
        return None
    x, passive = proposal
    residual = float(np.linalg.norm(rhs - normalised @ x))
    return live[passive].tolist(), residual


def _witness(columns, target, scale, support):
    """Exact flows on the ``support`` columns reaching ``target``, as a
    feasible verdict for ``target / scale``; ``None`` when the support
    system is inconsistent or its basic solution has a negative flow."""
    width = len(support)
    system = [
        [columns[j][coord] for j in support] + [target[coord]]
        for coord in range(len(target))
    ]
    reduced, pivots = rref_fast(system)
    if width in pivots:
        return None  # target is outside the span of the support
    values = [Fraction(0)] * width
    for row, column in enumerate(pivots):
        values[column] = reduced[row][width]
    if any(value < 0 for value in values):
        return None
    denominator = _lcm_of_denominators(values)
    integral = [int(value * denominator) for value in values]
    reached = IntRows([row[:width] for row in system], width).matvec(integral)
    if reached != [denominator * value for value in target]:
        return None
    flows = [Fraction(0)] * len(columns)
    for j, value in zip(support, values):
        flows[j] = value / scale
    return PointVerdict(True, WITNESS, flows=flows)


def _least_squares_residual(columns, support, target):
    """A positive multiple of ``target - S_B x_B`` for the exact
    least-squares ``x_B`` over the ``support`` columns, in integers.
    Raises :class:`LinalgError` when the support columns are dependent
    (singular Gram matrix)."""
    if not support:
        return list(target)
    n = len(target)
    basis = IntRows([columns[j] for j in support], n)
    gram = [basis.matvec(columns[k]) for k in support]
    coefficients = solve(gram, basis.matvec(target))
    denominator = _lcm_of_denominators(coefficients)
    integral = [int(value * denominator) for value in coefficients]
    spanned = IntRows(
        [[columns[j][coord] for j in support] for coord in range(n)], len(support)
    ).matvec(integral)
    return [denominator * value - part for value, part in zip(target, spanned)]


def _farkas(columns, ints, target, support):
    """A Farkas refutation of ``target`` from the least-squares residual
    over the ``support`` columns; ``None`` when it does not check."""
    try:
        residual = _least_squares_residual(columns, support, target)
    except LinalgError:
        # Dependent passive columns: an independent subset spans the
        # same space and leaves the same residual.
        _, pivots = rref_fast(
            [[columns[j][coord] for j in support] for coord in range(len(target))]
        )
        residual = _least_squares_residual(
            columns, [support[p] for p in pivots], target
        )
    farkas = [-value for value in int_row(residual)]
    if int_dot(farkas, target) >= 0:
        return None
    if min(ints.matvec(farkas), default=0) < 0:
        return None
    return PointVerdict(False, FARKAS, farkas=farkas)


def simplex_point_in_cone(columns, point):
    """The reference and fallback: the flow system ``sum_j f_j *
    columns[j] = point, f >= 0`` on the exact Fraction simplex."""
    lp = LinearProgram()
    names = ["flow_%d" % index for index in range(len(columns))]
    for name in names:
        lp.add_variable(name)
    for coord, value in enumerate(point):
        coefficients = {
            names[index]: Fraction(column[coord])
            for index, column in enumerate(columns)
            if column[coord] != 0
        }
        if not coefficients:
            if value != 0:
                return PointVerdict(False, SIMPLEX)
            continue
        lp.add_constraint(coefficients, EQ, value, name="flow_eq_%d" % coord)
    result = solve_lp(lp, backend="exact")
    if result.status != Status.OPTIMAL:
        return PointVerdict(False, SIMPLEX)
    return PointVerdict(
        True, SIMPLEX, flows=[result.assignment[name] for name in names]
    )


def point_in_cone(columns, point, array=None, ints=None):
    """Decide exactly whether ``point`` is a non-negative combination of
    ``columns``.

    Parameters
    ----------
    columns:
        The ``P`` integer generators (µpath signatures), each of length
        ``N``.
    point:
        ``N`` rationals (ints or :class:`~fractions.Fraction`).
    array, ints:
        Optional caches of the columns: the ``N x P`` float matrix
        (:meth:`ModelCone.signature_array`) and their
        :class:`~repro.linalg.IntRows`.

    Returns a :class:`PointVerdict`.
    """
    import numpy as np

    n = len(point)
    scale = _lcm_of_denominators(point)
    target = [int(value * scale) for value in point]
    if not any(target):
        return PointVerdict(True, WITNESS, flows=[Fraction(0)] * len(columns))
    if array is None:
        array = np.array(columns, dtype=float).reshape(len(columns), n).T
    if ints is None:
        ints = IntRows(columns, n)
    tracer = get_tracer()
    with tracer.span("lp.propose", columns=len(columns), rows=n):
        proposal = _propose(array, point)
    with tracer.span("lp.certify") as span:
        verdict = None
        if proposal is not None:
            support, residual = proposal
            if residual <= WITNESS_RESIDUAL:
                verdict = _witness(columns, target, scale, support)
            if verdict is None:
                verdict = _farkas(columns, ints, target, support)
        span.set(route=None if verdict is None else verdict.route)
    if verdict is not None:
        if tracer.enabled:
            tracer.metrics.counter("lp.certified").inc()
        return verdict
    if tracer.enabled:
        tracer.metrics.counter("lp.exact_fallbacks").inc()
    return simplex_point_in_cone(columns, point)
