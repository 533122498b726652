"""Seeded random cone-membership instances for the certified LP suite.

Each instance is a column set (the cone's integer generators, like µpath
signatures) and a rational point, chosen so the differential sweep in
``test_lp_certified.py`` meets every shape on which the certified
point-feasibility routine and the Fraction simplex must agree:

* ``generic`` — small non-negative signatures, points inside or outside,
* ``duplicate`` — repeated rays and positive multiples of one ray,
* ``degenerate`` — more columns than the dimension of their span,
* ``zero_column`` — all-zero columns mixed into the set,
* ``zero_point`` — the origin, in every cone,
* ``facet`` — points on a proper face, and points nudged just off it,
* ``magnitude`` — entries of 10^9 to 10^12, whose integer checks exceed
  the int64 overflow bound,
* ``signed`` — generators with negative entries (general cones),
* ``rational`` — points with non-integer coordinates.

Instances are fully determined by the seed.
"""

import random
from fractions import Fraction

KINDS = (
    "generic", "duplicate", "degenerate", "zero_column", "zero_point",
    "facet", "magnitude", "signed", "rational",
)


def _column(rng, n, low=0, high=3):
    column = [rng.randint(low, high) for _ in range(n)]
    if not any(column):
        column[rng.randrange(n)] = high
    return column


def _combination(rng, columns, n, high=5):
    """A non-negative integer combination of ``columns``."""
    point = [0] * n
    for column in columns:
        weight = rng.randint(0, high)
        for coord in range(n):
            point[coord] += weight * column[coord]
    return point


def _inside_or_outside(rng, columns, n, high=6):
    """A point inside the cone (half the time) or an arbitrary one."""
    if rng.random() < 0.5:
        return _combination(rng, columns, n)
    return [rng.randint(0, high) for _ in range(n)]


def random_instance(seed, kind=None):
    """``(kind, columns, point)`` for ``seed``: integer column lists of
    one length ``n`` and a point of ``n`` ints or Fractions."""
    rng = random.Random(seed)
    if kind is None:
        kind = KINDS[seed % len(KINDS)]
    n = rng.randint(1, 5)
    columns = [_column(rng, n) for _ in range(rng.randint(1, 8))]
    if kind == "duplicate":
        extra = []
        for column in columns:
            for _ in range(rng.randint(0, 2)):
                factor = rng.randint(1, 3)
                extra.append([factor * value for value in column])
        columns = columns + extra
        rng.shuffle(columns)
        point = _inside_or_outside(rng, columns, n)
    elif kind == "degenerate":
        # Columns drawn from the span of a few base rays: rank < count.
        base = [_column(rng, n) for _ in range(rng.randint(1, max(1, n - 1)))]
        columns = [_combination(rng, base, n, high=2) for _ in range(rng.randint(2, 9))]
        columns = [column for column in columns if any(column)] or base
        point = _inside_or_outside(rng, columns + base, n)
    elif kind == "zero_column":
        for _ in range(rng.randint(1, 3)):
            columns.insert(rng.randrange(len(columns) + 1), [0] * n)
        point = _inside_or_outside(rng, columns, n)
    elif kind == "zero_point":
        point = [0] * n
    elif kind == "facet":
        # A combination of a subset of the columns lies on a face of the
        # cone; a nudge of one unit often leaves it.
        subset = rng.sample(columns, rng.randint(1, len(columns)))
        point = _combination(rng, subset, n)
        if rng.random() < 0.5:
            coord = rng.randrange(n)
            point[coord] = max(0, point[coord] + rng.choice((-1, 1)))
    elif kind == "magnitude":
        big = 10 ** rng.randint(9, 12)
        columns = [
            [value * big + rng.randint(0, big) * (value > 0) for value in column]
            for column in columns
        ]
        point = _combination(rng, columns, n, high=1000)
        if rng.random() < 0.5:
            point[rng.randrange(n)] += rng.choice((-1, 1)) * rng.randint(1, big)
            point = [max(0, value) for value in point]
    elif kind == "signed":
        columns = [_column(rng, n, low=-3, high=3) for _ in range(len(columns))]
        point = [rng.randint(-6, 6) for _ in range(n)]
        if rng.random() < 0.5:
            point = _combination(rng, columns, n)
    elif kind == "rational":
        denominator = rng.randint(2, 9)
        point = [
            Fraction(value, denominator)
            for value in _inside_or_outside(rng, columns, n)
        ]
    else:
        point = _inside_or_outside(rng, columns, n)
    return kind, columns, point
