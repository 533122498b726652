"""Fraction-free integer linear-algebra kernels (Bareiss elimination).

The exact pipeline's hot operations — rank tests inside the double
description method, solves for simplicial rays and facet lifting — do
not need :class:`~fractions.Fraction` arithmetic at all: every row of a
rational matrix can be scaled by a positive rational into coprime
integers without changing its rank, nullspace, or (for augmented
systems) solution set. Plain Python ints are arbitrary precision, so the
scaled computation stays exact while avoiding per-operation Fraction
object allocation and gcd normalisation — in practice 10-50× cheaper.

The kernels here implement fraction-free Gaussian elimination in the
Bareiss form: the two-step determinant identity guarantees every interior
division is exact, so intermediate entries stay integers and grow only
linearly in bit length (instead of exponentially, as naive integer
cross-multiplication would).

:mod:`repro.linalg.matrix` keeps the Fraction-based implementations
(`rref` and friends) as the reference path; its public ``rank`` and
``solve`` route through these kernels via conversion shims, so callers
are untouched.
"""

from fractions import Fraction
from math import gcd

from repro.errors import LinalgError


def int_row(values):
    """Normalise one row of numbers to a gcd-reduced tuple of ints.

    The row is multiplied by the positive LCM of its denominators and
    divided by the positive GCD of the results, so the returned tuple is
    a *positive* rational multiple of the input: signs and direction are
    preserved exactly. Floats pass through ``Fraction(float)``, which is
    lossless (the binary expansion, not the decimal literal).
    """
    ints = []
    exact = True
    for value in values:
        if isinstance(value, int):
            ints.append(value)
        elif isinstance(value, Fraction) and value.denominator == 1:
            ints.append(value.numerator)
        else:
            exact = False
            break
    if not exact:
        fracs = [
            value if isinstance(value, Fraction) else Fraction(value)
            for value in values
        ]
        lcm = 1
        for value in fracs:
            d = value.denominator
            lcm = lcm * d // gcd(lcm, d)
        ints = [int(value * lcm) for value in fracs]
    common = 0
    for value in ints:
        common = gcd(common, value)
    if common > 1:
        ints = [value // common for value in ints]
    return tuple(ints)


def as_int_rows(rows):
    """Row-normalise a matrix to gcd-reduced int tuples.

    Row scaling preserves rank and nullspace, so the result is a valid
    stand-in for the original in the Bareiss kernels. Raises
    :class:`LinalgError` on ragged input.
    """
    normalized = [int_row(row) for row in rows]
    if normalized:
        width = len(normalized[0])
        for row in normalized:
            if len(row) != width:
                raise LinalgError(
                    "ragged matrix: expected width %d, got %d" % (width, len(row))
                )
    return normalized


def bareiss_rank(int_rows):
    """Exact rank of an integer matrix by fraction-free elimination.

    Every division is exact (Bareiss two-step identity), so the
    computation never leaves the integers.
    """
    matrix = [list(row) for row in int_rows]
    if not matrix:
        return 0
    n_rows = len(matrix)
    n_cols = len(matrix[0])
    row = 0
    prev = 1
    for col in range(n_cols):
        if row >= n_rows:
            break
        pivot_row = None
        for r in range(row, n_rows):
            if matrix[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        if pivot_row != row:
            matrix[row], matrix[pivot_row] = matrix[pivot_row], matrix[row]
        pivot = matrix[row][col]
        base = matrix[row]
        for r in range(row + 1, n_rows):
            target = matrix[r]
            factor = target[col]
            if factor:
                for c in range(col + 1, n_cols):
                    target[c] = (pivot * target[c] - factor * base[c]) // prev
                target[col] = 0
            else:
                # The pivot multiplication applies to zero-factor rows
                # too — the Bareiss exact-division invariant (entries are
                # minors of the original matrix) depends on it.
                for c in range(col + 1, n_cols):
                    target[c] = (pivot * target[c]) // prev
        prev = pivot
        row += 1
    return row


def bareiss_solve(int_augmented):
    """Solve the square system encoded by an ``n x (n+1)`` integer
    augmented matrix ``[A | b]`` exactly.

    Forward elimination is fraction-free (Bareiss); back substitution
    produces :class:`~fractions.Fraction` results identical to the
    RREF-based reference solver. Raises :class:`LinalgError` when the
    system is singular.
    """
    matrix = [list(row) for row in int_augmented]
    n = len(matrix)
    if n == 0:
        return []
    if any(len(row) != n + 1 for row in matrix):
        raise LinalgError("bareiss_solve expects an n x (n+1) augmented matrix")
    prev = 1
    for col in range(n):
        pivot_row = None
        for r in range(col, n):
            if matrix[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            raise LinalgError("solve: singular or inconsistent system")
        if pivot_row != col:
            matrix[col], matrix[pivot_row] = matrix[pivot_row], matrix[col]
        pivot = matrix[col][col]
        base = matrix[col]
        for r in range(col + 1, n):
            target = matrix[r]
            factor = target[col]
            if factor:
                for c in range(col + 1, n + 1):
                    target[c] = (pivot * target[c] - factor * base[c]) // prev
                target[col] = 0
            else:
                for c in range(col + 1, n + 1):
                    target[c] = (pivot * target[c]) // prev
        prev = pivot
    solution = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        accumulated = Fraction(matrix[i][n])
        for j in range(i + 1, n):
            if matrix[i][j]:
                accumulated -= matrix[i][j] * solution[j]
        solution[i] = accumulated / matrix[i][i]
    return solution


def bareiss_rref(int_rows):
    """Reduced row echelon form of an integer matrix, fraction-free.

    One-pass fraction-free Gauss-Jordan (Bareiss one-step): rows above
    *and* below the pivot are cross-eliminated with exact integer
    division by the previous pivot. On completion every pivot entry
    equals the final pivot value, so the rational RREF is obtained by a
    single division per entry at the end.

    Returns ``(reduced, pivot_columns)`` exactly like
    :func:`repro.linalg.matrix.rref` (zero rows sink to the bottom);
    since RREF is invariant under row scaling, feeding gcd-normalised
    rows produces the RREF of the original matrix.
    """
    matrix = [list(row) for row in int_rows]
    if not matrix:
        return [], []
    n_rows = len(matrix)
    n_cols = len(matrix[0])
    pivots = []
    pivot_row = 0
    prev = 1
    for col in range(n_cols):
        if pivot_row >= n_rows:
            break
        target = None
        for r in range(pivot_row, n_rows):
            if matrix[r][col]:
                target = r
                break
        if target is None:
            continue
        if target != pivot_row:
            matrix[pivot_row], matrix[target] = matrix[target], matrix[pivot_row]
        pivot = matrix[pivot_row][col]
        base = matrix[pivot_row]
        for r in range(n_rows):
            if r == pivot_row:
                continue
            row = matrix[r]
            factor = row[col]
            if factor:
                for c in range(n_cols):
                    if c != col:
                        row[c] = (pivot * row[c] - factor * base[c]) // prev
                row[col] = 0
            else:
                for c in range(n_cols):
                    if c != col:
                        row[c] = (pivot * row[c]) // prev
        prev = pivot
        pivots.append(col)
        pivot_row += 1
    n_pivots = len(pivots)
    reduced = [
        [Fraction(value, prev) for value in matrix[r]] for r in range(n_pivots)
    ]
    zero_row = [Fraction(0)] * n_cols
    reduced.extend(list(zero_row) for _ in range(n_rows - n_pivots))
    return reduced, pivots


def int_dot(u, v):
    """Plain integer dot product (no length check — hot path)."""
    total = 0
    for a, b in zip(u, v):
        total += a * b
    return total


#: Largest int64 value. A numpy int64 dot product is exact while every
#: partial sum stays within it.
INT64_MAX = 2**63 - 1


class IntRows:
    """Integer rows with exact ``row . vector`` products.

    The products run as one numpy int64 matvec while the overflow bound
    ``max|row entry| * max|vector entry| * width`` holds (it bounds every
    partial sum), and as Python ints above it. The int64 image is built
    on first use and kept.
    """

    __slots__ = ("rows", "width", "max_abs", "_array")

    def __init__(self, rows, width):
        self.rows = rows
        self.width = width
        self.max_abs = max((abs(entry) for row in rows for entry in row), default=0)
        self._array = None

    def fits_int64(self, vector):
        """Whether the int64 products with ``vector`` cannot overflow."""
        bound = max((abs(value) for value in vector), default=0)
        return (self.max_abs <= INT64_MAX
                and self.max_abs * bound * self.width <= INT64_MAX)

    def matvec(self, vector):
        """``[row . vector for row in rows]`` as exact Python ints."""
        if self.fits_int64(vector):
            import numpy as np

            if self._array is None:
                self._array = np.array(self.rows, dtype=np.int64).reshape(
                    len(self.rows), self.width
                )
            return (self._array @ np.array(vector, dtype=np.int64)).tolist()
        return [int_dot(row, vector) for row in self.rows]


__all__ = [
    "INT64_MAX",
    "IntRows",
    "as_int_rows",
    "bareiss_rank",
    "bareiss_solve",
    "int_dot",
    "int_row",
]
