"""Exact rational linear algebra over :class:`fractions.Fraction`.

The constraint-deduction pipeline of CounterPoint (Section 6 of the paper)
requires *exact* arithmetic: counter signatures are small integer vectors,
and the paper notes that standard floating-point methods (e.g. QR
factorisation) are ill-conditioned for deducing equality constraints and
facets. This subpackage provides the small exact toolkit the rest of the
library builds on:

* :func:`rref` — reduced row echelon form with pivot bookkeeping,
* :func:`rank`, :func:`nullspace`, :func:`row_space_basis`,
* :func:`solve` — exact solution of square systems,
* assorted vector helpers (:func:`dot`, :func:`normalize_integer_vector`).

Matrices are plain lists of lists of :class:`~fractions.Fraction`; vectors
are lists of Fractions. This keeps the data model transparent; numpy
appears only as an int64 accelerator behind an overflow bound.

:mod:`repro.linalg.intkernel` is the integer fast path underneath
:func:`rank` and :func:`solve`: rows gcd-normalised to int tuples and
eliminated fraction-free (Bareiss), exploiting Python's
arbitrary-precision ints. The Fraction implementations remain the
reference; both produce identical exact results. Its :class:`IntRows`
runs exact integer matrix-vector products in numpy int64 while an
explicit overflow bound holds, and in Python ints above it.
"""

from repro.linalg.intkernel import (
    INT64_MAX,
    IntRows,
    as_int_rows,
    bareiss_rank,
    bareiss_rref,
    bareiss_solve,
    int_dot,
    int_row,
)
from repro.linalg.matrix import (
    as_fraction_matrix,
    as_fraction_vector,
    dot,
    identity,
    is_zero_vector,
    matmul,
    matvec,
    normalize_integer_vector,
    nullspace,
    rank,
    row_space_basis,
    rref,
    rref_fast,
    scale_to_integers,
    solve,
    transpose,
    vector_sub,
)

__all__ = [
    "INT64_MAX",
    "IntRows",
    "as_fraction_matrix",
    "as_fraction_vector",
    "as_int_rows",
    "bareiss_rank",
    "bareiss_rref",
    "bareiss_solve",
    "int_dot",
    "int_row",
    "dot",
    "identity",
    "is_zero_vector",
    "matmul",
    "matvec",
    "normalize_integer_vector",
    "nullspace",
    "rank",
    "row_space_basis",
    "rref",
    "rref_fast",
    "scale_to_integers",
    "solve",
    "transpose",
    "vector_sub",
]
