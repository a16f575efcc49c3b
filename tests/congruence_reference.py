"""A reference solver for linear congruences modulo the integer lattice,
with the integer determinant it needs.  The torus module finds fixed
points in closed form for the elements it solves; the tests check those
closed forms, and the fixed-point counts of other maps, against this
general solver.

A congruence A x = c/q (mod Z^n), with c integral, is brought to upper
triangular form by unimodular integer row operations on [A | c]: Euclid's
algorithm down each column.  The solutions are then built from the last
row up as integer numerators over s = q * |det A|.  Division by a pivot h
is exact, because s and the right-hand side of row i carry h: every
coordinate solved before it is a multiple of the pivots above its row.
``solve_congruence_numerators`` returns those numerators with s and
builds no Fraction.
"""

from fractions import Fraction
from math import prod
from operator import mul
from typing import Sequence


class NoSolutionError(ValueError):
    """The congruence system has no solution."""


class InfiniteSolutionsError(ValueError):
    """The congruence system has a positive-dimensional solution set."""


def _as_matrix(a: Sequence[Sequence[int]]) -> list[list[int]]:
    rows = [list(map(int, row)) for row in a]
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("matrix must be rectangular and non-empty")
    return rows


def determinant(a: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    m = _as_matrix(a)
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def solve_congruence_numerators(
    a: Sequence[Sequence[int]], c: Sequence[int], q: int
) -> tuple[int, list[tuple[int, ...]]]:
    """All x in (Q/Z)^n with ``A x = c/q (mod Z^n)``, for integral c and
    q >= 1, as ``(s, numerators)``: each solution is a tuple of integer
    numerators in [0, s) over the common denominator s = q * |det A|.

    For non-singular A there are ``|det A|`` distinct solutions.  A
    singular compatible system raises :class:`InfiniteSolutionsError`; an
    incompatible one raises :class:`NoSolutionError`.
    """
    m = _as_matrix(a)
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("matrix must be square")
    if len(c) != n:
        raise ValueError("vector length must match the matrix")
    # Unimodular row operations on the augmented rows [A | c] keep the
    # solution set.
    rows = [row + [int(x)] for row, x in zip(m, c)]

    rank = 0
    for col in range(n):
        while True:  # Euclid down the column below row ``rank``
            live = [i for i in range(rank, n) if rows[i][col]]
            if not live:
                break
            low = min(live, key=lambda i: abs(rows[i][col]))
            rows[rank], rows[low] = rows[low], rows[rank]
            if len(live) == 1:
                rank += 1
                break
            pivot = rows[rank]
            for i in range(rank + 1, n):
                k = rows[i][col] // pivot[col]
                if k:
                    rows[i] = [x - k * y for x, y in zip(rows[i], pivot)]

    # Rows from ``rank`` on read 0 = c_i / q (mod Z).
    for row in rows[rank:]:
        if row[n] % q:
            raise NoSolutionError(f"no solution: {Fraction(row[n], q)} is not integral")
    if rank < n:
        raise InfiniteSolutionsError("infinite solution set: matrix is singular")

    # Numerators X over s = q * |det A|, from the last row up: row i reads
    # h X_i + (its entries right of h) . X = c_i |det A| (mod s), which has
    # the |h| solutions below, each division exact (see the module doc).
    det = abs(prod(rows[i][i] for i in range(n)))
    s = q * det
    tails: list[tuple[int, ...]] = [()]
    for i in reversed(range(n)):
        h, *right, c_i = rows[i][i:]
        grown = []
        for tail in tails:
            rest = c_i * det - sum(map(mul, right, tail))
            grown += [((rest + t * s) // h % s, *tail) for t in range(abs(h))]
        tails = grown
    return s, tails

