"""Exact integer and rational primitives shared by the geometry modules.

Partition feasibility, integer determinants, characteristic polynomials,
Smith normal form and linear congruences modulo the integer lattice.
Everything is exact; no floating point is used anywhere.

A partition query costs O(1) big-integer operations for two parts.  For
three or more parts it tries the multiples of the largest part up to its
period against the others, at most min(parts) ** (len(parts) - 2) pair
tests, so its cost is bounded by the parts and grows with the target only
through the length of its digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd
from typing import Iterable, Sequence

IntMatrix = tuple[tuple[int, ...], ...]


class NoSolutionError(ValueError):
    """The congruence system has no solution."""


class InfiniteSolutionsError(ValueError):
    """The congruence system has a positive-dimensional solution set."""


def is_pair_partitionable(target: int, a: int, b: int) -> bool:
    """True iff ``target = x*a + y*b`` with x, y >= 0, for positive a, b.

    With g = gcd(a, b), a' = a/g, b' = b/g and t = target/g, the least
    x >= 0 with x*a' congruent to t modulo b' is t * a'^-1 mod b', and t
    is attainable iff that x leaves a non-negative multiple of b', i.e.
    x*a' <= t.  A target not divisible by g is never attainable.
    """
    g = gcd(a, b)
    if target % g:
        return False
    a, b, target = a // g, b // g, target // g
    return target * pow(a, -1, b) % b * a <= target


def is_partitionable(target: int, parts: Iterable[int]) -> bool:
    """True iff ``target`` is a sum of non-negative multiples of ``parts``."""
    parts = sorted(set(parts))
    if not parts:
        raise ValueError("parts must be non-empty")
    if target < 0:
        raise ValueError("target must be non-negative")
    if parts[0] <= 0:
        raise ValueError("parts must be positive")
    if len(parts) == 1:
        return target % parts[0] == 0
    if len(parts) == 2:
        return is_pair_partitionable(target, parts[0], parts[1])
    *rest, top = parts
    # p/gcd(p, top) copies of top make a multiple of p, so a solution that
    # uses top at least that often has one using it fewer times.
    period = min(p // gcd(p, top) for p in rest)
    for k in range(min(target // top, period - 1) + 1):
        if is_partitionable(target - k * top, rest):
            return True
    return False


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


def charpoly(a: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Coefficients ``(1, c1, ..., cn)`` of ``det(x*I - A)``, highest degree
    first, via the Faddeev-LeVerrier recursion (exact for integer input)."""
    m = _as_matrix(a)
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("matrix must be square")
    coeffs = [1]
    work = [[0] * n for _ in range(n)]  # starts as the zero matrix
    for k in range(1, n + 1):
        # work <- A * (work + c_{k-1} * I)
        shifted = [row[:] for row in work]
        for i in range(n):
            shifted[i][i] += coeffs[-1]
        work = [
            [sum(m[i][l] * shifted[l][j] for l in range(n)) for j in range(n)]
            for i in range(n)
        ]
        trace = sum(work[i][i] for i in range(n))
        assert trace % k == 0
        coeffs.append(-trace // k)
    return tuple(coeffs)


def charpoly_eval(coeffs: Sequence[int], x: int) -> int:
    value = 0
    for c in coeffs:
        value = value * x + c
    return value


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


@dataclass(frozen=True)
class SnfDecomposition:
    """Smith normal form data ``U * A * V = diag(d1, ..., dk)`` with U, V
    unimodular and ``d1 | d2 | ...`` (zeros last)."""

    left: IntMatrix
    diagonal: tuple[int, ...]
    right: IntMatrix
    original: IntMatrix


def smith_normal_form(a: Sequence[Sequence[int]]) -> SnfDecomposition:
    """Diagonalize an integer matrix by unimodular row and column operations.

    Deterministic for a fixed input; the diagonal is non-negative and forms
    a divisibility chain.
    """
    original = tuple(tuple(map(int, row)) for row in _as_matrix(a))
    m = [list(row) for row in original]
    rows, cols = len(m), len(m[0])
    u = _identity(rows)
    v = _identity(cols)

    def row_op(i: int, j: int, q: int) -> None:  # row_i -= q * row_j
        m[i] = [x - q * y for x, y in zip(m[i], m[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i: int, j: int, q: int) -> None:  # col_i -= q * col_j
        for r in range(rows):
            m[r][i] -= q * m[r][j]
        for r in range(cols):
            v[r][i] -= q * v[r][j]

    def swap_rows(i: int, j: int) -> None:
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        for r in range(rows):
            m[r][i], m[r][j] = m[r][j], m[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    t = 0
    while t < min(rows, cols):
        # move a minimal non-zero entry of the trailing block to (t, t)
        entries = [
            (abs(m[i][j]), i, j)
            for i in range(t, rows)
            for j in range(t, cols)
            if m[i][j] != 0
        ]
        if not entries:
            break
        _, pi, pj = min(entries)
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)

        dirty = False
        for i in range(t + 1, rows):
            if m[i][t] != 0:
                q = m[i][t] // m[t][t]
                row_op(i, t, q)
                if m[i][t] != 0:
                    dirty = True
        for j in range(t + 1, cols):
            if m[t][j] != 0:
                q = m[t][j] // m[t][t]
                col_op(j, t, q)
                if m[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # pivot must divide the whole trailing block for the chain to hold
        stray = next(
            (
                (i, j)
                for i in range(t + 1, rows)
                for j in range(t + 1, cols)
                if m[i][j] % m[t][t] != 0
            ),
            None,
        )
        if stray is not None:
            row_op(t, stray[0], -1)  # add the offending row to row t
            continue
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    diagonal = tuple(m[i][i] for i in range(min(rows, cols)))
    return SnfDecomposition(
        left=tuple(tuple(r) for r in u),
        diagonal=diagonal,
        right=tuple(tuple(r) for r in v),
        original=original,
    )


def _mat_vec(mat: Sequence[Sequence[int]], vec: Sequence[Fraction]) -> list[Fraction]:
    return [sum((Fraction(x) * y for x, y in zip(row, vec)), Fraction(0)) for row in mat]


def solve_congruence(
    a: Sequence[Sequence[int]], b: Sequence[Fraction | int]
) -> frozenset[tuple[Fraction, ...]]:
    """All x in (Q/Z)^n with ``A x = b (mod Z^n)``, as tuples with every
    coordinate reduced to [0, 1).

    For non-singular A the set is finite of size ``|det A|``.  A singular
    compatible system raises :class:`InfiniteSolutionsError`; an
    incompatible one raises :class:`NoSolutionError`.
    """
    snf = smith_normal_form(a)
    n = len(snf.original)
    if any(len(r) != n for r in snf.original):
        raise ValueError("matrix must be square")
    rhs = [Fraction(x) for x in b]
    if len(rhs) != n:
        raise ValueError("vector length must match the matrix")
    c = _mat_vec(snf.left, rhs)

    # Diagonal system d_i y_i = c_i (mod Z), then x = V y.
    for d, ci in zip(snf.diagonal, c):
        if d == 0 and ci.denominator != 1:
            raise NoSolutionError(f"no solution: {ci} is not integral")
    if any(d == 0 for d in snf.diagonal):
        raise InfiniteSolutionsError("infinite solution set: matrix is singular")

    axes = []
    for d, ci in zip(snf.diagonal, c):
        axes.append(tuple((ci + k) / d % 1 for k in range(abs(d))))
    solutions = set()
    v = snf.right
    for y in product(*axes):
        x = tuple(val % 1 for val in _mat_vec(v, list(y)))
        solutions.add(x)
    return frozenset(solutions)
