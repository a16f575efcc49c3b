"""Exact integer and rational primitives shared by the geometry modules.

Partition feasibility, integer determinants and linear congruences
modulo the integer lattice.  Everything is exact; no floating point is
used anywhere.

A two-part query costs O(1) big-integer operations: ``is_pair_partitionable``
is the reference for the test that the pass over the pairs of weights in
``hypersurface`` runs inline, with each pair's gcd and inverse taken once
for d and every d - w_j; the tests check the pass against it.

``is_partitionable`` answers t = x*a + y*b + z*c with x, y, z >= 0 for
three positive parts.  g = gcd(a, b) divides t - z*c, which fixes z modulo
h = g / gcd(g, c); let z0 be the least such count and E = t - c*z0.  With
z = z0 + h*k, the least x is x_k = (u - v*k) mod m for m = b/g,
u = (E/g) * (a/g)^-1 and v = (c*h/g) * (a/g)^-1 modulo m, and t is
attainable iff some k >= 0 has a*x_k + c*h*k <= E, the b's filling the
rest.  The least of that cost over the points (k, x_k) lies on the lower
convex hull of the points (k, x), x >= 0, x = u - v*k (mod m), and a walk
finds it: from the current point a step down adds 1 to k and takes v from
x, a wrap adds m to x.  While a step down lowers the cost the walk goes
down as far as x allows; the points it can reach next are one wrap up,
then down again, and they form the same problem on modulus m mod v with
step v mod (m mod v).  So the walk takes two steps of Euclid's algorithm
on (m, v) a round, O(log m) rounds, and its costs stay within a factor of
two of max(a, c*h) * m.  It is the continued-fraction structure behind
Rødseth's (1978) and Greenberg's (1988) Frobenius numbers of three
generators.

A congruence A x = c/q (mod Z^n), with c integral, is brought to upper
triangular form by unimodular integer row operations on [A | c]: Euclid's
algorithm down each column.  The solutions are then built from the last
row up as integer numerators over s = q * |det A|.  Division by a pivot h
is exact, because s and the right-hand side of row i carry h: every
coordinate solved before it is a multiple of the pivots above its row.
``solve_congruence_numerators`` returns those numerators with s and
builds no Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod
from operator import mul
from typing import Iterable, Sequence


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
    """True iff ``target`` is a sum of non-negative multiples of three
    positive ``parts`` (the walk of the module docstring)."""
    a, b, c = parts
    if target < 0 or min(a, b, c) <= 0:
        raise ValueError("target must be non-negative and the parts positive")
    # z copies of c leave a multiple of g = gcd(a, b) iff z = z0 (mod h);
    # rest is E = t - c*z0.
    g = gcd(a, b)
    e = gcd(g, c)
    h = g // e
    rest = target - c * (target // e * pow(c // e, -1, h) % h)
    if target % e or rest < 0:
        return False
    m = b // g
    inverse = pow(a // g, -1, m)
    u, v = rest // g * inverse % m, c // e * inverse % m
    # The cost a*x + c*h*k of the point (k, x) = (0, u), of a step down
    # (1, -v) and of a wrap (0, m).
    cost, down, wrap = a * u, c * h - a * v, a * m
    while cost > rest and down < 0:
        # Down as far as x allows.
        q, r = divmod(m, v)
        cost += u // v * down
        u %= v
        # One wrap up and q steps down raise x by r and the cost by up > 0.
        up = wrap + q * down
        if cost <= rest or not r:
            break
        # The first point past the next wrap, (u - v) mod r above zero.
        n = -((u - v) // r)
        cost += n * up + down
        u += n * r - v
        m, v, down, wrap = r, v % r, v // r * up + down, up
    return cost <= rest


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

