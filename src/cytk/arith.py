"""Exact integer primitives shared by the geometry modules.

Partition feasibility: whether a target is a sum of non-negative
multiples of two or three positive parts.  Everything is exact; no
floating point is used anywhere.

A two-part query costs O(1) big-integer operations: ``is_pair_partitionable``
is the reference for the test that the pass over the pairs of weights in
``hypersurface`` runs inline for d and every d - w_j, with each pair's gcd
taken once and its inverse at most once, for a target below the pair's
conductor; the tests check the pass against it.

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
"""

from __future__ import annotations

from math import gcd
from typing import Iterable

# Every integer a reply prints is below 2**14284 < 10**4300, Python's
# default limit on the digits of an int turned into a string.
INTEGER_BITS = 14284


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
