"""Weight systems of weighted projective spaces, with any n >= 3 weights,
and the cyclic quotient surface germs 1/m(a, b) in canonical form."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import index
from typing import Iterable


@dataclass(frozen=True)
class WeightSystem:
    """A degree d together with the positive weights of the ambient
    weighted projective space: five for P4, at least three in general.
    A degree or weight that is not an integer raises TypeError: 5.9 is not
    read as 5."""

    degree: int
    weights: tuple[int, ...]

    def __init__(self, degree: int, weights: Iterable[int]) -> None:
        weights = tuple(map(index, weights))
        degree = index(degree)
        if len(weights) < 3 or min(weights) <= 0:
            raise ValueError("a weight system needs at least three positive weights")
        if degree < max(weights):
            raise ValueError("degree must be at least the largest weight")
        if gcd(*weights) != 1:
            raise ValueError("weights must be globally coprime")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "weights", weights)

    def __str__(self) -> str:
        return f"X_{self.degree} in P{self.weights}"

    def require_p4(self) -> None:
        """Raise ValueError unless the ambient space is weighted P4."""
        if len(self.weights) != 5:
            raise ValueError(f"five weights needed for weighted P4: {self}")


def _least_orbit_point(m: int, a: int, b: int) -> tuple[int, int]:
    """The least (u*a mod m, u*b mod m) over the units u modulo m, for
    0 <= a, b < m with gcd(a, b, m) = 1.

    The least first coordinate is g = gcd(a, m) (0 when a = 0), reached by
    the units u = u0 + k*n with n = m/g, u0 = (a/g)^-1 mod n and 0 <= k < g.
    With u0*b mod m = c0 + n*c1, such a u sends b to c0 + n*((c1 + k*b) mod g),
    and b is a unit modulo g, so the second coordinate c0 + n*t is reached by
    k = (t - c1) * b^-1 mod g.  Walking t up from 0, only the primes of g can
    make u0 + k*n a non-unit, each for one residue class of t, so the first
    unit comes after a few steps.
    """
    g = gcd(a, m)
    n = m // g
    u0 = pow(a // g, -1, n)
    c1, c0 = divmod(u0 * b % m, n)
    b_inv = pow(b, -1, g)
    t = 0
    while gcd(u0 + (t - c1) * b_inv % g * n, m) != 1:
        t += 1
    return g % m, c0 + n * t


def _canonical_quotient(order: int, a: int, b: int) -> tuple[int, tuple[int, int]]:
    """Reduce 1/m(a, b) to a faithful action and pick the lexicographically
    minimal representative under coordinate swap and generator rescaling."""
    g = gcd(a, b, order)
    m = order // g
    a = a % order // g
    b = b % order // g
    if m < 2:
        raise ValueError("quotient order must be at least 2")
    return m, min(_least_orbit_point(m, a, b), _least_orbit_point(m, b, a))


@dataclass(frozen=True)
class CyclicQuotientType:
    """The cyclic quotient surface germ of type 1/m(a, b).

    Instances are stored in canonical form: (a, b) is the lexicographically
    minimal pair among swaps and unit rescalings of the generator, so that
    e.g. 1/3(2, 1) and 1/3(1, 2) compare equal.  The canonical form costs
    two modular inverses per orientation and a walk of a few gcds, so it
    grows with the bit size of m, not with m.
    """

    order: int
    local_weights: tuple[int, int]

    def __init__(self, order: int, local_weights: tuple[int, int]) -> None:
        m, pair = _canonical_quotient(order, *local_weights)
        object.__setattr__(self, "order", m)
        object.__setattr__(self, "local_weights", pair)

    def __str__(self) -> str:
        a, b = self.local_weights
        return f"1/{self.order}({a},{b})"
