"""Weight systems of weighted projective spaces, with any n >= 3 weights,
and the cyclic quotient surface germs 1/m(a, b) in canonical form."""

from __future__ import annotations

from math import gcd
from operator import index
from typing import Iterable, NamedTuple


class WeightSystem(NamedTuple("WeightSystem", [("degree", int), ("weights", tuple[int, ...])])):
    """A degree d together with the positive weights of the ambient
    weighted projective space: five for P4, at least three in general.
    A degree or weight that is not an integer raises TypeError: 5.9 is not
    read as 5.  Immutable, compared and hashed as the pair (degree,
    weights)."""

    __slots__ = ()

    def __new__(cls, degree: int, weights: Iterable[int]) -> WeightSystem:
        weights = tuple(map(index, weights))
        degree = index(degree)
        if len(weights) < 3 or min(weights) <= 0:
            raise ValueError("a weight system needs at least three positive weights")
        if degree < max(weights):
            raise ValueError("degree must be at least the largest weight")
        if gcd(*weights) != 1:
            raise ValueError("weights must be globally coprime")
        return tuple.__new__(cls, (degree, weights))

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
    if (a + b) % m == 0:  # Gorenstein: a is a unit and the orbit is {(u, -u)}
        return m, (1, m - 1)
    return m, min(_least_orbit_point(m, a, b), _least_orbit_point(m, b, a))


class CyclicQuotientType(
    NamedTuple("CyclicQuotientType", [("order", int), ("local_weights", tuple[int, int])])
):
    """The cyclic quotient surface germ of type 1/m(a, b).

    Instances are stored in canonical form: (a, b) is the lexicographically
    minimal pair among swaps and unit rescalings of the generator, so that
    e.g. 1/3(2, 1) and 1/3(1, 2) compare equal.  The canonical form costs
    two modular inverses per orientation and a walk of a few gcds, so it
    grows with the bit size of m, not with m.

    A Gorenstein germ, a + b = 0 (mod m), is the A_{m-1} du Val point
    1/m(1, m - 1) and is read off without the walk: a is then a unit, so
    rescaling by its inverse gives (1, -1), and every unit u gives the
    orbit point (u, -u).  Every curve of the KS census is of this type.
    """

    __slots__ = ()

    def __new__(cls, order: int, local_weights: tuple[int, int]) -> CyclicQuotientType:
        return tuple.__new__(cls, _canonical_quotient(order, *local_weights))

    def __str__(self) -> str:
        a, b = self.local_weights
        return f"1/{self.order}({a},{b})"
