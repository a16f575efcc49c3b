"""The weighted projective space P(w0, ..., w4), its coordinate strata and
their quotient singularities; a weight system takes any n >= 3 weights."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd
from typing import Iterator, Union


@dataclass(frozen=True)
class WeightSystem:
    """A degree d together with the positive weights of the ambient
    weighted projective space: five for P4, at least three in general."""

    degree: int
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        weights = tuple(int(w) for w in self.weights)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "degree", int(self.degree))
        if len(weights) < 3 or any(w <= 0 for w in weights):
            raise ValueError("a weight system needs at least three positive weights")
        if self.degree < max(weights):
            raise ValueError("degree must be at least the largest weight")
        if gcd(*weights) != 1:
            raise ValueError("weights must be globally coprime")

    def __str__(self) -> str:
        return f"X_{self.degree} in P{self.weights}"

    def require_p4(self) -> None:
        """Raise ValueError unless the ambient space is weighted P4."""
        if len(self.weights) != 5:
            raise ValueError(f"five weights needed for weighted P4: {self}")


_KINDS = {4: "vertex", 3: "edge", 2: "two-face"}


@dataclass(frozen=True)
class Stratum:
    """A coordinate stratum of P, recorded by its set of vanishing
    coordinates: 4 zeroed coordinates give a vertex, 3 an edge, 2 a
    two-face."""

    zeroed: tuple[int, ...]

    def __post_init__(self) -> None:
        zeroed = tuple(sorted(int(i) for i in self.zeroed))
        object.__setattr__(self, "zeroed", zeroed)
        if len(set(zeroed)) != len(zeroed) or not 2 <= len(zeroed) <= 4:
            raise ValueError("a stratum zeroes 2, 3 or 4 distinct coordinates")
        if any(i < 0 or i > 4 for i in zeroed):
            raise ValueError("coordinate indices run from 0 to 4")

    @property
    def kind(self) -> str:
        return _KINDS[len(self.zeroed)]

    @property
    def free(self) -> tuple[int, ...]:
        return tuple(i for i in range(5) if i not in self.zeroed)


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
    m = order
    a %= m
    b %= m
    g = gcd(a, b, m)
    if g > 1:
        m //= g
        a = (a // g) % m
        b = (b // g) % m
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

    def __post_init__(self) -> None:
        m, pair = _canonical_quotient(int(self.order), *map(int, self.local_weights))
        object.__setattr__(self, "order", m)
        object.__setattr__(self, "local_weights", pair)

    def __str__(self) -> str:
        a, b = self.local_weights
        return f"1/{self.order}({a},{b})"


StratumSingularity = Union[None, int, CyclicQuotientType]


def stratum_singularity(ws: WeightSystem, stratum: Stratum) -> StratumSingularity:
    """Quotient-singularity data of the ambient space along a stratum.

    A two-face whose three free weights have gcd m > 1 meets the general
    hypersurface in a curve of transverse type 1/m(w_i mod m, w_j mod m),
    where i, j are the zeroed coordinates; that type is returned.  Singular
    edges and vertices only carry their local group order, returned as an
    int marker.  Non-singular strata give None.  Raises ValueError unless
    the weight system has five weights.
    """
    ws.require_p4()
    w = ws.weights
    if stratum.kind == "vertex":
        weight = w[stratum.free[0]]
        return weight if weight > 1 else None
    if stratum.kind == "edge":
        m = gcd(*(w[i] for i in stratum.free))
        return m if m > 1 else None
    m = gcd(*(w[i] for i in stratum.free))
    if m == 1:
        return None
    i, j = stratum.zeroed
    return CyclicQuotientType(m, (w[i] % m, w[j] % m))


def all_strata() -> Iterator[Stratum]:
    """The 10 two-faces, 10 edges and 5 vertices, by (size, lex) order."""
    for size in (2, 3, 4):
        for zeroed in combinations(range(5), size):
            yield Stratum(zeroed)


def singular_strata(
    ws: WeightSystem,
) -> list[tuple[Stratum, Union[int, CyclicQuotientType]]]:
    """All strata along which the ambient space is singular, with their
    singularity data, in deterministic (size, lex) order."""
    found = []
    for stratum in all_strata():
        data = stratum_singularity(ws, stratum)
        if data is not None:
            found.append((stratum, data))
    return found
