"""Finite groups of affine automorphisms of a complex 2-torus, in lattice
coordinates, and the du Val multiset of the quotient surface.

An automorphism is a pair (M, t): a 4x4 integer matrix acting on the rank-4
lattice plus a rational translation class mod Z^4.  Validation enforces the
constraints satisfied by canonical quotients: element orders in {1,2,3,4,6},
no non-trivial translations, at most one involution, and linear parts whose
characteristic polynomial is the realification of an SL(2,C) element of the
right order.  The complex structure itself is never represented.

Generators are read as pairs of an integer matrix and a tuple of Fraction,
the only Fractions the module holds.  An action works over one
denominator, 6 * D for D the lcm of its generators' translation
denominators: an integral M maps (1/(6 D)) Z^4 into itself, so every
element is a pair (M, numerators of t over 6 * D) of integer tuples, with
M flattened row by row to 16 entries, on which each 4x4 product and each
image is one written-out expression.  Those pairs, ``TorusAction.elements``,
are the group's one form.  The closure, by cosets at about one product
an element, the element orders, the fixed points and the orbits run on
them only, and the last three use what validation fixes: an element's
order is read off the traces tr M and tr M^2 of its linear part, and an
element of prime order p = 2 or 3 has its fixed points in closed form,
with denominators dividing p * D and so 6 * D.  An orbit's least point is
found as numerators over 6 * D and kept as ``Orbit.coordinates``, each
coordinate reduced once to its lowest terms.
"""

from __future__ import annotations

import json
import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product
from math import gcd, lcm
from numbers import Rational
from typing import Iterable, Mapping, NamedTuple, Sequence

from cytk.surface import REALIZED, DuValMultiset, DuValType

IntMatrix = tuple[tuple[int, ...], ...]
# A 4x4 integer matrix as its 16 entries, row by row.
FlatMatrix = tuple[int, ...]
Point = tuple[Fraction, Fraction, Fraction, Fraction]
# Numerators of a translation or a point over its action's denominator.
Numerators = tuple[int, ...]

# The largest closure accepted.  A valid group is a finite subgroup of
# SL(2,C) with element orders in {1, 2, 3, 4, 6}: cyclic, binary dihedral
# of order 8 or 12, or binary tetrahedral, so it has at most 24 elements,
# and the bound only stops the closure of an infinite group.
CAP = 48
# The largest common translation denominator D accepted.  An action works
# over 6 * D, its orbit representatives are printed over divisors of it,
# and Python prints an int of at most 4300 digits; 6 * 2**14000 has 4216.
DENOMINATOR_BITS = 14000

# The realifications of SL(2,C) elements of each finite order, (x-1)^4,
# (x+1)^4, (x^2+x+1)^2, (x^2+1)^2 and (x^2-x+1)^2, are the only
# characteristic polynomials a canonical linear part may have.  A linear
# part of finite order has a product of cyclotomic polynomials of total
# degree 4 as its characteristic polynomial, one of 24 (Phi_n for n in
# {1, 2, 3, 4, 5, 6, 8, 10, 12}), and each canonical polynomial is the only
# one of them with its first two power sums (tr M, tr M^2), so those are
# what is compared.  The keys are the allowed element orders.
_CANONICAL_POWER_SUMS = {1: (4, 4), 2: (-4, 4), 3: (-2, -2), 4: (0, -4), 6: (2, -2)}
_CANONICAL_ORDERS = {sums: n for n, sums in _CANONICAL_POWER_SUMS.items()}


class ActionValidationError(ValueError):
    """The generated transformation set is not a canonical torus action."""


_IDENTITY: FlatMatrix = (1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1)
# The column span of I mod 2: every vector of 0s and 1s.
_BINARY = tuple(product((0, 1), repeat=4))


def _flat(linear: IntMatrix) -> FlatMatrix:
    r0, r1, r2, r3 = linear
    return (*r0, *r1, *r2, *r3)


def _mat_mul(a: FlatMatrix, b: FlatMatrix) -> FlatMatrix:
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15 = b
    return (
        a0 * b0 + a1 * b4 + a2 * b8 + a3 * b12,
        a0 * b1 + a1 * b5 + a2 * b9 + a3 * b13,
        a0 * b2 + a1 * b6 + a2 * b10 + a3 * b14,
        a0 * b3 + a1 * b7 + a2 * b11 + a3 * b15,
        a4 * b0 + a5 * b4 + a6 * b8 + a7 * b12,
        a4 * b1 + a5 * b5 + a6 * b9 + a7 * b13,
        a4 * b2 + a5 * b6 + a6 * b10 + a7 * b14,
        a4 * b3 + a5 * b7 + a6 * b11 + a7 * b15,
        a8 * b0 + a9 * b4 + a10 * b8 + a11 * b12,
        a8 * b1 + a9 * b5 + a10 * b9 + a11 * b13,
        a8 * b2 + a9 * b6 + a10 * b10 + a11 * b14,
        a8 * b3 + a9 * b7 + a10 * b11 + a11 * b15,
        a12 * b0 + a13 * b4 + a14 * b8 + a15 * b12,
        a12 * b1 + a13 * b5 + a14 * b9 + a15 * b13,
        a12 * b2 + a13 * b6 + a14 * b10 + a15 * b14,
        a12 * b3 + a13 * b7 + a14 * b11 + a15 * b15,
    )


def _image(
    linear: FlatMatrix, shift: Numerators, vector: Numerators, den: int
) -> Numerators:
    """M v + t mod Z^4, with v and t given by their numerators over den."""
    m0, m1, m2, m3, m4, m5, m6, m7, m8, m9, m10, m11, m12, m13, m14, m15 = linear
    t0, t1, t2, t3 = shift
    v0, v1, v2, v3 = vector
    return (
        (m0 * v0 + m1 * v1 + m2 * v2 + m3 * v3 + t0) % den,
        (m4 * v0 + m5 * v1 + m6 * v2 + m7 * v3 + t1) % den,
        (m8 * v0 + m9 * v1 + m10 * v2 + m11 * v3 + t2) % den,
        (m12 * v0 + m13 * v1 + m14 * v2 + m15 * v3 + t3) % den,
    )


def _traces(linear: FlatMatrix) -> tuple[int, int]:
    """(tr M, tr M^2), tr M^2 being the sum of M_ij M_ji over all i, j."""
    m0, m1, m2, m3, m4, m5, m6, m7, m8, m9, m10, m11, m12, m13, m14, m15 = linear
    return (
        m0 + m5 + m10 + m15,
        m0 * m0 + m5 * m5 + m10 * m10 + m15 * m15
        + 2 * (m1 * m4 + m2 * m8 + m3 * m12 + m6 * m9 + m7 * m13 + m11 * m14),
    )


def _order(linear: FlatMatrix, shift: Numerators, den: int) -> int:
    """The order n of g = (M, t) of finite order, t given by its numerators
    over den, by walking its powers."""
    power, power_shift, n = linear, shift, 1
    while power != _IDENTITY or any(power_shift):
        power_shift = _image(power, power_shift, shift, den)
        power = _mat_mul(power, linear)
        n += 1
    return n


def _determinant(linear: IntMatrix) -> int:
    """det M of a 4x4 matrix, by Laplace expansion along its first two rows:
    the sum of each 2x2 minor there times its signed complementary minor."""
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = linear
    return (
        (a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
        - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
        + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
        + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
        - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
        + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0)
    )


@dataclass(frozen=True)
class AffineTorusMap:
    """A generator x -> M x + t of the torus R^4 / Z^4 as read, with M
    integral of determinant +-1 and t taken mod Z^4.  Groups are closed
    and solved on the integer pairs of ``TorusAction.elements``."""

    linear: IntMatrix
    translation: Point

    def __post_init__(self) -> None:
        linear = tuple(tuple(map(operator.index, row)) for row in self.linear)
        if len(linear) != 4 or any(len(r) != 4 for r in linear):
            raise ValueError("linear part must be a 4x4 integer matrix")
        if abs(_determinant(linear)) != 1:
            raise ValueError("linear part must be unimodular")
        for t in self.translation:  # a float is not read as its binary fraction
            if not isinstance(t, Rational):
                raise TypeError(f"{type(t).__name__!r} object is not a rational number")
        translation = tuple(  # a Fraction already in [0, 1) is kept as it is
            t
            if type(t) is Fraction and 0 <= t.numerator < t.denominator
            else Fraction(t.numerator % t.denominator, t.denominator)
            for t in self.translation
        )
        if len(translation) != 4:
            raise ValueError("translation must have 4 coordinates")
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "translation", translation)


def _fixed_numerators(
    linear: FlatMatrix, shift: Numerators, den: int, p: int
) -> list[Numerators]:
    """The fixed points of a validated element (M, t) of prime order p = 2
    or 3, t given by its numerators T over den, 6 times a denominator of t:
    the solutions of (M - I) x = -t mod Z^4, as numerators over den.

    B = I for p = 2, where M = -I, and B = M + 2I for p = 3, where
    M^2 + M + I = 0; in both cases (M - I) B = -p I.  So x is fixed iff
    x = B (t + w) / p for some w in Z^4, and its numerators are B T / p +
    (den / p) v mod den for v in the column span of B mod p: 16 points for
    p = 2 and 9 for p = 3.  6 divides T, so B T reduced mod p * den divides
    by p exactly."""
    if p == 2:
        image, span = shift, _BINARY
    else:
        b = tuple(x + 2 * i for x, i in zip(linear, _IDENTITY))
        image = _image(b, (0, 0, 0, 0), shift, 3 * den)
        # A column outside the span so far triples it: the span plus 0, 1 or
        # 2 times the column are disjoint cosets.
        span = [(0, 0, 0, 0)]
        for y0, y1, y2, y3 in (b[0::4], b[1::4], b[2::4], b[3::4]):
            if (y0 % 3, y1 % 3, y2 % 3, y3 % 3) not in span:
                span = [
                    ((x0 + k * y0) % 3, (x1 + k * y1) % 3, (x2 + k * y2) % 3, (x3 + k * y3) % 3)
                    for x0, x1, x2, x3 in span
                    for k in range(3)
                ]
    t0, t1, t2, t3 = (t // p for t in image)
    q = den // p
    return [
        ((t0 + q * v0) % den, (t1 + q * v1) % den, (t2 + q * v2) % den, (t3 + q * v3) % den)
        for v0, v1, v2, v3 in span
    ]


@dataclass(frozen=True)
class TorusAction:
    """A validated finite group of affine torus automorphisms.
    ``elements`` holds its elements in sorted order as pairs (M, T): M is
    the linear part flattened row by row to its 16 entries, and T the
    translation's numerators over ``denominator``, 6 times the generators'
    common denominator, each in [0, denominator).  ``orders[i]`` is the
    order of the i-th element."""

    label: str
    generators: tuple[AffineTorusMap, ...]
    elements: tuple[tuple[FlatMatrix, Numerators], ...]
    denominator: int
    orders: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def close_group(generators: Iterable[AffineTorusMap], label: str = "") -> TorusAction:
    """Close the generators under composition and validate the result.

    The closure is Dimino's, by cosets: for each generator g not yet in the
    subgroup H that those before it generate, the right coset H*g is added,
    one product per new element, and each coset representative is
    multiplied by each generator that enlarged H, a product not yet in the
    group adding its coset at once.  A cyclic group G costs |G| - 1
    products and the binary tetrahedral group 28.  Each generator that
    enlarges H at least doubles it, so an infinite group is rejected after
    fewer than 10 * ``CAP`` products, and an element reached by a word of
    length k has entries of bit size O(k).  All of it runs on integer
    tuples over 6 times the generators' common denominator, the action's
    denominator, with each linear part flattened once, here, to 16 entries.

    Each element's order is then read off the traces (tr M, tr M^2) of its
    linear part M and kept on the action.  An element of the finite group
    has finite order, so M is diagonalizable and its characteristic
    polynomial a product of cyclotomic polynomials, which traces equal to
    ``_CANONICAL_POWER_SUMS[n]`` fix (see there), and with it the
    eigenvalues of M: n is the order of M.  When G holds no non-trivial
    translation, g^n = (I, t) lies in G and so is the identity, and n is
    the order of g.  Otherwise, and for an element whose traces are not
    canonical, the order is found by walking its powers; such an element
    fails the order test or the SL(2,C) test.

    Raises ActionValidationError when the translations' common denominator
    exceeds ``DENOMINATOR_BITS`` bits, the closure exceeds ``CAP`` elements,
    is the trivial group, contains several involutions, contains a
    non-trivial translation, has an element of order outside {1,2,3,4,6},
    or has a linear part that is not the realification of an SL(2,C)
    element of matching order.
    """
    generators = tuple(generators)
    # The lcm is refused as soon as it passes the bound, before it grows to
    # the product of many wide denominators.
    den = 1
    for g in generators:
        for t in g.translation:
            den = lcm(den, t.denominator)
            if den.bit_length() > DENOMINATOR_BITS:
                raise ActionValidationError(
                    f"translation denominator over {DENOMINATOR_BITS} bits"
                )
    den *= 6
    steps = [
        (_flat(g.linear), tuple(t.numerator * (den // t.denominator) for t in g.translation))
        for g in generators
    ]
    identity = (_IDENTITY, (0, 0, 0, 0))
    elements = {identity}
    enlarging = []
    for step in steps:
        if step in elements:
            continue
        enlarging.append(step)
        subgroup = elements - {identity}  # H; the identity times a word is the word
        words = [step]  # step, then each representative's products with `enlarging`
        for word in words:
            if word in elements:
                continue
            linear, shift = word
            elements.add(word)
            elements.update((_mat_mul(h, linear), _image(h, t, shift, den)) for h, t in subgroup)
            if len(elements) > CAP:
                raise ActionValidationError(f"not finite within cap {CAP}")
            words += [(_mat_mul(linear, g), _image(linear, shift, t, den)) for g, t in enlarging]
    if len(elements) == 1:
        raise ActionValidationError("trivial group: the quotient is the torus itself")

    # Numerators over one denominator sort as the fractions they stand for,
    # and a flat matrix as its rows do.
    ordered = sorted(elements)
    translated = any(linear == _IDENTITY and any(shift) for linear, shift in ordered)
    # Every element of the finite group has finite order, and the
    # involutions are exactly the elements of order 2.
    orders = []
    walks = []
    for linear, shift in ordered:
        n = None if translated else _CANONICAL_ORDERS.get(_traces(linear))
        if n is None:
            n = _order(linear, shift, den)
            walks.append(n)
        orders.append(n)
    involutions = orders.count(2)
    if involutions > 1:
        raise ActionValidationError(f"multiple involutions ({involutions})")
    if translated:
        raise ActionValidationError("contains nontrivial translation")
    # Without translations n is also the order of M.  A walked element's
    # traces are canonical for no order, so n is forbidden or M fails
    # the SL(2,C) test, and the first walked element decides.
    if walks:
        n = walks[0]
        if n not in _CANONICAL_POWER_SUMS:
            raise ActionValidationError(f"element of forbidden order {n}")
        raise ActionValidationError(
            f"linear part of an order-{n} element is not an SL(2,C) realification"
        )
    return TorusAction(
        label=label,
        generators=generators,
        elements=tuple(ordered),
        denominator=den,
        orders=tuple(orders),
    )


# Recognition of stabilizer subgroups by their sorted element orders;
# within the validated orders this separates the possible classes uniquely.
_STABILIZER_CLASSES: Mapping[tuple[int, ...], tuple[str, DuValType]] = {
    (1, 2): ("Z2", DuValType("A", 1)),
    (1, 3, 3): ("Z3", DuValType("A", 2)),
    (1, 2, 4, 4): ("Z4", DuValType("A", 3)),
    (1, 2, 3, 3, 6, 6): ("Z6", DuValType("A", 5)),
    (1, 2, *[4] * 6): ("BD8", DuValType("D", 4)),
    (1, 2, 3, 3, *[4] * 6, 6, 6): ("BD12", DuValType("D", 5)),
    (1, 2, *[3] * 8, *[4] * 6, *[6] * 8): ("BT24", DuValType("E", 6)),
}


class Orbit(NamedTuple):
    """One orbit of singular points with its stabilizer data.  Its least
    point is ``coordinates``: each coordinate x in [0, 1) as the pair
    (numerator, denominator) in lowest terms, as a Fraction holds it."""

    coordinates: tuple[tuple[int, int], ...]
    size: int
    stabilizer_order: int
    stabilizer_class: str
    du_val: DuValType


@dataclass(frozen=True)
class QuotientReport:
    label: str
    group_order: int
    orbits: tuple[Orbit, ...]
    multiset: DuValMultiset


def quotient_singularities(action: TorusAction) -> QuotientReport:
    """Collect the fixed points of all non-identity elements, group them
    into orbits, and read each orbit's du Val type off its stabilizer.

    Only the elements of prime order are solved for: a fixed point of g is
    fixed by every power of g, and each non-identity element has a power
    of order 2 or 3.  Of an element g of order 3 and its inverse g^2, which
    fix the same points, only the first is solved for.

    An element of order p has its fixed points in closed form, as
    numerators over the action's denominator (see ``_fixed_numerators``),
    which the translations are given over too.  So orbits and stabilizers
    are found on integer tuples, and each orbit's least point is reduced
    to lowest terms once, as it is kept."""
    den = action.denominator
    points = set()
    inverses = set()
    for (linear, shift), n in zip(action.elements, action.orders):
        if n in (2, 3) and (linear, shift) not in inverses:
            points.update(_fixed_numerators(linear, shift, den, n))
            inverses.add((_mat_mul(linear, linear), _image(linear, shift, shift, den)))

    # The orbits in the order of their least points.  An image of a point
    # fixed by g is fixed by a conjugate of g, so each orbit lies in points,
    # and a point of the one sorted pass not yet in an orbit is the least
    # point of its own.
    orbits: list[Orbit] = []
    for point in sorted(points):
        if point not in points:
            continue
        images = [_image(linear, shift, point, den) for linear, shift in action.elements]
        orbit = set(images)
        points -= orbit
        stabilizer = [n for image, n in zip(images, action.orders) if image == point]
        if len(orbit) * len(stabilizer) != action.order:
            raise ActionValidationError("orbit-stabilizer mismatch")
        key = tuple(sorted(stabilizer))
        if key not in _STABILIZER_CLASSES:
            raise ActionValidationError(f"unrecognized stabilizer {key}")
        name, du_val = _STABILIZER_CLASSES[key]
        coordinates = tuple((x // (g := gcd(x, den)), den // g) for x in point)
        orbits.append(Orbit(coordinates, len(orbit), len(stabilizer), name, du_val))
    multiset = DuValMultiset(tuple((orbit.du_val, 1) for orbit in orbits))
    return QuotientReport(
        label=action.label,
        group_order=action.order,
        orbits=tuple(orbits),
        multiset=multiset,
    )


def _linear(rows: Sequence[Sequence[int]]) -> AffineTorusMap:
    return AffineTorusMap(rows, (0, 0, 0, 0))


def _block_diag(b1: Sequence[Sequence[int]], b2: Sequence[Sequence[int]]) -> list[list[int]]:
    return [[*row, 0, 0] for row in b1] + [[0, 0, *row] for row in b2]

# Factor-swap with a sign: (z1, z2) -> (z2, -z1).  Integral whenever both
# factors use the same lattice basis.
_SWAP = [
    [0, 0, 1, 0],
    [0, 0, 0, 1],
    [-1, 0, 0, 0],
    [0, -1, 0, 0],
]

# Multiplication matrices on C/(Z + Z*tau) in the basis (1, tau):
#   tau = j  (j^2 = -1 - j, a primitive cube root of unity)
_MUL_J = [[0, -1], [1, -1]]
_MUL_J2 = [[-1, 1], [-1, 0]]
#   tau = omega  (omega^2 = omega - 1, a primitive sixth root of unity)
_MUL_W = [[0, -1], [1, 1]]
_MUL_W_INV = [[1, 1], [-1, 0]]
#   tau = i (Gaussian lattice)
_MUL_I = [[0, -1], [1, 0]]
_MUL_I_INV = [[0, 1], [-1, 0]]

# The lattice L8 of C^2 spanned by (1,1), (1,-1), (i-1,0), (0,i-1), in that
# basis: the multiplications a: (z1,z2) -> (i z1, -i z2), the factor swap
# b: (z1,z2) -> (z2, -z1), and c, one sixth of the binary tetrahedral group.
_L8_A = [
    [0, 1, -1, 1],
    [1, 0, -1, -1],
    [1, 1, -1, 0],
    [-1, 1, 0, 1],
]
_L8_B = [
    [0, -1, 0, 0],
    [1, 0, 0, 0],
    [0, 0, 0, 1],
    [0, 0, -1, 0],
]
_L8_C = [
    [1, 1, -1, 0],
    [0, 0, 0, -1],
    [1, 0, 0, -1],
    [0, 1, 0, 1],
]
# (1, 0) and (1/2, -i/2) of C^2 in L8 coordinates.
_L8_SHIFT_B = (Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0))
_L8_SHIFT_C = (Fraction(0), Fraction(1, 2), Fraction(0), Fraction(-1, 2))


def _builtin_generators() -> dict[str, tuple[AffineTorusMap, ...]]:
    neg_id = _linear([[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
    swap = _linear(_SWAP)
    l8_a = _linear(_L8_A)
    l8_b = _linear(_L8_B)
    l8_c = _linear(_L8_C)
    l8_b_shifted = AffineTorusMap(_L8_B, _L8_SHIFT_B)
    l8_c_shifted = AffineTorusMap(_L8_C, _L8_SHIFT_C)
    return {
        "kummer": (neg_id,),
        "z3-diagonal": (_linear(_block_diag(_MUL_J, _MUL_J2)),),
        "z4-square": (swap,),
        "z6-diagonal": (_linear(_block_diag(_MUL_W, _MUL_W_INV)),),
        "bd8-shifted": (l8_a, l8_b_shifted),
        "bd8-gaussian": (_linear(_block_diag(_MUL_I, _MUL_I_INV)), swap),
        "bd8-linear": (l8_a, l8_b),
        "bd12-linear": (swap, _linear(_block_diag(_MUL_W, _MUL_W_INV))),
        "bt24-shifted": (l8_a, l8_b_shifted, l8_c_shifted),
        "bt24-linear": (l8_a, l8_b, l8_c),
    }


_BUILTINS = _builtin_generators()

# The builtins realize the entries of surface.REALIZED, in its order.
BUILTIN_EXPECTED: dict[str, DuValMultiset] = {
    name: multiset for name, (_, _, multiset) in zip(_BUILTINS, REALIZED, strict=True)
}


def _builtin_specs() -> list[tuple[str, str, tuple[AffineTorusMap, ...]]]:
    """(name, expected multiset, generators) of each builtin action."""
    return [
        (name, str(BUILTIN_EXPECTED[name]), generators)
        for name, generators in _BUILTINS.items()
    ]


def builtin_actions() -> list[TorusAction]:
    """The ten named example actions realizing the classified quotient
    multisets, each validated on construction."""
    return [builtin_action(name) for name in _BUILTINS]


def builtin_action(name: str) -> TorusAction:
    if name not in _BUILTINS:
        raise KeyError(f"unknown builtin action {_shown(name)}")
    return close_group(_BUILTINS[name], label=name)


_JSON_TYPES = {list: "array", dict: "object", str: "string"}


def _shown(value: object) -> str:
    """A rejected value as JSON, cut after 40 characters and then led by its
    JSON type, so that a long or deeply nested value is not echoed whole:
    the encoder yields its text in pieces, and only the first are made."""
    text = "".join(islice(json.JSONEncoder().iterencode(value), 41))
    if len(text) <= 40:
        return text
    return f"{_JSON_TYPES.get(type(value), 'number')} {text[:40]}..."


def _json_member(value: object, key: str, what: str) -> object:
    """A member of a part of the description that JSON must give as an
    object: a list or a string is not indexed by the key."""
    if not isinstance(value, dict):
        raise TypeError(f"{what} {_shown(value)} is not an object")
    if key not in value:
        raise ValueError(f'{what} has no "{key}" member')
    return value[key]


def _json_list(value: object, what: str) -> list:
    """A part of the description that JSON must give as an array: a string
    is not read character by character, nor an object by its keys."""
    if not isinstance(value, list):
        raise TypeError(f"{what} {_shown(value)} is not a list")
    return value


def _linear_entry(value: object) -> int:
    """A linear-part entry, which JSON must give as an integer: a float is
    not truncated and ``true`` is not read as 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"linear entry {_shown(value)} is not an integer")
    return value


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _translation_entry(value: object) -> Fraction:
    """A translation coordinate, which JSON must give as an integer or "p/q"
    string, as one Fraction in [0, 1): a float is not read as the binary
    fraction it rounds to, and an exponent such as "1e-5000" is not
    expanded to its digits."""
    match = isinstance(value, str) and _RATIONAL.fullmatch(value)
    if not match:
        raise TypeError(f'translation entry {_shown(value)} is not a "p/q" string')
    numerator, denominator = match.groups()
    try:
        p, q = int(numerator), int(denominator or 1)
        return Fraction(p % q, q)  # taken mod Z, as AffineTorusMap keeps it
    except ValueError:  # the digits are over int's limit
        raise ValueError(
            f"translation entry {_shown(value)} has an integer over "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None


def action_from_json(data: dict) -> TorusAction:
    """Build a validated action from the JSON form
    {"label": str, "generators": [{"linear": [[int;4];4],
    "translation": ["p/q";4]}]}."""
    if not isinstance(data, dict):
        raise ActionValidationError("malformed action description: not a JSON object")
    try:
        label = data.get("label", "")
        if not isinstance(label, str):
            raise TypeError(f"label must be a string, got {_shown(label)}")
        try:
            label.encode()  # JSON can give a lone surrogate, which no reply can print
        except UnicodeEncodeError:
            raise ValueError(f"label {_shown(label)} is not encodable as UTF-8") from None
        generators = [
            AffineTorusMap(
                tuple(
                    tuple(_linear_entry(x) for x in _json_list(row, "linear row"))
                    for row in _json_list(
                        _json_member(entry, "linear", "generator"), "linear part"
                    )
                ),
                tuple(
                    _translation_entry(t)
                    for t in _json_list(
                        _json_member(entry, "translation", "generator"), "translation"
                    )
                ),
            )
            for entry in _json_list(_json_member(data, "generators", "action"), "generators")
        ]
    except ZeroDivisionError as exc:
        raise ActionValidationError(
            "malformed action description: zero denominator in a translation"
        ) from exc
    except (TypeError, ValueError) as exc:
        raise ActionValidationError(f"malformed action description: {exc}") from exc
    return close_group(generators, label=label)


def _json_integer(text: str) -> int:
    """A JSON integer, read as json reads it; one that int refuses, for its
    digits are over int's limit, is named as ``_shown`` names a number."""
    try:
        return int(text)
    except ValueError:
        raise ActionValidationError(
            f"malformed action description: number {text[:40]}... has over "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None


def load_action(path: str) -> TorusAction:
    with open(path, encoding="utf-8-sig") as handle:  # skips a byte-order mark
        text = handle.read()
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # A RecursionError is the decoder's answer to deep nesting.
        raise ActionValidationError(f"invalid JSON: {exc}") from exc
    except ValueError:
        # Only int's digit limit raises a plain ValueError here; a second read
        # through a hook, which every integer would pay for, names the number.
        data = json.loads(text, parse_int=_json_integer)
    return action_from_json(data)
