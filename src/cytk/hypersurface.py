"""Analysis of the general degree-d hypersurface X in P(w0, ..., w4):
wellformedness, quasismoothness, the trivial-canonical-class degree
condition, edge containment, the stratified singular locus, and the
positivity bound for the orbifold second Chern class.  Wellformedness,
quasismoothness and the degree condition take any number n of weights.

X is wellformed, so that adjunction computes its canonical class, when
any n - 1 of the n weights are coprime and the gcd of any n - 2 weights
divides d.  X is quasismooth iff

(1) every weight w_i divides d - w_j for some j (j = i allowed);
(2) every pair of weights partitions d - w_{j1} and d - w_{j2} for two
    distinct indices j1 != j2;
(3) every set of three or more weights partitions d.

``examine`` answers for weighted P4 and
``is_quasismooth_and_wellformed`` for any n >= 3.  Each tests condition
(1), which most candidate weight systems fail, first, and reads the rest
from one pass over the pairs of weights (``_pair_pass``), which tests
(2) and (3) only when (1) holds, so each criterion is written once.

The pass takes every pair gcd g = gcd(a, b) first.  For a pair a, b it
then tests whether a and b partition d (the edge on which they are free
lies in X unless they do; condition (3) reads the same answer) and each
d - w_j (condition (2), which asks for two indices, so the count stops at
the second hit).  A target t is a sum of a and b only if g divides t.
For coprime a' = a/g and b' = b/g, every n >= (a' - 1)(b' - 1) is a
non-negative combination of them (Sylvester), so every multiple of g from
the conductor c = (a - g)(b/g - 1) on is a sum of a and b.  Only a target
below c needs the inverse of a' modulo b', taken at most once a pair.
The gcd m of the other weights is read from the pair gcds: in P4 it is
gcd(g_kl, w_p) for the three free weights k, l, p of the two-face on
which a and b vanish.  m > 1 makes that two-face cut a singular curve of
order m, and m, a gcd of n - 2 weights, must divide d for
wellformedness, while gcd(m, a) and gcd(m, b), gcds of n - 1 weights,
must be 1.

Condition (3) is tested on the 3-subsets only: a weight added to a set
keeps every sum the set partitions, so a 3-subset that partitions d makes
each of its supersets partition d too.  For the same reason a 3-subset
one of whose pairs partitions d partitions d (the third weight taken zero
times), so ``arith.is_partitionable``, a walk of O(log d) rounds on the
three weights, runs only when no pair does."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, prod
from operator import itemgetter
from typing import NamedTuple

from cytk.arith import is_partitionable
from cytk.wps import CyclicQuotientType, WeightSystem


class NotCalabiYauError(ValueError):
    """The degree is not the sum of the weights."""


class ContainedEdge(NamedTuple):
    """An edge of P lying entirely inside X; it is a curve of X, singular
    when the two free weights share a factor."""

    zeroed: tuple[int, int, int]
    free_weights: tuple[int, int]
    singular: bool


class EdgePointLocus(NamedTuple):
    """A singular edge of P not contained in X; it meets X in finitely many
    singular points of local order ``order``."""

    zeroed: tuple[int, int, int]
    order: int


class SingularCurve(NamedTuple):
    """The curve cut on X by a singular two-face, with its transverse
    cyclic quotient type."""

    zeroed: tuple[int, int]
    quotient: CyclicQuotientType


class SingularLocusReport(NamedTuple):
    """Stratified description of the singular locus of the general X."""

    singular_vertices: tuple[int, ...]
    contained_edges: tuple[ContainedEdge, ...]
    edge_point_loci: tuple[EdgePointLocus, ...]
    singular_curves: tuple[SingularCurve, ...]

    @property
    def smooth_in_codim2(self) -> bool:
        """True iff the locus contains no curve: no singular two-face and
        no contained singular edge."""
        return not self.singular_curves and not any(
            e.singular for e in self.contained_edges
        )

    @property
    def contains_no_edge(self) -> bool:
        """True iff no edge of P (singular or not) lies in X."""
        return not self.contained_edges


class C2BoundReport(NamedTuple):
    """Exact lower bound d*(4q - 2s) / (10N) for c2_orb(X) . O_X(1), where
    N is the product of the weights, s their second elementary symmetric
    function and q the sum of their squares."""

    lower_bound: Fraction
    positive: bool


def is_calabi_yau_degree(ws: WeightSystem) -> bool:
    """True iff the degree equals the sum of the weights, so that the
    general hypersurface has trivial canonical class."""
    return ws.degree == sum(ws.weights)


def _pair_table(n: int) -> tuple[tuple[int, int, tuple[int, ...], itemgetter], ...]:
    """For each pair of coordinates i < j of n, in lex order: i, j, the
    other coordinates, and a getter of the pieces whose gcd is the gcd m
    of the other weights.  The getter reads the pair gcds followed by the
    weights (``_pair_pass``): the pieces are the gcd of each two
    consecutive other coordinates, and the weight of the last one when
    their count is odd, so m is one weight for n = 3, one pair gcd for
    n = 4, a pair gcd and a weight for n = 5 and two pair gcds for n = 6.
    The getter repeats its first position, so that it returns a tuple even
    for one piece."""
    pairs = list(combinations(range(n), 2))
    position = {pair: p for p, pair in enumerate(pairs)}
    table = []
    for i, j in pairs:
        rest = tuple(k for k in range(n) if k not in (i, j))
        pieces = [position[rest[s : s + 2]] for s in range(0, len(rest) - 1, 2)]
        if len(rest) % 2:
            pieces.append(len(pairs) + rest[-1])
        table.append((i, j, rest, itemgetter(*pieces, pieces[0])))
    return tuple(table)


def _triple_table(n: int) -> tuple[tuple[int, int, int, itemgetter], ...]:
    """For each 3-subset of n coordinates, in lex order: the positions of
    its three pairs in ``_pair_table(n)`` and a getter of its weights."""
    position = {pair: p for p, pair in enumerate(combinations(range(n), 2))}
    return tuple(
        (position[i, j], position[i, k], position[j, k], itemgetter(i, j, k))
        for i, j, k in combinations(range(n), 3)
    )


# The tables of weighted P4.  For the pair i < j, the edge on which i and
# j are free has the other three coordinates zeroed, and the two-face with
# i and j zeroed has the other three free.
_PAIRS = _pair_table(5)
_TRIPLES = _triple_table(5)


def _condition_1(weights: tuple[int, ...], targets: list[int]) -> bool:
    """Condition (1) of the quasismoothness criterion: every weight divides
    some target d - w_j."""
    for x in weights:
        for t in targets:
            if t % x == 0:
                break
        else:
            return False
    return True


def _pair_pass(
    ws: WeightSystem, quasismooth: bool
) -> tuple[bool, bool, list[tuple[int, bool, int, int]]]:
    """(wellformed, quasismooth, pairs) of n >= 3 weights, from one visit of
    each pair a, b of weights (see the module docstring), given the verdict
    of condition (1) of quasismoothness as ``quasismooth``: the caller
    tests it, and the pass goes on to (2) and (3) only if it holds.
    ``pairs`` holds, in the order of ``_pair_table``: g = gcd(a, b),
    whether a and b partition d, how many of the d - w_j they partition
    (up to two; 0 once quasismoothness has failed), and the gcd m of the
    other weights.

    Every g is taken before the visits, and m is the gcd of the pieces
    that ``_pair_table`` names among the g and the weights, so no gcd of
    more than two weights is taken.  The pair test is
    ``arith.is_pair_partitionable`` with g taken once: t = x*a + y*b with
    x, y >= 0 iff g divides t and the least x >= 0 with x*a = t (mod b),
    (t/g) * (a/g)^-1 mod b/g, leaves t - x*a >= 0.  Every multiple t of g
    from the conductor c = (a - g)(b/g - 1) on is such a sum, since for
    coprime a' and b' every n >= (a' - 1)(b' - 1) is a non-negative
    combination of them.  So the inverse is taken only for a target below
    c, and at most once a pair.
    """
    d, w = ws.degree, ws.weights
    n = len(w)
    pairs, triples = (_PAIRS, _TRIPLES) if n == 5 else (_pair_table(n), _triple_table(n))
    targets = [d - x for x in w]
    wellformed = True
    gcds = [gcd(w[i], w[j]) for i, j, _, _ in pairs]
    pieces = [*gcds, *w]
    found = []
    for (i, j, _, others), g in zip(pairs, gcds):
        a, b = w[i], w[j]
        step = b // g
        conductor = (a - g) * (step - 1)
        inverse = 0  # until taken; below c, step > 1, so a taken inverse is not 0
        on_d = d % g == 0 and (
            d >= conductor or d // g * (inverse := pow(a // g, -1, step)) % step * a <= d
        )
        hits = 0
        if quasismooth:
            for t in targets:
                if t % g == 0 and (
                    t >= conductor
                    or t // g * (inverse or (inverse := pow(a // g, -1, step))) % step * a
                    <= t
                ):
                    hits += 1
                    if hits == 2:
                        break
            else:
                quasismooth = False
        m = gcd(*others(pieces))
        if m > 1 and (d % m or gcd(m, a) > 1 or gcd(m, b) > 1):
            wellformed = False
        found.append((g, on_d, hits, m))
    if quasismooth:
        for p, q, r, three in triples:
            if not (
                found[p][1]
                or found[q][1]
                or found[r][1]
                or is_partitionable(d, three(w))
            ):
                quasismooth = False
                break
    return wellformed, quasismooth, found


def examine(ws: WeightSystem) -> tuple[bool, bool, SingularLocusReport]:
    """(wellformed, quasismooth, stratified singular locus) of the general X,
    from one pass over the ten pairs of weights.

    The stratification is the singular locus of X when X is quasismooth,
    a suborbifold of P.  It is computed without that precondition, so that
    it also describes records that fail a criterion.  An edge of P lies in
    X when its two free weights do not partition d.  Raises ValueError
    unless the weight system has five weights.
    """
    ws.require_p4()
    d, w = ws.degree, ws.weights
    wellformed, quasismooth, pairs = _pair_pass(ws, _condition_1(w, [d - x for x in w]))
    in_x = []
    point_loci = []
    curves = []
    for (i, j, zeroed, _), (g, on_d, _, m) in zip(_PAIRS, pairs):
        if not on_d:
            in_x.append(ContainedEdge(zeroed, (w[i], w[j]), g > 1))
        elif g > 1:
            point_loci.append(EdgePointLocus(zeroed, g))
        if m > 1:
            curves.append(SingularCurve((i, j), CyclicQuotientType(m, (w[i] % m, w[j] % m))))
    vertices = tuple([i for i, x in enumerate(w) if d % x])  # w_i > 1 not dividing d
    locus = SingularLocusReport(vertices, tuple(in_x), tuple(point_loci), tuple(curves))
    return wellformed, quasismooth, locus


def is_quasismooth_and_wellformed(ws: WeightSystem) -> bool:
    """True iff the general hypersurface of n >= 3 weights is quasismooth
    and wellformed: condition (1) is tested first and alone, and both
    verdicts are then read from one pair pass."""
    w = ws.weights
    return _condition_1(w, [ws.degree - x for x in w]) and all(_pair_pass(ws, True)[:2])


def c2_lower_bound(ws: WeightSystem) -> C2BoundReport:
    """Exact lower bound for c2_orb(X) . O_X(1) when d = sum of weights.

    The bound is d*(4q - 2s)/(10N) = d * sum_{i<j} (w_i - w_j)^2 / (10N);
    it is strictly positive unless all the weights are equal.  Raises
    ValueError unless the weight system has five weights.
    """
    ws.require_p4()
    if not is_calabi_yau_degree(ws):
        raise NotCalabiYauError(f"degree is not the weight sum: {ws}")
    w = ws.weights
    d = ws.degree
    q = sum(x * x for x in w)
    s = sum(w[i] * w[j] for i, j in combinations(range(5), 2))
    n = prod(w)
    bound = Fraction(d * (4 * q - 2 * s), 10 * n)
    return C2BoundReport(lower_bound=bound, positive=len(set(w)) > 1)
