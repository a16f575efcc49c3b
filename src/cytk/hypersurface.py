"""Analysis of the general degree-d hypersurface X in P(w0, ..., w4):
wellformedness, quasismoothness, the trivial-canonical-class degree
condition, edge containment, the stratified singular locus, and the
positivity bound for the orbifold second Chern class.  Wellformedness,
quasismoothness and the degree condition take any number of weights.

Wellformedness, quasismoothness and the singular locus come from one pass
over the pairs of weights (``examine``).  For a pair a, b it takes
g = gcd(a, b) and the inverse of a/g modulo b/g once, and with them tests
whether a and b partition d (the edge on which they are free lies in X
unless they do; condition (3) of quasismoothness reads the same answer)
and each d - w_j (condition (2), which asks for two indices j, so the
count stops at the second hit).  It also takes once the gcd m of the other
weights: m > 1 makes the two-face on which a and b vanish cut a singular
curve of order m, and m, a gcd of n - 2 weights, must divide d for
wellformedness, while gcd(m, a) and gcd(m, b), gcds of n - 1 weights, must
be 1.  ``is_quasismooth``, ``is_wellformed_hypersurface``,
``is_quasismooth_and_wellformed`` and ``singular_locus`` read that pass,
so each criterion is written once."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, prod
from operator import itemgetter

from cytk.arith import is_partitionable
from cytk.wps import CyclicQuotientType, WeightSystem


class NotQuasismoothError(ValueError):
    """The general hypersurface of this weight system is not quasismooth."""


class NotCalabiYauError(ValueError):
    """The degree is not the sum of the weights."""


@dataclass(frozen=True)
class ContainedEdge:
    """An edge of P lying entirely inside X; it is a curve of X, singular
    when the two free weights share a factor."""

    zeroed: tuple[int, int, int]
    free_weights: tuple[int, int]
    singular: bool


@dataclass(frozen=True)
class EdgePointLocus:
    """A singular edge of P not contained in X; it meets X in finitely many
    singular points of local order ``order``."""

    zeroed: tuple[int, int, int]
    order: int


@dataclass(frozen=True)
class SingularCurve:
    """The curve cut on X by a singular two-face, with its transverse
    cyclic quotient type."""

    zeroed: tuple[int, int]
    quotient: CyclicQuotientType


@dataclass(frozen=True)
class SingularLocusReport:
    """Stratified description of the singular locus of the general X."""

    singular_vertices: tuple[int, ...]
    contained_edges: tuple[ContainedEdge, ...]
    edge_point_loci: tuple[EdgePointLocus, ...]
    singular_curves: tuple[SingularCurve, ...]

    @property
    def is_empty(self) -> bool:
        return not (
            self.singular_vertices
            or self.contained_edges
            or self.edge_point_loci
            or self.singular_curves
        )

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


@dataclass(frozen=True)
class C2BoundReport:
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
    other coordinates, and a getter of the other weights.  The getter
    repeats its first index, so that it returns a tuple even when one
    coordinate is left over (n = 3)."""
    table = []
    for i, j in combinations(range(n), 2):
        rest = tuple(k for k in range(n) if k not in (i, j))
        table.append((i, j, rest, itemgetter(*rest, rest[0])))
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
        if all(t % x for t in targets):
            return False
    return True


def _pair_pass(
    ws: WeightSystem,
) -> tuple[bool, bool, list[tuple[int, bool, int, int]]]:
    """(wellformed, quasismooth, pairs) of n >= 3 weights, from one visit of
    each pair a, b of weights (see the module docstring).  ``pairs`` holds,
    in the order of ``_pair_table``: g = gcd(a, b), whether a and b
    partition d, how many of the d - w_j they partition (up to two; 0 once
    quasismoothness has failed), and the gcd m of the other weights.

    The pair test is ``arith.is_pair_partitionable`` with g and the inverse
    taken once: t = x*a + y*b with x, y >= 0 iff g divides t and the least
    x >= 0 with x*a = t (mod b), (t/g) * (a/g)^-1 mod b/g, leaves
    t - x*a >= 0.
    """
    d, w = ws.degree, ws.weights
    n = len(w)
    pairs, triples = (_PAIRS, _TRIPLES) if n == 5 else (_pair_table(n), _triple_table(n))
    targets = [d - x for x in w]
    quasismooth = _condition_1(w, targets)
    wellformed = True
    found = []
    for i, j, _, others in pairs:
        a, b = w[i], w[j]
        g = gcd(a, b)
        step = b // g
        inverse = pow(a // g, -1, step)
        on_d = d % g == 0 and d // g * inverse % step * a <= d
        hits = 0
        if quasismooth:
            for t in targets:
                if t % g == 0 and t // g * inverse % step * a <= t:
                    hits += 1
                    if hits == 2:
                        break
            else:
                quasismooth = False
        m = gcd(*others(w))
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

    The locus is computed without any precondition, so that it also
    describes records that fail a criterion.  An edge of P lies in X when
    its two free weights do not partition d.  Raises ValueError unless the
    weight system has five weights.
    """
    ws.require_p4()
    wellformed, quasismooth, pairs = _pair_pass(ws)
    d, w = ws.degree, ws.weights
    in_x = []
    point_loci = []
    curves = []
    for (i, j, zeroed, _), (g, on_d, _, m) in zip(_PAIRS, pairs):
        a, b = w[i], w[j]
        if not on_d:
            in_x.append(ContainedEdge(zeroed, (a, b), g > 1))
        elif g > 1:
            point_loci.append(EdgePointLocus(zeroed, g))
        if m > 1:
            curves.append(SingularCurve((i, j), CyclicQuotientType(m, (a % m, b % m))))
    locus = SingularLocusReport(
        singular_vertices=tuple(i for i in range(5) if w[i] > 1 and d % w[i] != 0),
        contained_edges=tuple(in_x),
        edge_point_loci=tuple(point_loci),
        singular_curves=tuple(curves),
    )
    return wellformed, quasismooth, locus


def is_wellformed_hypersurface(ws: WeightSystem) -> bool:
    """Degree/weight conditions under which adjunction computes the canonical
    class of the general hypersurface: any n - 1 of the n weights are
    coprime, and the gcd of any n - 2 weights divides the degree."""
    return _pair_pass(ws)[0]


def is_quasismooth(ws: WeightSystem) -> bool:
    """Arithmetic quasismoothness criterion for the general hypersurface.

    (1) every weight w_i divides d - w_j for some j (j = i allowed);
    (2) every pair of weights partitions d - w_{j1} and d - w_{j2} for two
        distinct indices j1 != j2;
    (3) every set of three or more weights partitions d.

    The criterion holds for any number of weights.  Condition (1), which
    most candidate weight systems fail, is tested first and alone.  The
    others are read from the pass that also gives wellformedness and the
    singular locus: it takes each pair's gcd and inverse once and tests
    the pair on d and on each d - w_j.  Condition (2) asks for two
    indices, so a pair's count stops at its second hit.  Condition (3) is
    tested on the 3-subsets only: a weight added to a set keeps every sum
    the set partitions, so a 3-subset that partitions d makes each of its
    supersets partition d too.  For the same reason a 3-subset one of
    whose pairs partitions d partitions d (the third weight taken zero
    times), so ``arith.is_partitionable``, a walk of O(log d) rounds on the
    three weights, runs only when no pair does.
    """
    w = ws.weights
    return _condition_1(w, [ws.degree - x for x in w]) and _pair_pass(ws)[1]


def is_quasismooth_and_wellformed(ws: WeightSystem) -> bool:
    """``is_quasismooth(ws) and is_wellformed_hypersurface(ws)``, for any
    number of weights, with condition (1) tested first and alone and both
    verdicts then read from one pair pass."""
    w = ws.weights
    return _condition_1(w, [ws.degree - x for x in w]) and all(_pair_pass(ws)[:2])


def singular_locus(ws: WeightSystem) -> SingularLocusReport:
    """Stratified singular locus of the general quasismooth hypersurface.

    Raises :class:`NotQuasismoothError` when the quasismoothness criterion
    fails, since the stratification argument needs X to be a suborbifold.
    """
    _, quasismooth, locus = examine(ws)
    if not quasismooth:
        raise NotQuasismoothError(f"not quasismooth: {ws}")
    return locus


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
