"""Analysis of the general degree-d hypersurface X in P(w0, ..., w4):
quasismoothness, the trivial-canonical-class degree condition, edge
containment, the stratified singular locus, and the positivity bound for
the orbifold second Chern class.  Quasismoothness and the degree condition
take any number of weights."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

from cytk.arith import is_pair_partitionable, is_partitionable
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


def is_quasismooth(ws: WeightSystem) -> bool:
    """Arithmetic quasismoothness criterion for the general hypersurface.

    (1) every weight w_i divides d - w_j for some j (j = i allowed);
    (2) every pair of weights partitions d - w_{j1} and d - w_{j2} for two
        distinct indices j1 != j2;
    (3) every set of three or more weights partitions d.

    The criterion holds for any number of weights.  Condition (3) is tested
    on the 3-subsets only: a weight added to a set keeps every sum the set
    partitions, so a 3-subset that partitions d makes each of its supersets
    partition d too.  For the same reason a 3-subset one of whose pairs
    partitions d partitions d (the third weight taken zero times), so the
    general three-part test runs only when no pair does.  Condition (2)
    asks for two indices, so a pair's count stops at its second hit.
    """
    d, w = ws.degree, ws.weights
    targets = [d - wj for wj in w]
    for wi in w:
        if all(t % wi for t in targets):
            return False
    for a, b in combinations(w, 2):
        hits = 0
        for t in targets:
            if is_pair_partitionable(t, a, b):
                hits += 1
                if hits == 2:
                    break
        else:
            return False
    for a, b, c in combinations(w, 3):
        if not (
            is_pair_partitionable(d, a, b)
            or is_pair_partitionable(d, a, c)
            or is_pair_partitionable(d, b, c)
            or is_partitionable(d, (a, b, c))
        ):
            return False
    return True


# (free, zeroed) coordinate indices of the ten edges, in lex order of the
# free coordinates, and of the ten two-faces, in lex order of the zeroed ones
_EDGES = tuple(
    (free, tuple(i for i in range(5) if i not in free))
    for free in combinations(range(5), 2)
)
_TWO_FACES = tuple(
    (tuple(i for i in range(5) if i not in zeroed), zeroed)
    for zeroed in combinations(range(5), 2)
)


def stratified_locus(ws: WeightSystem) -> SingularLocusReport:
    """The stratified singular locus of the general X, computed without any
    precondition, so that it also describes records that fail a criterion.

    An edge of P lies in X when its two free weights do not partition d.
    Raises ValueError unless the weight system has five weights.
    """
    ws.require_p4()
    d, w = ws.degree, ws.weights
    vertices = tuple(i for i in range(5) if w[i] > 1 and d % w[i] != 0)
    in_x = []
    point_loci = []
    for (i, j), zeroed in _EDGES:
        a, b = w[i], w[j]
        g = gcd(a, b)
        if not is_pair_partitionable(d, a, b):
            in_x.append(ContainedEdge(zeroed, (a, b), g > 1))
        elif g > 1:
            point_loci.append(EdgePointLocus(zeroed, g))
    curves = []
    for (i, j, k), zeroed in _TWO_FACES:
        m = gcd(w[i], w[j], w[k])
        if m > 1:
            z0, z1 = zeroed
            curves.append(
                SingularCurve(zeroed, CyclicQuotientType(m, (w[z0] % m, w[z1] % m)))
            )
    return SingularLocusReport(
        singular_vertices=vertices,
        contained_edges=tuple(in_x),
        edge_point_loci=tuple(point_loci),
        singular_curves=tuple(curves),
    )


def contained_edges(ws: WeightSystem) -> tuple[ContainedEdge, ...]:
    """The edges of P lying entirely in X: those whose two free weights do
    not partition d.  Deterministic (lex on free coordinates) order."""
    return stratified_locus(ws).contained_edges


def singular_locus(ws: WeightSystem) -> SingularLocusReport:
    """Stratified singular locus of the general quasismooth hypersurface.

    Raises :class:`NotQuasismoothError` when the quasismoothness criterion
    fails, since the stratification argument needs X to be a suborbifold.
    """
    if not is_quasismooth(ws):
        raise NotQuasismoothError(f"not quasismooth: {ws}")
    return stratified_locus(ws)


def is_smooth_in_codim2(ws: WeightSystem) -> bool:
    """True iff the singular locus of X contains no curve: no singular
    two-face and no contained singular edge."""
    return singular_locus(ws).smooth_in_codim2


def contains_no_edge(ws: WeightSystem) -> bool:
    """True iff X contains no edge of P at all (singular or not), i.e.
    every pair of weights partitions d."""
    return singular_locus(ws).contains_no_edge


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
