import time
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cytk import hypersurface
from cytk.arith import is_pair_partitionable
from cytk.census import census_lines
from cytk.hypersurface import (
    ContainedEdge,
    EdgePointLocus,
    NotCalabiYauError,
    SingularCurve,
    SingularLocusReport,
    c2_lower_bound,
    examine,
    is_calabi_yau_degree,
    is_quasismooth_and_wellformed,
    _pair_pass,
)
from cytk.wps import CyclicQuotientType, WeightSystem

X1734 = WeightSystem(1734, (91, 96, 102, 578, 867))
X120 = WeightSystem(120, (3, 7, 20, 40, 50))
X56 = WeightSystem(56, (2, 4, 9, 13, 28))
X7 = WeightSystem(7, (1, 1, 1, 2, 2))
QUINTIC = WeightSystem(5, (1, 1, 1, 1, 1))
KS_LIST = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "kreuzer_skarke_wp4.txt"


def locus(ws):
    """The singular locus of the general X, which must be quasismooth."""
    _, quasismooth, report = examine(ws)
    assert quasismooth
    return report


def targets(ws):
    """The targets d - w_j, which the caller of ``_pair_pass`` builds."""
    return [ws.degree - x for x in ws.weights]


def condition_1(ws):
    """Condition (1) of the quasismoothness criterion, tested apart from
    ``hypersurface``: every weight divides some d - w_j."""
    d, w = ws.degree, ws.weights
    return all(any((d - x) % y == 0 for x in w) for y in w)


class TestQuasismooth:
    def test_worked_examples(self):
        for ws in (X120, X56, X1734, QUINTIC, X7):
            assert examine(ws)[:2] == (True, True)

    @pytest.mark.parametrize("predicate", [is_quasismooth_and_wellformed, examine])
    def test_condition_1_tested_once(self, monkeypatch, predicate):
        # ... on the targets d - w_j, which the pair pass then reads as they are
        original, original_pass = hypersurface._condition_1, hypersurface._pair_pass
        calls, passed = [], []

        def counted(weights, targets):
            calls.append((weights, targets))
            return original(weights, targets)

        def pair_pass(ws, targets, quasismooth):
            passed.append(targets)
            return original_pass(ws, targets, quasismooth)

        monkeypatch.setattr(hypersurface, "_condition_1", counted)
        monkeypatch.setattr(hypersurface, "_pair_pass", pair_pass)
        for _ in range(3):
            predicate(X120)
        assert [weights for weights, _ in calls] == [X120.weights] * 3
        assert all(t is built for (_, t), built in zip(calls, passed, strict=True))
        assert passed[0] == targets(X120)

    def test_failing_first_condition(self):
        # no weight w_j with 7 | 9 - w_j
        assert not examine(WeightSystem(9, (1, 1, 3, 3, 7)))[1]

    def test_triple_that_needs_all_three_weights(self):
        # no pair of 4, 6, 11 partitions 25, but 4 + 4 + 6 + 11 does
        ws = WeightSystem(25, (1, 3, 4, 6, 11))
        assert examine(ws)[1]
        assert reference_is_quasismooth(ws)


class TestWeightCount:
    def test_three_weight_criteria(self):
        cubic_curve = WeightSystem(6, (1, 2, 3))
        verdicts = _pair_pass(cubic_curve, targets(cubic_curve), condition_1(cubic_curve))
        assert verdicts[:2] == (True, True)
        # 4 divides none of 7 - 1, 7 - 2, 7 - 4; and gcd(2, 4) = 2
        bad = WeightSystem(7, (1, 2, 4))
        assert _pair_pass(bad, targets(bad), condition_1(bad))[:2] == (False, False)

    @pytest.mark.parametrize("entry", [examine, c2_lower_bound])
    def test_p4_entry_points_reject_four_weights(self, entry):
        quartic_surface = WeightSystem(4, (1, 1, 1, 1))
        assert is_quasismooth_and_wellformed(quartic_surface)
        with pytest.raises(ValueError, match="five weights"):
            entry(quartic_surface)


class TestCalabiYauDegree:
    def test_examples(self):
        assert is_calabi_yau_degree(X120)
        assert is_calabi_yau_degree(X1734)
        assert not is_calabi_yau_degree(WeightSystem(6, (1, 1, 1, 1, 1)))


class TestContainedEdges:
    def test_x7_contains_the_2_2_edge(self):
        edges = locus(X7).contained_edges
        assert [(e.zeroed, e.free_weights, e.singular) for e in edges] == [
            ((0, 1, 2), (2, 2), True)
        ]

    def test_x56_contains_exactly_one_edge(self):
        edges = locus(X56).contained_edges
        assert [(e.zeroed, e.free_weights, e.singular) for e in edges] == [
            ((0, 1, 4), (9, 13), False)
        ]

    def test_x1734_contains_none(self):
        assert locus(X1734).contained_edges == ()


class TestSingularLocus:
    def test_x1734_report(self):
        report = locus(X1734)
        assert [(c.zeroed, c.quotient) for c in report.singular_curves] == [
            ((0, 1), CyclicQuotientType(17, (6, 11))),
            ((0, 3), CyclicQuotientType(3, (1, 2))),
            ((0, 4), CyclicQuotientType(2, (1, 1))),
        ]
        assert report.contained_edges == ()

    def test_x120_single_curve(self):
        report = locus(X120)
        assert [(c.zeroed, c.quotient) for c in report.singular_curves] == [
            ((0, 1), CyclicQuotientType(10, (3, 7)))
        ]

    def test_quintic_is_smooth(self):
        assert locus(QUINTIC) == SingularLocusReport((), (), (), ())

    def test_precondition(self):
        # the locus is reported for a weight system that is not quasismooth
        ws = WeightSystem(9, (1, 1, 3, 3, 7))
        _, quasismooth, report = examine(ws)
        assert not quasismooth
        assert report == reference_locus(ws)

    def test_curve_count_bounded_by_ten(self):
        for ws in (X1734, X120, X56, X7, QUINTIC):
            assert len(locus(ws).singular_curves) <= 10


class TestSmoothInCodim2:
    def test_examples(self):
        assert locus(QUINTIC).smooth_in_codim2
        assert not locus(X1734).smooth_in_codim2
        assert not locus(X120).smooth_in_codim2

    def test_x7_not_smooth_via_contained_singular_edge(self):
        assert not locus(X7).smooth_in_codim2


class TestContainsNoEdge:
    def test_examples(self):
        assert not locus(X56).contains_no_edge
        assert locus(X1734).contains_no_edge
        assert not locus(X7).contains_no_edge

    def test_no_edge_means_every_pair_partitions(self):
        for ws in (X1734, X120, QUINTIC):
            if locus(ws).contains_no_edge:
                w = ws.weights
                for i, j in combinations(range(5), 2):
                    assert is_pair_partitionable(ws.degree, w[i], w[j])


def reference_sums(parts, limit):
    """Bit t set iff t is a non-negative combination of parts (value-table
    DP, the implementation the closed-form tests replaced)."""
    mask = (1 << (limit + 1)) - 1
    reach = 1
    for p in sorted(set(parts)):
        if p > limit:
            break
        while True:
            grown = (reach | (reach << p)) & mask
            if grown == reach:
                break
            reach = grown
    return reach


def reference_is_quasismooth(ws):
    """The criterion with every subset of three or more weights tested."""
    d, w = ws.degree, ws.weights
    n = len(w)
    for i in range(n):
        if all((d - w[j]) % w[i] != 0 for j in range(n)):
            return False
    for i1, i2 in combinations(range(n), 2):
        reach = reference_sums((w[i1], w[i2]), d)
        if sum(1 for j in range(n) if reach >> (d - w[j]) & 1) < 2:
            return False
    for size in range(3, n + 1):
        for idx in combinations(range(n), size):
            if not reference_sums([w[i] for i in idx], d) >> d & 1:
                return False
    return True


def reference_is_wellformed(ws):
    """Any n - 1 of the n weights coprime and the gcd of any n - 2 of them
    dividing d, with each subset's gcd taken afresh by slicing."""
    d, w = ws.degree, ws.weights
    for i in range(len(w)):
        if gcd(*w[:i], *w[i + 1 :]) != 1:
            return False
    for i, j in combinations(range(len(w)), 2):
        if d % gcd(*w[:i], *w[i + 1 : j], *w[j + 1 :]) != 0:
            return False
    return True


def reference_examine(ws):
    return reference_is_wellformed(ws), reference_is_quasismooth(ws), reference_locus(ws)


def reference_locus(ws):
    d, w = ws.degree, ws.weights
    vertices = tuple(i for i in range(5) if w[i] > 1 and d % w[i] != 0)
    in_x, point_loci, curves = [], [], []
    for free in combinations(range(5), 2):
        zeroed = tuple(i for i in range(5) if i not in free)
        pair = (w[free[0]], w[free[1]])
        g = gcd(*pair)
        if not reference_sums(pair, d) >> d & 1:
            in_x.append(ContainedEdge(zeroed, pair, g > 1))
        elif g > 1:
            point_loci.append(EdgePointLocus(zeroed, g))
    for zeroed in combinations(range(5), 2):
        m = reduce(gcd, (w[i] for i in range(5) if i not in zeroed))
        if m > 1:
            i, j = zeroed
            curves.append(
                SingularCurve(zeroed, CyclicQuotientType(m, (w[i] % m, w[j] % m)))
            )
    return SingularLocusReport(vertices, tuple(in_x), tuple(point_loci), tuple(curves))


@st.composite
def weight_systems(draw, n=5):
    """n globally coprime weights with d = sum of weights, with an unrelated
    degree, or built so that condition (1) of the criterion holds (each
    weight a divisor of d or of d minus an earlier weight), which leaves
    the pair and triple conditions to decide."""
    kind = draw(st.sampled_from(("sum", "unrelated", "divisors")))
    if kind == "divisors":
        degree = draw(st.integers(min_value=2, max_value=400))
        weights = []
        for _ in range(n):
            base = degree
            if weights and draw(st.booleans()):
                base -= draw(st.sampled_from(weights))
            divisors = [k for k in range(2, base) if base % k == 0]
            weights.append(draw(st.sampled_from(divisors or [1])))
    else:
        weights = draw(
            st.lists(st.integers(min_value=1, max_value=40), min_size=n, max_size=n)
        )
        if kind == "sum":
            degree = sum(weights)
        else:
            degree = draw(st.integers(min_value=max(weights), max_value=400))
    assume(reduce(gcd, weights) == 1)
    return WeightSystem(degree, tuple(weights))


class TestAgainstAllSubsetsReference:
    @settings(max_examples=400, deadline=None)
    @given(weight_systems())
    def test_random_weight_systems(self, ws):
        assert examine(ws) == reference_examine(ws)

    def test_worked_examples(self):
        for ws in (X1734, X120, X56, X7, QUINTIC, WeightSystem(9, (1, 1, 3, 3, 7))):
            assert examine(ws) == reference_examine(ws)

    def test_ks_list(self):
        # every record of the KS list, contained edges and point loci included
        lines = KS_LIST.read_text(encoding="utf-8").splitlines()
        summary, verdicts = census_lines(lines)
        assert len(verdicts) == 7355 and not summary.failures
        for v in verdicts:
            ws = WeightSystem(v.degree, v.weights)
            assert examine(ws) == reference_examine(ws)

    @settings(max_examples=400, deadline=None)
    @given(st.integers(min_value=3, max_value=6).flatmap(weight_systems))
    def test_any_number_of_weights(self, ws):
        assert _pair_pass(ws, targets(ws), condition_1(ws))[:2] == (
            reference_is_wellformed(ws), reference_is_quasismooth(ws)
        )
        assert is_quasismooth_and_wellformed(ws) == (
            reference_is_quasismooth(ws) and reference_is_wellformed(ws)
        )

    @settings(max_examples=400, deadline=None)
    @given(st.integers(min_value=3, max_value=6).flatmap(weight_systems))
    def test_pair_pass_against_pair_reference(self, ws):
        # each pair's in-loop tests on d and on the d - w_j, and its gcds;
        # the d - w_j are tested until condition (1) or (2) has failed
        d, w = ws.degree, ws.weights
        counting = condition_1(ws)
        _, _, pairs = _pair_pass(ws, targets(ws), counting)
        indices = list(combinations(range(len(w)), 2))
        assert len(pairs) == len(indices)
        for (i, j), (g, on_d, hits, m) in zip(indices, pairs):
            a, b = w[i], w[j]
            assert g == gcd(a, b)
            assert on_d == is_pair_partitionable(d, a, b)
            on_targets = min(sum(is_pair_partitionable(d - x, a, b) for x in w), 2)
            assert hits == (on_targets if counting else 0)
            counting = counting and on_targets == 2
            assert m == gcd(*(w[k] for k in range(len(w)) if k not in (i, j)))


@st.composite
def conductor_systems(draw):
    """A weight system whose first two weights a, b, with g = gcd(a, b),
    meet targets at the conductor c = (a - g)(b/g - 1) and around it: the
    degree d and the d - w_j of the other weights sit at c - g (the
    Frobenius number when a/g, b/g > 1), c, c +- k*g and values g does
    not divide.  A last weight 1 makes the weights coprime."""
    g = draw(st.integers(min_value=1, max_value=6))
    a1, b1 = draw(st.tuples(*[st.integers(min_value=1, max_value=15)] * 2))
    assume(gcd(a1, b1) == 1)
    a, b = g * a1, g * b1
    c = (a - g) * (b1 - 1)
    k = draw(st.integers(min_value=1, max_value=4))
    r = draw(st.integers(min_value=1, max_value=max(g - 1, 1)))
    near = [c - g, c, c + k * g, c - k * g]
    if g > 1:
        near += [c + r, c - r, c - g + r]
    near = sorted({t for t in near if t >= 0})
    high = [t for t in near if t >= max(a, b)]
    if high and draw(st.booleans()):
        degree = draw(st.sampled_from(high))
    else:
        degree = max(a, b, near[-1] + 1) + draw(st.integers(min_value=0, max_value=2))
    below = [t for t in near if t < degree]
    targets = draw(st.lists(st.sampled_from(below), max_size=3)) if below else []
    return WeightSystem(degree, (a, b, *(degree - t for t in targets), 1))


class TestConductor:
    @settings(max_examples=500, deadline=None)
    @given(conductor_systems())
    def test_pair_pass_against_brute_force(self, ws):
        d, w = ws.degree, ws.weights
        _, _, pairs = _pair_pass(ws, targets(ws), True)
        for (i, j), (g, on_d, hits, _) in zip(combinations(range(len(w)), 2), pairs):
            reach = reference_sums((w[i], w[j]), d)
            assert g == gcd(w[i], w[j])
            assert on_d == bool(reach >> d & 1)
            if (i, j) == (0, 1):  # counted whatever condition (1) says
                assert hits == min(sum(reach >> (d - x) & 1 for x in w), 2)

    def test_degree_at_the_frobenius_number(self):
        # 4 and 7 have c = 3 * 6 = 18, and d = 17 = c - 1 is their
        # Frobenius number: the edge on which they are free lies in X
        ws = WeightSystem(17, (1, 2, 3, 4, 7))
        assert not _pair_pass(ws, targets(ws), True)[2][9][1]
        _, quasismooth, report = examine(ws)
        assert quasismooth
        assert ContainedEdge((0, 1, 2), (4, 7), False) in report.contained_edges
        assert examine(ws) == reference_examine(ws)

    def test_degree_at_the_conductor(self):
        # d = 18 = c for 4 and 7, so 18 = 4 + 2 * 7 and that edge is not in X
        ws = WeightSystem(18, (2, 2, 3, 4, 7))
        assert _pair_pass(ws, targets(ws), True)[2][9][1]
        _, quasismooth, report = examine(ws)
        assert quasismooth
        assert all(e.free_weights != (4, 7) for e in report.contained_edges)
        assert examine(ws) == reference_examine(ws)


def test_huge_degree_is_fast():
    # the cost of the predicates does not grow with the degree
    ws = WeightSystem(10**12, (1, 2, 3, 5, 7))
    start = time.perf_counter()
    report = locus(ws)
    assert time.perf_counter() - start < 0.5
    assert report.singular_vertices == (2, 4)
    assert not report.contained_edges


def pairwise_square_sum(weights):
    return sum(
        (weights[i] - weights[j]) ** 2 for i, j in combinations(range(5), 2)
    )


class TestC2LowerBound:
    def test_quintic_bound_is_zero(self):
        report = c2_lower_bound(QUINTIC)
        assert report.lower_bound == 0
        assert not report.positive

    def test_x120_exact_value(self):
        # oracle: d * sum of squared weight differences / (10 N)
        report = c2_lower_bound(X120)
        n = 3 * 7 * 20 * 40 * 50
        expected = Fraction(120 * pairwise_square_sum(X120.weights), 10 * n)
        assert report.lower_bound == expected == Fraction(839, 7000)
        assert report.positive

    def test_x1734_positive(self):
        report = c2_lower_bound(X1734)
        assert report.positive and report.lower_bound > 0

    def test_precondition(self):
        with pytest.raises(NotCalabiYauError):
            c2_lower_bound(WeightSystem(6, (1, 1, 1, 1, 1)))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=50), min_size=5, max_size=5)
    )
    def test_identity_4q_minus_2s(self, weights):
        # d (4q - 2s) = d * sum (w_i - w_j)^2 for any degree, here d = sum w
        q = sum(w * w for w in weights)
        s = sum(weights[i] * weights[j] for i, j in combinations(range(5), 2))
        d = sum(weights)
        assert d * (4 * q - 2 * s) == d * pairwise_square_sum(tuple(weights))
