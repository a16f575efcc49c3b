from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cytk.hypersurface import EdgePointLocus, SingularLocusReport, _pair_pass, examine
from cytk.wps import CyclicQuotientType, WeightSystem

X1734 = WeightSystem(1734, (91, 96, 102, 578, 867))
X120 = WeightSystem(120, (3, 7, 20, 40, 50))
X56 = WeightSystem(56, (2, 4, 9, 13, 28))
QUINTIC = WeightSystem(5, (1, 1, 1, 1, 1))


class TestWeightSystem:
    def test_rejects_common_factor(self):
        with pytest.raises(ValueError):
            WeightSystem(10, (2, 2, 2, 2, 2))

    def test_rejects_degree_below_max_weight(self):
        with pytest.raises(ValueError):
            WeightSystem(3, (1, 1, 1, 1, 5))

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            WeightSystem(5, (1, 1, 1, 1, 0))

    @pytest.mark.parametrize(
        "degree, weights",
        [(5.9, (1, 1, 1, 1, 1)), (5, (1, 1, 1, 1.7, 1)), (5.0, (1, 1, 1, 1, 1))],
        ids=["degree", "weight", "integral-float"],
    )
    def test_rejects_non_integers(self, degree, weights):
        # as CyclicQuotientType does: 5.9 is not truncated to the quintic
        with pytest.raises(TypeError, match="'float' object cannot be interpreted"):
            WeightSystem(degree, weights)


class TestCyclicQuotientType:
    def test_swap_equivalence(self):
        assert CyclicQuotientType(3, (1, 2)) == CyclicQuotientType(3, (2, 1))

    def test_unit_rescaling_equivalence(self):
        assert CyclicQuotientType(17, (6, 11)) == CyclicQuotientType(17, (1, 16))
        assert CyclicQuotientType(10, (3, 7)) == CyclicQuotientType(10, (1, 9))

    def test_display_is_canonical(self):
        assert str(CyclicQuotientType(3, (2, 1))) == "1/3(1,2)"
        assert str(CyclicQuotientType(2, (1, 1))) == "1/2(1,1)"

    def test_non_faithful_action_reduces(self):
        assert CyclicQuotientType(6, (2, 4)) == CyclicQuotientType(3, (1, 2))

    def test_order_one_rejected(self):
        with pytest.raises(ValueError):
            CyclicQuotientType(1, (0, 0))

    def test_matches_unit_loop_for_small_orders(self):
        for order in range(1, 61):
            for a in range(order):
                for b in range(order):
                    try:
                        expected = reference_canonical_quotient(order, a, b)
                    except ValueError:
                        with pytest.raises(ValueError):
                            CyclicQuotientType(order, (a, b))
                        continue
                    q = CyclicQuotientType(order, (a, b))
                    assert (q.order, q.local_weights) == expected

    def test_large_orders(self):
        q = CyclicQuotientType(10**12, (1, 10**12 - 1))
        assert q.local_weights == (1, 10**12 - 1)
        q = CyclicQuotientType(10**12, (3 * 10**6 + 7, 5))
        assert q.order == 10**12 and q.local_weights[0] == 1
        primorial = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37
        assert CyclicQuotientType(primorial, (primorial // 37, 1)) == (
            CyclicQuotientType(primorial, (1, primorial // 37))
        )

    def test_gorenstein_matches_unit_loop(self):
        # 1/m(a, -a) for a unit a, the germ along every curve of the KS
        # census, is read off as 1/m(1, m - 1) without the walk
        for m in range(2, 201):
            for a in range(1, m):
                if gcd(a, m) == 1:
                    q = CyclicQuotientType(m, (a, m - a))
                    assert (q.order, q.local_weights) == reference_canonical_quotient(
                        m, a, m - a
                    )

    def test_gorenstein_3000_bit_order(self):
        m = 3**1900  # 3012 bits
        a = 2**2000 + 1  # not a multiple of 3, so a unit
        for pair in ((a, m - a), (m - a, a), (a, -a), (a + m, 2 * m - a)):
            q = CyclicQuotientType(m, pair)
            assert (q.order, q.local_weights) == (m, (1, m - 1))
        # a non-faithful action reduces to the same germ
        assert CyclicQuotientType(5 * m, (5 * a, -5 * a)) == CyclicQuotientType(m, (1, m - 1))


def reference_canonical_quotient(order, a, b):
    """The canonical form by trying every unit u < m: the implementation
    the closed form replaced."""
    m = order
    a %= m
    b %= m
    g = gcd(gcd(a, b), m)
    if g > 1:
        m //= g
        a = (a // g) % m
        b = (b // g) % m
    if m < 2:
        raise ValueError("quotient order must be at least 2")
    best = None
    for u in range(1, m):
        if gcd(u, m) != 1:
            continue
        ua, ub = u * a % m, u * b % m
        for cand in ((ua, ub), (ub, ua)):
            if best is None or cand < best:
                best = cand
    return m, best


class TestWellformed:
    def test_worked_examples_are_wellformed(self):
        for ws in (X120, X56, X1734):
            assert examine(ws)[0]

    def test_common_factor_in_four_weights_fails(self):
        assert not examine(WeightSystem(10, (1, 2, 2, 2, 2)))[0]

    @settings(max_examples=300, deadline=None)
    @given(
        weights=st.lists(st.integers(min_value=1, max_value=36), min_size=3, max_size=6),
        extra=st.integers(min_value=0, max_value=72),
    )
    def test_matches_definition(self, weights, extra):
        if gcd(*weights) > 1:
            weights[0] = 1
        ws = WeightSystem(max(weights) + extra, tuple(weights))
        n = len(weights)
        expected = all(
            gcd(*sub) == 1 for sub in combinations(weights, n - 1)
        ) and all(ws.degree % gcd(*sub) == 0 for sub in combinations(weights, n - 2))
        # wellformedness does not depend on quasismoothness, so the pass
        # may skip conditions (2) and (3)
        assert _pair_pass(ws, [ws.degree - x for x in weights], False)[0] == expected


def two_face_types(ws):
    """(zeroed coordinates, curve type) of each singular two-face of the
    general X, as ``examine`` reports them."""
    return [(c.zeroed, c.quotient) for c in examine(ws)[2].singular_curves]


class TestStratumSingularity:
    def test_x1734_two_faces(self):
        types = dict(two_face_types(X1734))
        assert types[0, 1] == CyclicQuotientType(17, (6, 11))
        assert types[0, 3] == CyclicQuotientType(3, (1, 2))
        assert types[0, 4] == CyclicQuotientType(2, (1, 1))

    def test_x120_two_face(self):
        assert dict(two_face_types(X120))[0, 1] == CyclicQuotientType(10, (3, 7))

    def test_smooth_ambient_space(self):
        assert examine(QUINTIC)[2] == SingularLocusReport((), (), (), ())

    def test_vertex_and_edge_markers(self):
        locus = examine(X120)[2]
        # the vertices of weights 7 and 50, which do not divide d = 120
        assert locus.singular_vertices == (1, 4)
        # the edge of weights 40 and 50 meets X in points of order 10
        assert EdgePointLocus((0, 1, 2), 10) in locus.edge_point_loci


class TestSingularStrata:
    def test_x1734_has_exactly_three_singular_two_faces(self):
        assert two_face_types(X1734) == [
            ((0, 1), CyclicQuotientType(17, (6, 11))),
            ((0, 3), CyclicQuotientType(3, (1, 2))),
            ((0, 4), CyclicQuotientType(2, (1, 1))),
        ]

    def test_smooth_space_is_empty(self):
        assert two_face_types(QUINTIC) == []

    def test_x120_strata_match_direct_gcd_evaluation(self):
        # independent oracle: the gcd of the three free weights, face by face
        w = X120.weights
        expected = [
            zeroed
            for zeroed in combinations(range(5), 2)
            if gcd(*(w[i] for i in range(5) if i not in zeroed)) > 1
        ]
        assert [zeroed for zeroed, _ in two_face_types(X120)] == expected == [(0, 1)]

    def test_at_most_ten_singular_two_faces(self):
        assert len(two_face_types(X1734)) <= 10


@st.composite
def weight_systems(draw):
    weights = draw(
        st.lists(st.integers(min_value=1, max_value=30), min_size=5, max_size=5)
    )
    from math import gcd

    g = 0
    for w in weights:
        g = gcd(g, w)
    if g > 1:
        weights[0] = 1
    degree = draw(st.integers(min_value=max(weights), max_value=150))
    return WeightSystem(degree, tuple(weights))


class TestPermutationInvariance:
    @settings(max_examples=80, deadline=None)
    @given(ws=weight_systems(), seed=st.randoms())
    def test_two_face_types_stable_under_relabeling(self, ws, seed):
        perm = list(range(5))
        seed.shuffle(perm)
        permuted = WeightSystem(ws.degree, tuple(ws.weights[p] for p in perm))

        def face_types(system):
            return sorted(str(quotient) for _, quotient in two_face_types(system))

        assert face_types(ws) == face_types(permuted)
