import random
import time
from fractions import Fraction
from itertools import permutations, product
from math import gcd, lcm
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cytk.arith import is_pair_partitionable, is_partitionable

from congruence_reference import (
    InfiniteSolutionsError,
    NoSolutionError,
    determinant,
    solve_congruence_numerators,
)


def brute_force_partitionable(target, parts):
    """Independent oracle: exhaust the counts of every part but the last,
    which must then divide what is left."""
    *rest, last = parts
    ranges = [range(target // p + 1) for p in rest]
    return any(
        (left := target - sum(map(mul, counts, rest))) >= 0 and left % last == 0
        for counts in product(*ranges)
    )


def reference_partitionable(target, parts):
    """The n-part recursion that ``is_partitionable`` replaced: it tries the
    multiples of the largest part up to its period against the others, so
    its cost grows with the smallest part."""
    parts = sorted(set(parts))
    if len(parts) == 1:
        return target % parts[0] == 0
    if len(parts) == 2:
        return is_pair_partitionable(target, *parts)
    *rest, top = parts
    # p/gcd(p, top) copies of top make a multiple of p, so a solution that
    # uses top at least that often has one using it fewer times.
    period = min(p // gcd(p, top) for p in rest)
    return any(
        reference_partitionable(target - k * top, rest)
        for k in range(min(target // top, period - 1) + 1)
    )


def coprime_pair(rng, bits):
    a = rng.getrandbits(bits) | 1 << (bits - 1)
    b = rng.getrandbits(bits) | 1 << (bits - 1)
    while gcd(a, b) != 1:
        b += 1
    return a, b


class TestPartitionable:
    def test_120_by_7_50(self):
        assert is_pair_partitionable(120, 7, 50)

    def test_targets_near_56_by_9_13(self):
        assert is_pair_partitionable(54, 9, 13)
        assert is_pair_partitionable(52, 9, 13)

    def test_zero_target(self):
        assert is_partitionable(0, (5, 7, 9))

    def test_56_by_9_13_is_not(self):
        # frozen from the brute-force oracle over alpha1 <= 6, alpha2 <= 4
        assert not brute_force_partitionable(56, (9, 13))
        assert not is_pair_partitionable(56, 9, 13)
        assert is_partitionable(56, (9, 13, 28))

    def test_empty_parts_rejected(self):
        # exactly three parts are taken
        for parts in ((), (5,), (2, 3), (2, 3, 5, 7)):
            with pytest.raises(ValueError):
                is_partitionable(5, parts)

    def test_negative_target_rejected(self):
        with pytest.raises(ValueError):
            is_partitionable(-1, (2, 3, 5))
        with pytest.raises(ValueError):
            is_partitionable(5, (2, 0, 5))

    @settings(max_examples=300, deadline=None)
    @given(
        target=st.integers(min_value=0, max_value=300),
        parts=st.lists(st.integers(min_value=1, max_value=60), min_size=3, max_size=3),
    )
    def test_agrees_with_brute_force(self, target, parts):
        assert is_partitionable(target, parts) == brute_force_partitionable(
            target, parts
        )

    @settings(max_examples=200, deadline=None)
    @given(
        target=st.integers(min_value=0, max_value=300),
        p=st.integers(min_value=1, max_value=40),
        q=st.integers(min_value=1, max_value=40),
    )
    def test_duplicate_parts_agree_with_brute_force(self, target, p, q):
        for parts in ((p, p, q), (p, q, p), (q, p, p), (p, p, p)):
            assert is_partitionable(target, parts) == brute_force_partitionable(
                target, parts
            )

    @settings(max_examples=300, deadline=None)
    @given(
        target=st.integers(min_value=0, max_value=300),
        factor=st.integers(min_value=1, max_value=6),
        a=st.integers(min_value=1, max_value=30),
        b=st.integers(min_value=1, max_value=30),
    )
    def test_pair_agrees_with_brute_force(self, target, factor, a, b):
        parts = (factor * a, factor * b)
        assert is_pair_partitionable(target, *parts) == brute_force_partitionable(
            target, parts
        )

    @settings(max_examples=300, deadline=None)
    @given(
        target=st.integers(min_value=0, max_value=200),
        factor=st.integers(min_value=1, max_value=6),
        cofactors=st.lists(
            st.integers(min_value=2, max_value=20), min_size=3, max_size=3
        ),
    )
    def test_shared_factor_parts_agree_with_brute_force(
        self, target, factor, cofactors
    ):
        # a factor common to all parts, and the first two share another
        parts = [factor * c for c in cofactors]
        parts[0] *= cofactors[1]
        assert is_partitionable(target, parts) == brute_force_partitionable(
            target, parts
        )

    @settings(max_examples=200, deadline=None)
    @given(
        target=st.integers(min_value=0, max_value=10**8),
        parts=st.lists(
            st.integers(min_value=1, max_value=10**4), min_size=3, max_size=3
        ),
    )
    def test_agrees_with_the_recursion_it_replaced(self, target, parts):
        assert is_partitionable(target, parts) == reference_partitionable(
            target, parts
        )

    def test_300_bit_parts(self):
        # a + b adds nothing to <a, b>, whose largest gap is ab - a - b
        rng = random.Random(300)
        start = time.perf_counter()
        for _ in range(5):
            a, b = coprime_pair(rng, 300)
            for parts in permutations((a, b, a + b)):
                assert not is_partitionable(a * b - a - b, parts)
                assert is_partitionable(a * b, parts)
                assert is_partitionable(a * b - a, parts)
        assert time.perf_counter() - start < 0.5

    def test_huge_target_is_fast(self):
        start = time.perf_counter()
        assert is_pair_partitionable(10**12, 7, 50)
        assert not is_partitionable(10**12 + 1, (10, 50, 70))
        assert is_partitionable(10**12 + 1, (7, 91, 200))
        assert time.perf_counter() - start < 0.5


def random_unimodular(rng, n=4, steps=12):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        q = rng.randint(-3, 3)
        if rng.random() < 0.5:
            m[i] = [x + q * y for x, y in zip(m[i], m[j])]
        else:
            for row in m:
                row[i] += q * row[j]
    return tuple(tuple(row) for row in m)


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return tuple(
        tuple(sum(a[i][l] * b[l][j] for l in range(k)) for j in range(m))
        for i in range(n)
    )


class TestDeterminantAndCharpoly:
    def test_determinant_examples(self):
        assert determinant([[2, 1], [0, 2]]) == 4
        assert determinant([[0, 1], [1, 0]]) == -1
        assert determinant([[1, 2], [2, 4]]) == 0


HALF = Fraction(1, 2)


def as_fractions(s, numerators):
    """The solutions that ``solve_congruence_numerators`` gives as
    numerators over s, as a set of Fraction tuples."""
    return frozenset(tuple(Fraction(x, s) for x in point) for point in numerators)


def random_system(rng):
    """A 4x4 integer A with 0 < |det A| <= 400 and a rational right-hand
    side b, given as (A, det A, b, c, q) with c = q b integral for q the
    lcm of the denominators of b."""
    det = 0
    while not 0 < abs(det) <= 400:
        a = tuple(tuple(rng.randint(-5, 5) for _ in range(4)) for _ in range(4))
        det = determinant(a)
    b = [
        Fraction(rng.randint(-24, 24), rng.choice((1, 2, 3, 4, 6, 12)))
        for _ in range(4)
    ]
    q = lcm(*(x.denominator for x in b))
    return a, det, b, [x.numerator * (q // x.denominator) for x in b], q


def assert_solves(a, b, solutions):
    """Each solution has coordinates in [0, 1) and solves A x = b mod Z^n."""
    for x in solutions:
        assert all(0 <= coord < 1 for coord in x)
        residue = [sum(c * v for c, v in zip(row, x)) - bi for row, bi in zip(a, b)]
        assert all(r.denominator == 1 for r in residue)


class TestSolveCongruence:
    def test_two_torsion(self):
        a = [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]
        sols = as_fractions(*solve_congruence_numerators(a, [0, 0, 0, 0], 1))
        assert len(sols) == 16
        assert all(set(x) <= {0, HALF} for x in sols)

    def test_identity_with_shift(self):
        a = [[int(i == j) for j in range(4)] for i in range(4)]
        # x = (1/2, 0, 0, 0), as numerators over s = 2 * |det A| = 2
        assert solve_congruence_numerators(a, [1, 0, 0, 0], 2) == (2, [(1, 0, 0, 0)])

    def test_order_three_block_count(self):
        # oracle: exhaustive search over coordinates with denominator 3
        block = [[-1, -1, 0, 0], [1, -2, 0, 0], [0, 0, -1, -1], [0, 0, 1, -2]]
        third = Fraction(1, 3)
        expected = {
            x
            for x in product([0 * third, third, 2 * third], repeat=4)
            if all(
                sum(Fraction(c) * v for c, v in zip(row, x)) % 1 == 0
                for row in block
            )
        }
        assert len(expected) == 9
        solved = solve_congruence_numerators(block, [0, 0, 0, 0], 1)
        assert as_fractions(*solved) == frozenset(expected)

    def test_singular_compatible_is_infinite(self):
        # the zero row reads 0 = 0; the right-hand side elsewhere is 1/3
        a = [[0, 0], [0, 1]]
        with pytest.raises(InfiniteSolutionsError):
            solve_congruence_numerators(a, [0, 1], 3)

    def test_singular_incompatible_has_no_solution(self):
        # the zero row reads 0 = 2/3
        a = [[0, 0], [0, 1]]
        with pytest.raises(NoSolutionError):
            solve_congruence_numerators(a, [2, 0], 3)

    def test_canonical_representatives(self):
        # b = (-1/2, 7/3) over q = 6
        a = [[1, 0], [0, 3]]
        s, sols = solve_congruence_numerators(a, [-3, 14], 6)
        assert all(0 <= x < s for point in sols for x in point)
        assert len(sols) == 3
        assert_solves(a, [Fraction(-1, 2), Fraction(7, 3)], as_fractions(s, sols))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=-5, max_value=5), min_size=4, max_size=4),
            min_size=4,
            max_size=4,
        )
    )
    def test_solution_count_is_det(self, rows):
        det = determinant(rows)
        if det == 0 or abs(det) > 400:
            return
        assert len(solve_congruence_numerators(rows, [0, 0, 0, 0], 1)[1]) == abs(det)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**30))
    def test_solutions_solve_the_system_and_survive_unimodular_rows(self, seed):
        rng = random.Random(seed)
        a, det, b, c, q = random_system(rng)
        sols = as_fractions(*solve_congruence_numerators(a, c, q))
        assert len(sols) == abs(det)
        assert_solves(a, b, sols)
        u = random_unimodular(rng)
        uc = [sum(k * ci for k, ci in zip(row, c)) for row in u]
        assert as_fractions(*solve_congruence_numerators(mat_mul(u, a), uc, q)) == sols


class TestSolveCongruenceNumerators:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**30))
    def test_numerators_over_s_are_the_rational_solutions(self, seed):
        rng = random.Random(seed)
        a, det, b, c, q = random_system(rng)
        # Any multiple of the denominators will do, not only their lcm.
        k = rng.choice((1, 2, 5))
        s, numerators = solve_congruence_numerators(a, [x * k for x in c], q * k)
        assert s == q * k * abs(det)
        assert len(numerators) == len(set(numerators)) == abs(det)
        assert all(0 <= x < s for point in numerators for x in point)
        # |det A| distinct solutions are all of them.
        divided = as_fractions(s, numerators)
        assert_solves(a, b, divided)
        assert divided == as_fractions(*solve_congruence_numerators(a, c, q))

    def test_singular_compatible_is_infinite(self):
        with pytest.raises(InfiniteSolutionsError):
            solve_congruence_numerators([[0, 0], [0, 1]], [0, 0], 1)

    def test_singular_incompatible_has_no_solution(self):
        with pytest.raises(NoSolutionError):
            solve_congruence_numerators([[0, 0], [0, 1]], [1, 0], 2)

    def test_vector_length_must_match(self):
        with pytest.raises(ValueError, match="vector length"):
            solve_congruence_numerators([[1, 0], [0, 1]], [0], 1)
