import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, lcm
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cytk import torusq
from cytk.cli import _quotient_json, _quotient_text
from cytk.surface import DuValMultiset, orbifold_c2
from cytk.torusq import (
    _L8_A,
    _L8_B,
    _L8_C,
    _L8_SHIFT_B,
    _L8_SHIFT_C,
    _CANONICAL_POWER_SUMS,
    _MUL_I,
    _MUL_J,
    _MUL_J2,
    _MUL_W,
    _SWAP,
    _block_diag,
    _determinant,
    _fixed_numerators,
    _image,
    _linear,
    _mat_mul,
    _order,
    _traces,
    _translation_entry,
    BUILTIN_EXPECTED,
    CAP,
    ActionValidationError,
    AffineTorusMap,
    TorusAction,
    action_from_json,
    builtin_action,
    builtin_actions,
    close_group,
    load_action,
    quotient_singularities,
)

from congruence_reference import (
    InfiniteSolutionsError,
    NoSolutionError,
    determinant,
    rows,
    solve_congruence_numerators,
)

HALF = Fraction(1, 2)
ZERO4 = (Fraction(0),) * 4
NEG_ID = tuple(tuple(-int(i == j) for j in range(4)) for i in range(4))
ID4 = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
NEG_ID_JSON = [list(row) for row in NEG_ID]
IDENTITY = (ID4, ZERO4)

EXPECTED_FIXED_POINTS = {2: 16, 3: 9, 4: 4, 6: 1}


# ----------------------------------------------------------------------
# A reference in Fraction arithmetic on (linear, translation) pairs.


def _mul4(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4))
        for i in range(4)
    )


def _affine(m, t, v):
    """m v + t mod Z^4 in Fraction arithmetic."""
    return tuple(
        (sum((Fraction(x) * y for x, y in zip(row, v)), Fraction(0)) + s) % 1
        for row, s in zip(m, t)
    )


def pair(g):
    return g.linear, g.translation


def pairs(action):
    """The action's elements as (rows, Fraction translation) pairs, the form
    the reference works on."""
    den = action.denominator
    return [
        (rows(linear), tuple(Fraction(x, den) for x in shift))
        for linear, shift in action.elements
    ]


def least_point(orbit):
    """The orbit's least point as Fractions."""
    return tuple(Fraction(n, d) for n, d in orbit.coordinates)


def compose(g, h):
    """g o h on pairs: (M1, t1)(M2, t2) = (M1 M2, M1 t2 + t1)."""
    return _mul4(g[0], h[0]), _affine(g[0], g[1], h[1])


def power(g, n):
    result = IDENTITY
    for _ in range(n):
        result = compose(result, g)
    return result


def order(g):
    """The least n >= 1 with g^n the identity, for g of order at most 12."""
    return next(n for n in range(1, 13) if power(g, n) == IDENTITY)


def fixed_points(g):
    """The fixed points of g = (M, t) on the torus, as Fraction tuples: the
    solutions of (M - I) x = -t mod Z^4 from
    arith.solve_congruence_numerators, over the denominator of t."""
    linear, translation = g
    den = lcm(*(t.denominator for t in translation))
    a = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(linear)]
    c = [-t.numerator * (den // t.denominator) for t in translation]
    s, points = solve_congruence_numerators(a, c, den)
    return {tuple(Fraction(x, s) for x in point) for point in points}


def minus_identity(translation=ZERO4):
    return AffineTorusMap(NEG_ID, translation)


class TestAffineTorusMap:
    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            AffineTorusMap(tuple(tuple(2 * int(i == j) for j in range(4)) for i in range(4)), ZERO4)

    def test_translation_canonicalized(self):
        g = AffineTorusMap(NEG_ID_JSON, (Fraction(3, 2), Fraction(-1, 4), 0, -3))
        assert g.linear == NEG_ID
        assert g.translation == (HALF, Fraction(3, 4), 0, 0)
        assert all(type(t) is Fraction for t in g.translation)
        kept = Fraction(5, 7)  # already in [0, 1): no second Fraction is built
        assert AffineTorusMap(ID4, (kept, 0, 0, 0)).translation[0] is kept

    def test_rejects_a_non_integer_linear_entry(self):
        # as WeightSystem does: -1.9 is not truncated to -1
        linear = ((-1.9, 0, 0, 0),) + ID4[1:]
        with pytest.raises(TypeError, match="'float' object cannot be interpreted"):
            AffineTorusMap(linear, ZERO4)

    @pytest.mark.parametrize("t", [0.1, 0.5, "1/2"], ids=["float", "exact-float", "string"])
    def test_rejects_a_translation_coordinate_that_is_not_rational(self, t):
        # 0.1 is not read as its binary fraction 3602879701896397/2**55
        with pytest.raises(TypeError, match="object is not a rational number"):
            AffineTorusMap(ID4, (t, 0, 0, 0))

    def test_composition_rule(self):
        # (M1,t1)(M2,t2) = (M1 M2, M1 t2 + t1): the closure of a and b'
        # holds a b' = (AB, A t_b) and b' a = (BA, t_b).
        a, b_shift = _linear(_L8_A), AffineTorusMap(_L8_B, _L8_SHIFT_B)
        table = set(pairs(close_group([a, b_shift])))
        a_b = (_mul4(a.linear, b_shift.linear), _affine(a.linear, ZERO4, _L8_SHIFT_B))
        b_a = (_mul4(b_shift.linear, a.linear), _L8_SHIFT_B)
        assert compose(pair(a), pair(b_shift)) == a_b and a_b in table
        assert compose(pair(b_shift), pair(a)) == b_a and b_a in table
        assert all(compose(g, h) in table for g in table for h in table)

    def test_order(self):
        def order_of(linear, shift=(0, 0, 0, 0), den=1):
            """The order of (M, t), M given by its rows and t by its
            numerators over den."""
            return _order(sum(linear, ()), shift, den)

        assert order_of(NEG_ID) == 2
        assert order_of(ID4) == 1
        # The translation counts: x -> x + 1/2 has order 2, and
        # x -> -x + 1/3 is still an involution.
        assert order_of(ID4, (1, 0, 0, 0), 2) == 2
        assert order_of(NEG_ID, (1, 0, 0, 0), 3) == 2
        assert order_of(ID4, (1, 0, 0, 0), 5) == 5
        assert order_of(tuple(map(tuple, _SWAP))) == 4


class TestFixedPoints:
    def test_involution_has_16(self):
        points = fixed_points(pair(minus_identity()))
        assert len(points) == 16
        assert all(set(p) <= {0, HALF} for p in points)

    def test_order_three_diagonal_has_9(self):
        g = pair(_linear(_block_diag(_MUL_J, _MUL_J2)))
        assert order(g) == 3
        assert len(fixed_points(g)) == 9

    def test_order_four_has_4_and_order_six_has_1(self):
        from cytk.torusq import _MUL_W_INV

        b = pair(_linear(_SWAP))
        assert order(b) == 4
        assert len(fixed_points(b)) == 4
        d = pair(_linear(_block_diag(_MUL_W, _MUL_W_INV)))
        assert order(d) == 6
        assert len(fixed_points(d)) == 1

    def test_pure_nontrivial_translation_has_none(self):
        with pytest.raises(NoSolutionError):
            fixed_points((ID4, (HALF, 0, 0, 0)))

    def test_identity_fixes_everything(self):
        with pytest.raises(InfiniteSolutionsError):
            fixed_points(IDENTITY)

    def test_count_equals_det_on_random_maps(self):
        rng = random.Random(20240811)
        denominators = (1, 2, 3, 4, 6)
        checked = 0
        while checked < 200:
            m = [[int(i == j) for j in range(4)] for i in range(4)]
            for _ in range(rng.randint(3, 12)):
                i, j = rng.sample(range(4), 2)
                q = rng.randint(-2, 2)
                m[i] = [x + q * y for x, y in zip(m[i], m[j])]
            if rng.random() < 0.5:
                m = [[-x for x in row] for row in m]
            delta = [
                [x - int(i == j) for j, x in enumerate(row)]
                for i, row in enumerate(m)
            ]
            det = determinant(delta)
            if det == 0 or abs(det) > 300:
                continue
            t = tuple(
                Fraction(rng.randrange(d), d)
                for d in (rng.choice(denominators) for _ in range(4))
            )
            g = pair(AffineTorusMap(tuple(tuple(r) for r in m), t))
            points = fixed_points(g)
            assert len(points) == abs(det)
            # |det(M - I)| distinct points, each fixed, are all of them
            assert all(_affine(*g, point) == point for point in points)
            checked += 1


class TestCloseGroup:
    def test_single_involution_group(self):
        action = close_group([minus_identity()])
        assert action.order == 2

    def test_nontrivial_translation_rejected(self):
        with pytest.raises(ActionValidationError, match="translation"):
            close_group([AffineTorusMap(ID4, (HALF, 0, 0, 0))])

    def test_multiple_involutions_rejected(self):
        with pytest.raises(ActionValidationError, match="involution"):
            close_group([minus_identity(), minus_identity((HALF, 0, 0, 0))])

    def test_infinite_group_hits_cap(self):
        shear = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        with pytest.raises(ActionValidationError, match="^not finite within cap 48$"):
            close_group([_linear(shear)])
        # A valid group has at most 24 elements, half the bound.
        assert CAP == 48 and max(a.order for a in builtin_actions()) == 24

    def test_order_five_rejected(self):
        # companion matrix of x^4+x^3+x^2+x+1: an order-5 lattice action
        m = [[0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]]
        with pytest.raises(ActionValidationError, match="^element of forbidden order 5$"):
            close_group([AffineTorusMap(tuple(tuple(r) for r in m), ZERO4)])

    def test_noncanonical_order_three_rejected(self):
        # Finite orders with an eigenvalue-1 plane: each fixes a curve on
        # the torus.  Order 3 first, then orders 2, 4 and 6.
        order_three = [[0, -1, 0, 0], [1, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        diagonal = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
        plane_identity = [[1, 0], [0, 1]]
        for m in (
            order_three,
            diagonal,
            _block_diag(_MUL_I, plane_identity),
            _block_diag(_MUL_W, plane_identity),
        ):
            with pytest.raises(ActionValidationError, match="realification"):
                close_group([AffineTorusMap(tuple(tuple(r) for r in m), ZERO4)])

    def test_two_traces_single_out_the_canonical_polynomials(self):
        # A linear part of finite order has as characteristic polynomial a
        # product of cyclotomic polynomials Phi_n of total degree 4, so
        # phi(n) <= 4: n in {1, 2, 3, 4, 5, 6, 8, 10, 12}.  Of the 24 such
        # products, each pair in the table is reached by the realification
        # of its order alone.  Coefficients highest degree first; Newton's
        # identities give p1 = e1 and p2 = e1 p1 - 2 e2 from the elementary
        # symmetric functions e_k = (-1)^k c_k.
        cyclotomic = {
            1: (1, -1), 2: (1, 1), 3: (1, 1, 1), 4: (1, 0, 1), 6: (1, -1, 1),
            5: (1, 1, 1, 1, 1), 8: (1, 0, 0, 0, 1), 10: (1, -1, 1, -1, 1),
            12: (1, 0, -1, 0, 1),
        }
        canonical = {1: (1,) * 4, 2: (2,) * 4, 3: (3, 3), 4: (4, 4), 6: (6, 6)}

        def poly_mul(a, b):
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
            return out

        reached = {}
        for size in range(1, 5):
            for factors in combinations_with_replacement(sorted(cyclotomic), size):
                poly = [1]
                for n in factors:
                    poly = poly_mul(poly, cyclotomic[n])
                if len(poly) != 5:
                    continue
                _, c1, c2, c3, c4 = poly
                e1, e2 = -c1, c2
                pair = (e1, e1 * e1 - 2 * e2)
                # the traces of its companion matrix, as close_group takes them
                assert _traces(sum(map(tuple, companion(c4, c3, c2, c1)), ())) == pair
                reached.setdefault(pair, []).append(factors)
        assert sum(map(len, reached.values())) == 24
        assert {n: reached[pair] for n, pair in _CANONICAL_POWER_SUMS.items()} == {
            n: [factors] for n, factors in canonical.items()
        }

    def test_bd8_presentation(self):
        a = _linear(_L8_A)
        b_shift = AffineTorusMap(_L8_B, _L8_SHIFT_B)
        assert close_group([a, b_shift]).order == 8
        # a^2 = b'^2 = (b'a)^2, the binary dihedral presentation
        a, b_shift = pair(a), pair(b_shift)
        assert power(a, 2) == power(b_shift, 2) == power(compose(b_shift, a), 2)


class TestBuiltinActions:
    def test_all_ten_multisets(self):
        for action in builtin_actions():
            report = quotient_singularities(action)
            assert report.multiset == BUILTIN_EXPECTED[action.label], action.label

    def test_fixed_point_counts_by_order(self):
        for action in builtin_actions():
            for g in pairs(action):
                if g == IDENTITY:
                    continue
                assert len(fixed_points(g)) == EXPECTED_FIXED_POINTS[order(g)]

    def test_fixed_point_count_equals_det(self):
        for action in builtin_actions():
            for g in pairs(action):
                if g == IDENTITY:
                    continue
                delta = [
                    [x - int(i == j) for j, x in enumerate(row)]
                    for i, row in enumerate(g[0])
                ]
                assert len(fixed_points(g)) == abs(determinant(delta))

    def test_even_order_groups_have_one_involution_with_16_points(self):
        for action in builtin_actions():
            involutions = [
                g
                for g in pairs(action)
                if g != IDENTITY and compose(g, g) == IDENTITY
            ]
            if action.order % 2 == 0:
                assert len(involutions) == 1
                assert len(fixed_points(involutions[0])) == 16
            else:
                assert involutions == []

    def test_burnside_consistency(self):
        for action in builtin_actions():
            report = quotient_singularities(action)
            points = set()
            for g in pairs(action):
                if g != IDENTITY:
                    points.update(fixed_points(g))
            assert sum(orbit.size for orbit in report.orbits) == len(points)
            for orbit in report.orbits:
                assert orbit.size * orbit.stabilizer_order == action.order

    def test_orbifold_c2_vanishes_for_all_quotients(self):
        for action in builtin_actions():
            report = quotient_singularities(action)
            assert orbifold_c2(report.multiset) == 0

    def test_group_orders(self):
        orders = {a.label: a.order for a in builtin_actions()}
        assert orders == {
            "kummer": 2,
            "z3-diagonal": 3,
            "z4-square": 4,
            "z6-diagonal": 6,
            "bd8-shifted": 8,
            "bd8-gaussian": 8,
            "bd8-linear": 8,
            "bd12-linear": 12,
            "bt24-shifted": 24,
            "bt24-linear": 24,
        }

    def test_stabilizer_keyed_by_its_sorted_orders(self):
        # Each stabilizer is named from the sorted orders of its elements,
        # and an unknown key is refused: here the identity of the Kummer
        # action is given order 2, so that every point has stabilizer (2, 2).
        kummer = builtin_action("kummer")
        classes = [o.stabilizer_class for o in quotient_singularities(kummer).orbits]
        assert classes == ["Z2"] * 16
        forged = TorusAction(
            "forged", kummer.generators, kummer.elements, kummer.denominator, (2, 2)
        )
        with pytest.raises(ActionValidationError, match=r"^unrecognized stabilizer \(2, 2\)$"):
            quotient_singularities(forged)

    def test_bd12_sixteen_point_decomposition(self):
        # the involution's 16 fixed points split as 1 + 3a + 6c with a = 3
        # orbits of A3 points and c = 1 orbit of A1 points
        report = quotient_singularities(builtin_action("bd12-linear"))
        a3_orbits = [o for o in report.orbits if str(o.du_val) == "A3"]
        a1_orbits = [o for o in report.orbits if str(o.du_val) == "A1"]
        assert len(a3_orbits) == 3 and len(a1_orbits) == 1
        assert 1 + 3 * len(a3_orbits) + 6 * len(a1_orbits) == 16


class TestLatticeModelOracles:
    """Derivation checks for the shipped lattice matrices: lattice
    preservation is built in (integer entries); translation-part relations
    and fixed-point counts pin the models down."""

    def setup_method(self):
        self.a = pair(_linear(_L8_A))
        self.b = pair(_linear(_L8_B))
        self.b_shift = pair(AffineTorusMap(_L8_B, _L8_SHIFT_B))
        self.c_shift = pair(AffineTorusMap(_L8_C, _L8_SHIFT_C))

    def test_translation_identities(self):
        a, bp, cp = self.a, self.b_shift, self.c_shift
        neg = power(a, 2)
        assert neg != IDENTITY and power(neg, 2) == IDENTITY
        for element in (power(bp, 2), power(compose(bp, a), 2), power(cp, 3)):
            assert element == neg  # translation parts all vanish
        assert compose(compose(a, cp), bp) == cp
        assert compose(compose(a, bp), cp) == compose(cp, a)

    def test_shifted_and_linear_cases_differ_on_common_fixed_points(self):
        fixed_a = fixed_points(self.a)
        assert len(fixed_a) == 4
        assert not any(_affine(*self.b_shift, p) == p for p in fixed_a)
        assert all(_affine(*self.b, p) == p for p in fixed_a)

    def test_gaussian_case_has_two_common_fixed_points(self):
        from cytk.torusq import _MUL_I_INV

        a4 = pair(_linear(_block_diag(_MUL_I, _MUL_I_INV)))
        b4 = pair(_linear(_SWAP))
        common = [p for p in fixed_points(a4) if _affine(*b4, p) == p]
        assert len(common) == 2

    def test_bd12_relation(self):
        from cytk.torusq import _MUL_W_INV

        b = pair(_linear(_SWAP))
        d = pair(_linear(_block_diag(_MUL_W, _MUL_W_INV)))
        b_inv = power(b, 3)
        assert compose(compose(b, d), b_inv) == power(d, 5)


class TestActionIO:
    def test_round_trip_through_json(self, tmp_path):
        data = {
            "label": "kummer-from-file",
            "generators": [
                {
                    "linear": [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
                    "translation": ["0", "0", "0", "0"],
                }
            ],
        }
        path = tmp_path / "action.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        action = load_action(str(path))
        assert action.order == 2
        assert quotient_singularities(action).multiset == DuValMultiset.parse("16A1")

    def test_fraction_translations_parsed(self):
        data = {
            "label": "bd8",
            "generators": [
                {"linear": [list(r) for r in _L8_A], "translation": ["0", "0", "0", "0"]},
                {
                    # Signed and integer entries, reduced mod 1 to (1/2, 1/2, 0, 0).
                    "linear": [list(r) for r in _L8_B],
                    "translation": ["-1/2", "+3/2", "7", "0"],
                },
            ],
        }
        action = action_from_json(data)
        assert action.generators[1].translation == _L8_SHIFT_B
        assert action.order == 8

    def test_malformed_description_rejected(self):
        with pytest.raises(ActionValidationError):
            action_from_json({"generators": [{"linear": [[1]]}]})

    @pytest.mark.parametrize(
        "generators, message",
        [
            ("[]", 'generators "[]" is not a list'),
            (
                [{"linear": "1000", "translation": ["0"] * 4}],
                'linear part "1000" is not a list',
            ),
            (
                [{"linear": ["-1000"] * 4, "translation": ["0"] * 4}],
                'linear row "-1000" is not a list',
            ),
            (
                [{"linear": NEG_ID_JSON, "translation": "0000"}],
                'translation "0000" is not a list',
            ),
            (
                [{"linear": NEG_ID_JSON, "translation": {"1/2": 0, "0": 1, "2/3": 2, "5": 3}}],
                'translation {"1/2": 0, "0": 1, "2/3": 2, "5": 3} is not a list',
            ),
        ],
        ids=["generators", "linear", "row", "string-translation", "object-translation"],
    )
    def test_json_arrays_must_be_lists(self, generators, message):
        """A string is not read character by character, nor an object by its
        keys: -I with either translation would be accepted as 16A1."""
        with pytest.raises(ActionValidationError) as info:
            action_from_json({"generators": generators})
        assert str(info.value) == f"malformed action description: {message}"

    @pytest.mark.parametrize(
        "entry", ["1e-5000", "0.5", "1/2 ", " 1", "1_0", "1/-2", "+-1", "/2", "\u0661"]
    )
    def test_translation_must_be_an_integer_or_p_q_string(self, entry):
        """Fraction() also reads exponents and decimals: "1e-5000" would
        expand to a 5001-digit representative, and its cost would grow
        with the exponent's value."""
        generators = [{"linear": NEG_ID_JSON, "translation": [entry, "0", "0", "0"]}]
        with pytest.raises(ActionValidationError) as info:
            action_from_json({"generators": generators})
        assert str(info.value) == (
            "malformed action description: "
            f'translation entry {json.dumps(entry)} is not a "p/q" string'
        )

    def test_invalid_json_file_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ActionValidationError):
            load_action(str(path))


# ----------------------------------------------------------------------
# Closure against the original algorithm, and invariance under changes of
# lattice coordinates.


def reference_closure(generators, cap=CAP):
    """The closure as first written: a LIFO frontier whose every new element
    is multiplied by every known one on both sides, in Fraction arithmetic
    on (linear, translation) pairs.  Returns the sorted pairs."""
    elements = {IDENTITY}
    frontier = [pair(g) for g in generators]
    while frontier:
        g = frontier.pop()
        if g in elements:
            continue
        elements.add(g)
        if len(elements) > cap:
            raise ActionValidationError(f"not finite within cap {cap}")
        for h in list(elements):
            for product in (compose(g, h), compose(h, g)):
                if product not in elements:
                    frontier.append(product)
    return sorted(elements)


def elementary(i, j, k):
    """I + k e_ij; its inverse is elementary(i, j, -k)."""
    return tuple(tuple(int(r == c) + k * (r == i and c == j) for c in range(4)) for r in range(4))


def random_change(rng, steps=6, bound=2, denominator=12):
    """(P, P^-1, s): P a product of ``steps`` elementary matrices with
    multipliers 0 < |k| <= bound, s in (1/denominator) Z^4."""
    p, p_inv = ID4, ID4
    for _ in range(steps):
        i, j = rng.sample(range(4), 2)
        k = rng.choice([x for x in range(-bound, bound + 1) if x])
        p, p_inv = _mul4(p, elementary(i, j, k)), _mul4(elementary(i, j, -k), p_inv)
    s = tuple(Fraction(rng.randrange(denominator), denominator) for _ in range(4))
    return p, p_inv, s


def conjugate(g, change):
    """h g h^-1 for h = (P, s): linear P M P^-1, translation
    P t + s - (P M P^-1) s."""
    p, p_inv, s = change
    linear = _mul4(_mul4(p, g.linear), p_inv)
    moved = _affine(linear, ZERO4, s)
    translation = tuple(a + b - c for a, b, c in zip(_affine(p, ZERO4, g.translation), s, moved))
    return AffineTorusMap(linear, translation)


BUILTIN_NAMES = sorted(BUILTIN_EXPECTED)


def builtin_and_conjugates(name, count=2):
    """The builtin's generators, then ``count`` seeded conjugates of them."""
    generators = builtin_action(name).generators
    rng = random.Random(f"conjugate:{name}")
    yield generators
    for _ in range(count):
        change = random_change(rng)
        yield tuple(conjugate(g, change) for g in generators)


# The products close_group takes for each builtin's generators.
CLOSURE_PRODUCTS = {
    "kummer": 1,
    "z3-diagonal": 2,
    "z4-square": 3,
    "z6-diagonal": 5,
    "bd8-shifted": 8,
    "bd8-gaussian": 8,
    "bd8-linear": 8,
    "bd12-linear": 13,
    "bt24-shifted": 28,
    "bt24-linear": 28,
}


class TestClosureAndConjugation:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_closure_matches_reference(self, name):
        for generators in builtin_and_conjugates(name):
            action = close_group(generators, label=name)
            assert pairs(action) == reference_closure(generators)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_elements_unimodular_and_orders_stored(self, name):
        for generators in builtin_and_conjugates(name):
            action = close_group(generators, label=name)
            assert len(action.orders) == len(action.elements)
            for g, n in zip(pairs(action), action.orders):
                assert abs(determinant(g[0])) == 1
                assert n == order(g)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_conjugates_keep_order_multiset_and_orbits(self, name):
        builtin = quotient_singularities(builtin_action(name))
        orbit_sizes = sorted(orbit.size for orbit in builtin.orbits)
        for generators in list(builtin_and_conjugates(name))[1:]:
            report = quotient_singularities(close_group(generators, label=name))
            assert report.group_order == builtin.group_order
            assert report.multiset == builtin.multiset == BUILTIN_EXPECTED[name]
            assert sorted(orbit.size for orbit in report.orbits) == orbit_sizes

    def test_conjugated_infinite_order_rejected_quickly(self):
        # [[2,1],[1,1]] + I has infinite order; conjugated, the closure must
        # still reach the cap within a few hundred products.
        cat_map = AffineTorusMap(
            ((2, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), ZERO4
        )
        rng = random.Random(20260418)
        for _ in range(6):
            generator = conjugate(cat_map, random_change(rng))
            start = perf_counter()
            with pytest.raises(ActionValidationError, match="cap"):
                close_group([generator])
            assert perf_counter() - start < 0.5

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_closure_costs_under_two_products_an_element(self, monkeypatch, name):
        # One product per element of each new coset and one per coset
        # representative and enlarging generator; a change of coordinates
        # changes neither.
        calls = []

        def counted(a, b):
            calls.append(None)
            return _mat_mul(a, b)

        monkeypatch.setattr(torusq, "_mat_mul", counted)
        counts = []
        for generators in builtin_and_conjugates(name):
            calls.clear()
            order = close_group(generators, label=name).order
            counts.append(len(calls))
        assert counts == [CLOSURE_PRODUCTS[name]] * 3
        assert counts[0] < 2 * order

    def test_infinite_group_rejected_in_the_coset_stage(self):
        # The order-4 swap and a conjugate of an order-3 generator: both of
        # finite order, the group they generate infinite.  The first gives a
        # subgroup of 4, and the cap is reached while cosets of it are added.
        swap = _linear(_SWAP)
        rotation = _linear(_block_diag(_MUL_J, _MUL_J2))
        rng = random.Random(20261021)
        generators = [swap, conjugate(rotation, random_change(rng))]
        with pytest.raises(ActionValidationError, match="^not finite within cap 48$"):
            reference_closure(generators)
        start = perf_counter()
        with pytest.raises(ActionValidationError, match="^not finite within cap 48$"):
            close_group(generators)
        assert perf_counter() - start < 0.5

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(BUILTIN_NAMES),
        st.booleans(),
        st.lists(st.integers(0, 23), max_size=4),
        st.lists(st.integers(0, 5), max_size=3),
        st.randoms(use_true_random=False),
    )
    def test_closure_matches_reference_on_any_generator_list(
        self, name, conjugated, contained, repeated, rng
    ):
        # The generators permuted, some repeated, and elements of the group,
        # the identity one of them, added: the group is the same.
        generators = list(builtin_and_conjugates(name, 1))[conjugated]
        group = pairs(close_group(generators))
        extra = [AffineTorusMap(*group[i % len(group)]) for i in contained]
        extra += [generators[i % len(generators)] for i in repeated]
        listed = [*generators, *extra]
        rng.shuffle(listed)
        action = close_group(listed)
        assert pairs(action) == reference_closure(listed) == group

    def test_wide_change_of_coordinates_stays_fast(self):
        # Cost follows the size of the input in bits: conjugating by a P
        # whose entries run to about 800 bits leaves the quotient unchanged
        # and costs milliseconds.
        rng = random.Random(800)
        p, p_inv = ID4, ID4
        for step in range(8):
            i, j = step % 4, (step + 1) % 4
            k = rng.getrandbits(100) | 1 << 99
            p, p_inv = _mul4(p, elementary(i, j, k)), _mul4(elementary(i, j, -k), p_inv)
        assert max(abs(x).bit_length() for row in p for x in row) >= 790
        s = tuple(Fraction(rng.randrange(12), 12) for _ in range(4))
        generators = [
            conjugate(g, (p, p_inv, s)) for g in builtin_action("bt24-shifted").generators
        ]
        start = perf_counter()
        report = quotient_singularities(close_group(generators))
        assert perf_counter() - start < 0.5
        assert report.multiset == BUILTIN_EXPECTED["bt24-shifted"]


# ----------------------------------------------------------------------
# Orbits computed in integers against the Fraction reference above.

elementary_steps = st.lists(
    st.tuples(
        st.permutations(range(4)).map(lambda p: p[:2]),
        st.sampled_from([-2, -1, 1, 2]),
    ),
    max_size=6,
)
shifts = st.tuples(*[st.integers(0, 11)] * 4)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(BUILTIN_NAMES), elementary_steps, shifts)
def test_orbits_match_fraction_apply(name, steps, shift):
    p, p_inv = ID4, ID4
    for (i, j), k in steps:
        p, p_inv = _mul4(p, elementary(i, j, k)), _mul4(elementary(i, j, -k), p_inv)
    change = (p, p_inv, tuple(Fraction(x, 12) for x in shift))
    generators = [conjugate(g, change) for g in builtin_action(name).generators]
    action = close_group(generators, label=name)
    report = quotient_singularities(action)
    assert report.multiset == BUILTIN_EXPECTED[name]
    for orbit in report.orbits:
        point = least_point(orbit)
        images = [_affine(*g, point) for g in pairs(action)]
        assert len(set(images)) == orbit.size
        assert images.count(point) == orbit.stabilizer_order
        assert min(images) == point


# ----------------------------------------------------------------------
# The closed forms that validation makes possible, against the general
# algorithms they replace.


def actions_and_conjugates(count=5):
    """The ten builtins, then ``count`` seeded conjugates of each."""
    for name in BUILTIN_NAMES:
        for generators in builtin_and_conjugates(name, count):
            yield close_group(generators, label=name)


class TestClosedForms:
    def test_fixed_points_match_the_reference_solver(self):
        actions = list(actions_and_conjugates())
        assert len(actions) == 60
        for action in actions:
            den = action.denominator
            for (linear, shift), g, n in zip(action.elements, pairs(action), action.orders):
                if n not in (2, 3):
                    continue
                numerators = _fixed_numerators(linear, shift, den, n)
                closed = {tuple(Fraction(x, den) for x in point) for point in numerators}
                assert len(closed) == len(numerators) == EXPECTED_FIXED_POINTS[n]
                assert closed == fixed_points(g)

    def test_one_denominator_six_times_the_lcm(self):
        for action in actions_and_conjugates():
            translations = [t for g in action.generators for t in g.translation]
            assert action.denominator == 6 * lcm(*(t.denominator for t in translations))

    def test_replies_and_elements_are_pinned(self):
        # The --json replies and the elements of all 60 actions, the latter
        # as (rows, Fraction translation) pairs, pinned byte for byte.
        replies, elements = hashlib.sha256(), hashlib.sha256()
        for action in actions_and_conjugates():
            report = quotient_singularities(action)
            replies.update(_quotient_json(report, orbifold_c2(report.multiset)).encode())
            elements.update(repr(pairs(action)).encode())
        assert replies.hexdigest() == (
            "e23adbbe0faef84963291e9873c1b7572499d9d1ce1bf1340067c49de5b54589"
        )
        assert elements.hexdigest() == (
            "547da1ead2d8aeedda0a5a0dd5b983b42bfac7a125a8e3716d31bc4cd19fdb38"
        )

    def test_text_replies_are_pinned(self):
        # The text replies of all 60 actions, pinned byte for byte: each
        # coordinate of a representative prints as "p/q", or "p" for q = 1.
        replies = hashlib.sha256()
        for action in actions_and_conjugates():
            report = quotient_singularities(action)
            replies.update(_quotient_text(report, orbifold_c2(report.multiset)).encode())
        assert replies.hexdigest() == (
            "606bb594a016b75d666129bc61f9c4d348f3805d05b7994a46111a1896ddbc34"
        )

    def test_elements_are_the_sorted_integer_table(self):
        for action in actions_and_conjugates():
            den = action.denominator
            assert len(action.elements) == action.order == len(action.orders)
            assert list(action.elements) == sorted(action.elements)
            for linear, shift in action.elements:
                assert len(linear) == 16 and all(type(x) is int for x in linear)
                assert len(shift) == 4
                assert all(type(x) is int and 0 <= x < den for x in shift)

    def test_coordinates_are_the_reference_least_points(self):
        # The least point of each orbit of the Fraction reference: the fixed
        # points of every non-identity element from the general solver, in
        # orbits under the Fraction action.
        for action in actions_and_conjugates():
            elements = pairs(action)
            points = set()
            for g in elements:
                if g != IDENTITY:
                    points.update(fixed_points(g))
            least = sorted({min(_affine(*g, p) for g in elements) for p in points})
            orbits = quotient_singularities(action).orbits
            assert [least_point(orbit) for orbit in orbits] == least
            for orbit in orbits:
                for n, d in orbit.coordinates:
                    assert gcd(n, d) == 1 and action.denominator % d == 0

    def test_orders_from_power_sums_match_the_walk(self):
        for action in actions_and_conjugates():
            den = action.denominator
            for (linear, shift), n in zip(action.elements, action.orders):
                assert n == _order(linear, shift, den)
                m = rows(linear)
                traces = tuple(sum(p[i][i] for i in range(4)) for p in (m, _mul4(m, m)))
                assert _traces(linear) == traces == _CANONICAL_POWER_SUMS[n]

    def test_flat_products_match_nested_loops(self):
        # The written-out 16-term expressions on flat matrices against
        # plain loops over rows, on wide and negative entries.
        rng = random.Random(1616)
        for bits in (2, 5, 70, 300):
            for _ in range(200):
                a, b = (
                    tuple(rng.randrange(-(1 << bits), 1 << bits) for _ in range(16))
                    for _ in range(2)
                )
                ra, rb = rows(a), rows(b)
                product = [[0] * 4 for _ in range(4)]
                for i in range(4):
                    for j in range(4):
                        for k in range(4):
                            product[i][j] += ra[i][k] * rb[k][j]
                assert rows(_mat_mul(a, b)) == tuple(map(tuple, product))

                den = rng.randrange(1, 1 << bits)
                shift = [rng.randrange(-den, den) for _ in range(4)]
                vector = [rng.randrange(-den, den) for _ in range(4)]
                image = list(shift)
                for i in range(4):
                    for k in range(4):
                        image[i] += ra[i][k] * vector[k]
                assert _image(a, shift, vector, den) == tuple(x % den for x in image)

                traces = tuple(sum(p[i][i] for i in range(4)) for p in (ra, _mul4(ra, ra)))
                assert _traces(a) == traces

    def test_determinant_matches_bareiss(self):
        rng = random.Random(44)
        for bits in (2, 3, 200):
            for _ in range(300):
                m = tuple(
                    tuple(rng.randrange(-(1 << bits), 1 << bits) for _ in range(4))
                    for _ in range(4)
                )
                assert _determinant(m) == determinant(m)
        for change in (random_change(rng) for _ in range(50)):
            assert _determinant(change[0]) == 1 == determinant(change[0])

    @given(
        st.tuples(
            st.sampled_from(["", "+", "-"]),
            st.integers(0, 10**30),
            st.one_of(st.none(), st.integers(1, 10**30)),
        )
    )
    def test_translation_entry_reads_as_fraction_would(self, parts):
        sign, numerator, denominator = parts
        text = f"{sign}{numerator}" + ("" if denominator is None else f"/{denominator}")
        # read as Fraction reads it, and taken mod Z as the generator keeps it
        entry = _translation_entry(text)
        assert entry == Fraction(text) % 1
        assert type(entry) is Fraction


I4_JSON = [list(row) for row in ID4]
NO_SHIFT = ["0", "0", "0", "0"]


def companion(c0, c1, c2, c3):
    """The companion matrix of x^4 + c3 x^3 + c2 x^2 + c1 x + c0."""
    return [[0, 0, 0, -c0], [1, 0, 0, -c1], [0, 1, 0, -c2], [0, 0, 1, -c3]]


@pytest.mark.parametrize(
    "generators, message",
    [
        (
            [{"linear": [[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
              "translation": NO_SHIFT}],
            "not finite within cap 48",
        ),
        (
            [{"linear": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
              "translation": NO_SHIFT}],
            "linear part of an order-2 element is not an SL(2,C) realification",
        ),
        (
            [{"linear": NEG_ID_JSON, "translation": NO_SHIFT},
             {"linear": NEG_ID_JSON, "translation": ["1/2", "0", "0", "0"]}],
            "multiple involutions (3)",
        ),
        (
            [{"linear": _block_diag(_MUL_J, _MUL_J2), "translation": NO_SHIFT},
             {"linear": I4_JSON, "translation": ["1/3", "0", "2/3", "0"]}],
            "contains nontrivial translation",
        ),
        (
            [{"linear": I4_JSON, "translation": ["0", "1/5", "0", "0"]}],
            "contains nontrivial translation",
        ),
        ([{"linear": companion(1, 1, 1, 1), "translation": NO_SHIFT}],
         "element of forbidden order 5"),
        ([{"linear": companion(1, 0, 0, 0), "translation": NO_SHIFT}],
         "element of forbidden order 8"),
        ([{"linear": companion(1, 0, -1, 0), "translation": NO_SHIFT}],
         "element of forbidden order 12"),
    ],
    ids=[
        "infinite-order", "not-sl2c", "two-involutions", "translation-with-rotation",
        "translation", "order-5", "order-8", "order-12",
    ],
)
def test_rejection_text_by_kind(generators, message):
    """Each kind of invalid group is rejected with its own text, also after
    a change of lattice coordinates (the infinite-order generator is sent
    as it is, which keeps its closure quick)."""
    rng = random.Random(f"reject:{message}")
    changes = [None] if message.startswith("not finite") else [None, *(
        random_change(rng) for _ in range(3)
    )]
    for change in changes:
        maps = [
            AffineTorusMap(
                tuple(map(tuple, g["linear"])), tuple(map(Fraction, g["translation"]))
            )
            for g in generators
        ]
        if change is not None:
            maps = [conjugate(g, change) for g in maps]
        document = {
            "generators": [
                {
                    "linear": [list(row) for row in g.linear],
                    "translation": [str(t) for t in g.translation],
                }
                for g in maps
            ]
        }
        with pytest.raises(ActionValidationError) as info:
            action_from_json(document)
        assert str(info.value) == message
