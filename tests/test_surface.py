import sys
from fractions import Fraction
from pathlib import Path
from types import CodeType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cytk.surface import (
    EMPTY,
    _candidate_types,
    GATE_C2,
    GATE_TOO_MANY,
    K3_TYPE,
    NOT_REALIZED,
    REALIZED,
    REALIZED_VERDICT,
    DuValMultiset,
    DuValType,
    classify,
    enumerate_zero_c2,
    orbifold_c2,
)

# frozen after the first verified enumeration run (bound-stable, see below)
ZERO_C2_COUNT = 35
ZERO_C2_LIST = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "zero_c2.txt"


def deficiency(typ):
    """The definition of a type's summand k + 1 - 1/r, in Fractions."""
    return typ.k + 1 - Fraction(1, typ.r)


def fraction_zero_c2(max_k):
    """Test-only copy of the earlier search, in Fraction arithmetic and
    without pruning."""
    types = sorted(_candidate_types(max_k), key=deficiency, reverse=True)
    solutions, acc = [], []

    def descend(idx, remaining):
        if remaining == 0:
            solutions.append(DuValMultiset(tuple(acc)))
            return
        if idx == len(types):
            return
        term = deficiency(types[idx])
        for count in range(int(remaining / term), 0, -1):
            acc.append((types[idx], count))
            descend(idx + 1, remaining - count * term)
            acc.pop()
        descend(idx + 1, remaining)

    descend(0, Fraction(24))
    solutions.sort(key=lambda m: m.entries)
    return solutions


def nested_calls(fn, *args):
    """Calls made to the functions defined inside ``fn`` while it runs:
    its search nodes, plus a few per type and per solution (sort keys and
    generator expressions)."""
    nested = {c for c in fn.__code__.co_consts if isinstance(c, CodeType)}
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code in nested:
            calls += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


class TestDuValType:
    def test_local_group_orders(self):
        assert DuValType("A", 1).r == 2
        assert DuValType("A", 5).r == 6
        assert DuValType("D", 4).r == 8
        assert DuValType("D", 5).r == 12
        assert DuValType("E", 6).r == 24
        assert DuValType("E", 7).r == 48
        assert DuValType("E", 8).r == 120

    def test_curve_counts(self):
        assert DuValType("A", 3).k == 3
        assert DuValType("E", 8).k == 8

    def test_invalid_types_rejected(self):
        with pytest.raises(ValueError):
            DuValType("D", 3)
        with pytest.raises(ValueError):
            DuValType("E", 9)
        with pytest.raises(ValueError):
            DuValType("B", 2)


class TestMultisetGrammar:
    def test_parse_and_render(self):
        assert str(DuValMultiset.parse("16A1")) == "16A1"
        assert str(DuValMultiset.parse("2A3+11A1")) == "2A3+11A1"
        assert str(DuValMultiset.parse("E6+D4+4A2+A1")) == "E6+D4+4A2+A1"

    def test_order_is_canonical(self):
        assert DuValMultiset.parse("11A1+2A3") == DuValMultiset.parse("2A3+11A1")

    def test_repeated_entries_merge(self):
        assert DuValMultiset.parse("A1+A1") == DuValMultiset.parse("2A1")

    def test_bad_grammar_rejected(self):
        for text in ("16A0", "A", "2F4", "A1++A2", ""):
            with pytest.raises(ValueError):
                DuValMultiset.parse(text)

    def test_sum_k(self):
        assert DuValMultiset.parse("5A4").sum_k == 20
        assert DuValMultiset.parse("2A3+11A1").sum_k == 17


class TestOrbifoldC2:
    def test_sixteen_nodes(self):
        assert orbifold_c2(DuValMultiset.parse("16A1")) == 0

    def test_sixteen_nodes_euler_number_regression(self):
        # resolve 16 nodes: e_top = 24 - 16*2 + 16 = 8, then subtract 16*(1/2)
        e_top = 24 - 16 * 2 + 16
        assert e_top == 8
        assert e_top - 16 * Fraction(1, 2) == 0
        assert orbifold_c2(DuValMultiset.parse("16A1")) == e_top - 16 * Fraction(1, 2)

    def test_two_a3_eleven_a1(self):
        assert orbifold_c2(DuValMultiset.parse("2A3+11A1")) == 0

    def test_empty_multiset(self):
        assert orbifold_c2(EMPTY) == 24

    def test_mixed_families(self):
        assert orbifold_c2(DuValMultiset.parse("E6+D4+4A2+A1")) == 0

    def test_single_node(self):
        assert orbifold_c2(DuValMultiset.parse("A1")) == Fraction(45, 2)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(
                    [DuValType("A", n) for n in range(1, 8)]
                    + [DuValType("D", n) for n in (4, 5, 6)]
                    + [DuValType("E", n) for n in (6, 7, 8)]
                ),
                st.integers(min_value=1, max_value=4),
            ),
            max_size=5,
        ),
        st.lists(
            st.tuples(
                st.sampled_from([DuValType("A", n) for n in range(1, 6)]),
                st.integers(min_value=1, max_value=4),
            ),
            max_size=5,
        ),
    )
    def test_additivity_of_deficiency_sum(self, left, right):
        m1 = DuValMultiset(tuple(left))
        m2 = DuValMultiset(tuple(right))
        merged = DuValMultiset(m1.entries + m2.entries)
        assert orbifold_c2(merged) == orbifold_c2(m1) + orbifold_c2(m2) - 24

    @staticmethod
    def fraction_c2(multiset):
        """The definition, summed in Fractions."""
        return 24 - sum(count * deficiency(typ) for typ, count in multiset)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(_candidate_types(19)),
                st.integers(min_value=1, max_value=16),
            ),
            max_size=6,
        )
    )
    def test_integer_sum_is_the_fraction_definition(self, entries):
        multiset = DuValMultiset(tuple(entries))
        assert orbifold_c2(multiset) == self.fraction_c2(multiset)

    @pytest.mark.parametrize(
        "text", ["E6", "E7", "E8", "16E8", "E8+E7+E6", "16E6+16E7+16E8+16A19+16D19"]
    )
    def test_integer_sum_on_the_exceptional_types(self, text):
        multiset = DuValMultiset.parse(text)
        assert orbifold_c2(multiset) == self.fraction_c2(multiset)

    def test_integer_sum_on_the_empty_multiset(self):
        assert orbifold_c2(EMPTY) == self.fraction_c2(EMPTY) == 24
        assert orbifold_c2(EMPTY).denominator == 1

    def test_integer_sum_on_the_zero_c2_list(self):
        multisets = enumerate_zero_c2()
        assert len(multisets) == ZERO_C2_COUNT
        for multiset in multisets:
            assert orbifold_c2(multiset) == self.fraction_c2(multiset) == 0


class TestGate:
    def test_five_a4_excluded_by_picard_bound(self):
        assert classify(DuValMultiset.parse("5A4")).gate == GATE_TOO_MANY

    def test_sixteen_nodes_possible(self):
        assert classify(DuValMultiset.parse("16A1")).gate is None

    def test_single_node_excluded_by_c2(self):
        assert classify(DuValMultiset.parse("A1")).gate == GATE_C2

    def test_zero_c2_needs_no_lower_bound_on_curves(self):
        # Every c2 = 0 multiset has at least 16 curves, so the gate excludes
        # one only for c2 != 0 or for more than 19 curves.
        multisets = enumerate_zero_c2()
        assert min(m.sum_k for m in multisets) == 16
        for multiset in multisets:
            expected = GATE_TOO_MANY if multiset.sum_k > 19 else None
            assert classify(multiset).gate == expected
        assert any(m.sum_k > 19 for m in multisets)


class TestClassify:
    def test_realized_entry(self):
        result = classify(DuValMultiset.parse("4A3+6A1"))
        assert result.verdict == REALIZED_VERDICT
        assert result.entry == 3
        assert result.label == "E x E / Z4"

    def test_not_realized(self):
        assert classify(DuValMultiset.parse("2A3+11A1")).verdict == NOT_REALIZED

    def test_k3_type(self):
        assert classify(DuValMultiset.parse("3A1")).verdict == K3_TYPE

    def test_all_ten_realized(self):
        for number, label, multiset in REALIZED:
            result = classify(multiset)
            assert result.verdict == REALIZED_VERDICT
            assert result.entry == number

    def test_realized_implies_gate_possible(self):
        for _, _, multiset in REALIZED:
            assert classify(multiset).gate is None

    def test_ten_multisets_have_16_to_19_curves_and_zero_c2(self):
        for _, _, multiset in REALIZED:
            assert orbifold_c2(multiset) == 0
            assert 16 <= multiset.sum_k <= 19

    @pytest.mark.parametrize(
        "text", ["A1", "3A1", "A5+A3", "2A3+11A1", "5A4", "16A1", "E6+D4+4A2+A1"]
    )
    def test_report_carries_c2_and_sum_k(self, text):
        multiset = DuValMultiset.parse(text)
        result = classify(multiset)
        assert result.c2 == orbifold_c2(multiset)
        assert result.sum_k == multiset.sum_k


class TestEnumerateZeroC2:
    def test_contains_the_ten_realized(self):
        solutions = enumerate_zero_c2()
        for _, _, multiset in REALIZED:
            assert multiset in solutions

    def test_contains_the_two_impossible_examples(self):
        solutions = enumerate_zero_c2()
        assert DuValMultiset.parse("5A4") in solutions
        assert DuValMultiset.parse("2A3+11A1") in solutions

    def test_count_regression(self):
        assert len(enumerate_zero_c2()) == ZERO_C2_COUNT

    def test_all_solutions_have_zero_c2(self):
        for multiset in enumerate_zero_c2():
            assert orbifold_c2(multiset) == 0

    def test_bound_is_stable(self):
        # entries with k in [20, 23] cannot complete to 24 exactly
        assert enumerate_zero_c2(max_k=23) == enumerate_zero_c2()

    def test_deterministic_order(self):
        assert enumerate_zero_c2() == enumerate_zero_c2()

    @pytest.mark.parametrize("max_k", range(1, 24))
    def test_equals_the_fraction_search(self, max_k):
        assert enumerate_zero_c2(max_k) == fraction_zero_c2(max_k)

    def test_matches_the_shipped_list_line_for_line(self):
        lines = ZERO_C2_LIST.read_text(encoding="utf-8").splitlines()
        expected = [line for line in lines if line and not line.startswith("#")]
        assert [str(m) for m in enumerate_zero_c2()] == expected

    def test_gcd_prune_bounds_the_search(self):
        # 2335 nodes with the suffix gcd; without pruning, 18205.
        assert nested_calls(enumerate_zero_c2) < 3000


class TestConditionalFlag:
    def test_small_multisets_are_conditional(self):
        assert classify(DuValMultiset.parse("3A1")).conditional
        assert classify(DuValMultiset.parse("A5+A3")).conditional

    def test_eleven_curves_not_conditional(self):
        assert not classify(DuValMultiset.parse("11A1")).conditional
        assert not classify(DuValMultiset.parse("16A1")).conditional
