"""Acceptance suite: one test per criterion, each printing a PASS line
with the exact values it checked (run with ``pytest -v -s`` to see them).

Criteria needing the full weight-system database fall back to the
three-record sample when data/kreuzer_skarke_wp4.txt is absent.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from cytk.arith import is_pair_partitionable, is_partitionable
from cytk.census import census_lines
from cytk.cli import main
from cytk.hypersurface import (
    c2_lower_bound,
    examine,
    is_calabi_yau_degree,
)
from cytk.surface import (
    GATE_TOO_MANY,
    NOT_REALIZED,
    REALIZED,
    DuValMultiset,
    classify,
    enumerate_zero_c2,
    orbifold_c2,
)
from cytk.torusq import (
    BUILTIN_EXPECTED,
    AffineTorusMap,
    builtin_actions,
    quotient_singularities,
)
from cytk.wps import CyclicQuotientType, WeightSystem

from conftest import SAMPLE_LINES
from congruence_reference import determinant, rows, solve_congruence_numerators


def report(criterion: str, detail: str) -> None:
    print(f"[acceptance] {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def census_result(database_lines):
    lines = database_lines if database_lines is not None else SAMPLE_LINES
    summary, verdicts = census_lines(lines)
    return database_lines is not None, summary, verdicts


def test_criterion_1_census_counts(census_result):
    full, summary, _ = census_result
    if full:
        assert summary.total == 7555
        assert summary.not_smooth_codim2 == 7238
        assert summary.not_smooth_codim2_and_no_edge == 2409
        assert summary.failures == ()
        report(
            "criterion 1 (census)",
            "full database: 7555 records, 7238 not smooth in codim 2, 2409 edge-free",
        )
    else:
        assert summary.total == 3
        assert summary.not_smooth_codim2 == 2
        assert summary.not_smooth_codim2_and_no_edge == 2
        assert summary.failures == ()
        report("criterion 1 (census)", "3-record sample: 3/2/2")


def test_criterion_2_hypersurface_examples():
    x1734 = WeightSystem(1734, (91, 96, 102, 578, 867))
    _, quasismooth, locus = examine(x1734)
    assert quasismooth
    assert [c.quotient for c in locus.singular_curves] == [
        CyclicQuotientType(17, (6, 11)),
        CyclicQuotientType(3, (1, 2)),
        CyclicQuotientType(2, (1, 1)),
    ]
    assert locus.contained_edges == ()

    x120 = WeightSystem(120, (3, 7, 20, 40, 50))
    _, quasismooth, locus = examine(x120)
    assert quasismooth
    assert [c.quotient for c in locus.singular_curves] == [
        CyclicQuotientType(10, (3, 7))
    ]

    x56 = WeightSystem(56, (2, 4, 9, 13, 28))
    wellformed, quasismooth, locus = examine(x56)
    assert wellformed and quasismooth
    assert [e.zeroed for e in locus.contained_edges] == [(0, 1, 4)]

    x7 = WeightSystem(7, (1, 1, 1, 2, 2))
    _, quasismooth, locus = examine(x7)
    assert quasismooth
    assert [e.zeroed for e in locus.contained_edges] == [(0, 1, 2)]
    report(
        "criterion 2 (hypersurface examples)",
        "X1734 three curves and no edge; X120 one curve; X56 edge (0,1,4); "
        "X7 edge (0,1,2)",
    )


def test_criterion_3_c2_suite():
    for _, _, multiset in REALIZED:
        assert orbifold_c2(multiset) == 0
    five_a4 = DuValMultiset.parse("5A4")
    impossible = DuValMultiset.parse("2A3+11A1")
    assert orbifold_c2(five_a4) == 0
    assert orbifold_c2(impossible) == 0
    assert classify(five_a4).gate == GATE_TOO_MANY
    assert classify(impossible).verdict == NOT_REALIZED
    assert orbifold_c2(DuValMultiset(())) == 24
    report(
        "criterion 3 (c2 formula suite)",
        "c2 = 0 on the ten realized multisets, 5A4 and 2A3+11A1; "
        "5A4 excluded by sum k > 19; 2A3+11A1 not realized; c2(empty) = 24",
    )


EXPECTED_FIXED_POINTS = {2: 16, 3: 9, 4: 4, 6: 1}


def fixed_point_count(linear, shift, den):
    """The number of x with M x + t = x mod Z^4, t given by its numerators
    over den: the solutions of (M - I) x = -t."""
    a = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(linear)]
    return len(solve_congruence_numerators(a, [-t for t in shift], den)[1])


def test_criterion_4_torus_quotients():
    actions = builtin_actions()
    assert len(actions) == 10
    for action in actions:
        # validated at construction: cap, order whitelist, single involution,
        # no translations, canonical linear parts
        report_data = quotient_singularities(action)
        assert report_data.multiset == BUILTIN_EXPECTED[action.label]
        assert orbifold_c2(report_data.multiset) == 0
        for (linear, shift), n in zip(action.elements, action.orders):
            if n > 1:
                count = fixed_point_count(rows(linear), shift, action.denominator)
                assert count == EXPECTED_FIXED_POINTS[n]
    report(
        "criterion 4 (torus quotients)",
        "ten actions validated; fixed points 16/9/4/1 by order; "
        "quotient multisets match with c2 = 0",
    )


def test_criterion_5a_fixed_point_counts_on_random_maps():
    rng = random.Random(987654321)
    checked = 0
    while checked < 200:
        m = [[int(i == j) for j in range(4)] for i in range(4)]
        for _ in range(rng.randint(3, 14)):
            i, j = rng.sample(range(4), 2)
            q = rng.randint(-2, 2)
            m[i] = [x + q * y for x, y in zip(m[i], m[j])]
        if rng.random() < 0.5:
            m = [[-x for x in row] for row in m]
        delta = [[x - int(i == j) for j, x in enumerate(row)] for i, row in enumerate(m)]
        det = determinant(delta)
        if det == 0 or abs(det) > 250:
            continue
        translation = tuple(
            Fraction(rng.randrange(q), q) for q in (rng.choice((1, 2, 3, 4, 6)) for _ in range(4))
        )
        g = AffineTorusMap(tuple(tuple(row) for row in m), translation)
        den = lcm(*(t.denominator for t in g.translation))
        shift = [t.numerator * (den // t.denominator) for t in g.translation]
        assert fixed_point_count(g.linear, shift, den) == abs(det)
        checked += 1
    report("criterion 5a (fixed points = |det(M-I)|)", "200 random valid maps")


def brute_force_partitionable(target, parts):
    from itertools import product as iproduct

    ranges = [range(target // p + 1) for p in parts]
    return any(
        sum(a * p for a, p in zip(alphas, parts)) == target
        for alphas in iproduct(*ranges)
    )


def test_criterion_5b_partition_matches_brute_force():
    rng = random.Random(24601)
    cases = 0
    for _ in range(400):
        parts = tuple(
            rng.randint(1, 60) for _ in range(rng.randint(2, 3))
        )
        for target in range(0, 201, rng.randint(1, 7)):
            found = (
                is_partitionable(target, parts)
                if len(parts) == 3
                else is_pair_partitionable(target, *parts)
            )
            assert found == brute_force_partitionable(target, parts)
            cases += 1
    report(
        "criterion 5b (partition DP vs brute force)",
        f"{cases} queries with targets <= 200",
    )


def test_criterion_5c_c2_bound_identity(census_result):
    _, _, verdicts = census_result
    assert verdicts
    for verdict in verdicts:
        w = verdict.weights
        d = verdict.degree
        q = sum(x * x for x in w)
        s = sum(w[i] * w[j] for i, j in combinations(range(5), 2))
        squares = sum((w[i] - w[j]) ** 2 for i, j in combinations(range(5), 2))
        assert d * (4 * q - 2 * s) == d * squares
    report(
        "criterion 5c (bound identity d(4q-2s) = d*sum (wi-wj)^2)",
        f"checked on {len(verdicts)} census records",
    )


def test_criterion_5d_census_parallelism_invariance(database_lines, tmp_path, capsys):
    lines = database_lines if database_lines is not None else SAMPLE_LINES
    source = tmp_path / "weights.txt"
    source.write_text("\n".join(lines) + "\n", encoding="utf-8")
    outputs = []
    for jobs in ("1", "8"):
        csv_path, json_path = tmp_path / f"{jobs}.csv", tmp_path / f"{jobs}.json"
        argv = ["census", str(source), "--jobs", jobs]
        assert main(argv + ["--csv", str(csv_path), "--json", str(json_path)]) == 0
        stdout = capsys.readouterr().out
        outputs.append((stdout, csv_path.read_bytes(), json_path.read_bytes()))
    assert outputs[0] == outputs[1]
    report(
        "criterion 5d (--jobs invariance)",
        f"census --jobs 1 vs 8 byte-identical over {len(lines)} lines",
    )


def test_criterion_6_positive_bound_on_qualifying_records(census_result):
    full, _, verdicts = census_result
    qualifying = 0
    for verdict in verdicts:
        if not (
            verdict.wellformed
            and verdict.quasismooth
            and verdict.calabi_yau
            and verdict.contains_no_edge
        ):
            continue
        if len(set(verdict.weights)) == 1:
            continue
        ws = WeightSystem(verdict.degree, verdict.weights)
        assert is_calabi_yau_degree(ws)
        bound = c2_lower_bound(ws)
        assert bound.positive and bound.lower_bound > 0
        qualifying += 1
    if full:
        # the paper's 2409 are exactly the qualifying records that are also
        # not smooth in codimension 2
        core = sum(
            1
            for v in verdicts
            if v.wellformed
            and v.quasismooth
            and v.calabi_yau
            and v.contains_no_edge
            and not v.smooth_in_codim2
            and len(set(v.weights)) > 1
        )
        assert core == 2409
        assert qualifying >= 2409
    report(
        "criterion 6 (strict positivity of the c2 bound)",
        f"{qualifying} qualifying records, all strictly positive",
    )
