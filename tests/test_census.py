import hashlib
import io
import json
from json.encoder import encode_basestring_ascii
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cytk.census import (
    BOOL_TEXT,
    N3,
    N4,
    CensusSummary,
    census_lines,
    format_record,
    json_array,
    json_template,
    write_csv,
    write_json,
)
from cytk.cli import main
from cytk.wps import WeightSystem

PERFBENCH_DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"
KS_LIST = PERFBENCH_DATA / "kreuzer_skarke_wp4.txt"
CENSUS_DATA = Path(__file__).resolve().parent / "data" / "census"

SAMPLE = [
    "5 1 1 1 1 1",
    "120 3 7 20 40 50",
    "1734 91 96 102 578",
]

# one line per failure reason, with the reasons the census gives it
FAILURE_CASES = [
    ("junk line", ["no degree/weight integers found"]),
    ("7", ["no degree/weight integers found"]),
    ("0 1 1 1 1 1", ["degree and weights must be positive"]),
    ("5 -1 1 1 1 1", ["degree and weights must be positive"]),
    ("5 1 1", ["expected 4 or 5 weights, got 2"]),
    ("8 1 1 1 1 1 1 1", ["expected 4 or 5 weights, got 7"]),
    ("9 1 1 3 4", ["4-weight record with odd degree"]),
    ("10 1 2 2 5", ["4-weight record already contains d/2"]),
    ("8 1 1 1 2", ["degree 8 is not the weight sum 9"]),
    ("9 1 1 3 3 7", ["degree 9 is not the weight sum 15"]),
    ("10 2 2 2 2 2", ["weights must be globally coprime"]),
    ("16 2 2 2 2", ["weights must be globally coprime"]),
    ("9 1 1 1 1 5", ["not quasismooth"]),
    ("14 1 1 4 4 4", ["not quasismooth", "not wellformed"]),
]


def read(lines):
    """The (line, degree, weights, origin) of each verdict, and the failures."""
    summary, verdicts = census_lines(lines)
    records = [(v.line, v.degree, v.weights, v.origin) for v in verdicts]
    return records, list(summary.failures)


def verdict(line):
    """The verdict of a one-line list that holds a record."""
    _, (v,) = census_lines([line])
    return v


class TestParseDatabase:
    def test_four_weight_record(self):
        assert read(["1734 91 96 102 578"]) == (
            [(1, 1734, (91, 96, 102, 578, 867), N3)],
            [],
        )

    def test_five_weight_record(self):
        assert read(["120 3 7 20 40 50"]) == ([(1, 120, (3, 7, 20, 40, 50), N4)], [])

    def test_comments_and_blanks_skipped(self):
        records, failures = read(["# comment", "", "  ", "5 1 1 1 1 1"])
        assert records == [(4, 5, (1, 1, 1, 1, 1), N4)]
        assert failures == []

    def test_trailing_tokens_ignored(self):
        assert read(["120 3 7 20 40 50 # nice one"]) == (
            [(1, 120, (3, 7, 20, 40, 50), N4)],
            [],
        )

    def test_bad_lines_collected_not_fatal(self):
        records, failures = read(["junk", "5 1 1", "8 1 1 1 1 1 1 1", "5 1 1 1 1 1"])
        assert [line for line, *_ in records] == [4]
        assert [line for line, _ in failures] == [1, 2, 3]

    @pytest.mark.parametrize(
        "token",
        ["9" * 5000, "+" + "9" * 5000, "1_" * 4400 + "1"],
        ids=["digits", "signed", "underscored"],
    )
    def test_integer_over_the_digit_limit_fails_its_line(self, token):
        # int() refuses the token, which must not end the record early: the
        # line would read as the 4-weight record 20; 1,2,3,4,10
        records, failures = read([f"20 1 2 3 4 {token}", "5 1 1 1 1 1"])
        assert failures == [(1, "integer over the 4300-digit limit")]
        assert [line for line, *_ in records] == [2]

    @pytest.mark.parametrize(
        "line, reason",
        [
            (
                "20 1 2 3 4 " + "9" * 4300,
                "degree 20 is not the weight sum 1" + "0" * 39 + "... (4301 digits)",
            ),
            (
                "20 1 2 3 4 " + "9" * 4299,
                "degree 20 is not the weight sum 1" + "0" * 39 + "... (4300 digits)",
            ),
            (
                "1" + "0" * 40 + " 1 1 1 1 1",
                "degree 1" + "0" * 39 + "... (41 digits) is not the weight sum 5",
            ),
            ("9" * 40 + " 1 1 1 1 1", f"degree {'9' * 40} is not the weight sum 5"),
        ],
        ids=["sum-4301-digits", "sum-4300-digits", "degree-41-digits", "degree-40-digits"],
    )
    def test_wide_integer_in_a_failure_is_cut_to_40_digits(self, line, reason):
        assert read([line]) == ([], [(1, reason)])

    def test_odd_degree_four_weights_rejected(self):
        assert read(["9 1 1 3 4"]) == ([], [(1, "4-weight record with odd degree")])

    def test_trivial_variable_rejected(self):
        _, failures = read(["10 1 2 2 5"])
        assert "d/2" in failures[0][1]


class TestNormalize:
    """census_lines completes a 4-weight record with the weight d/2 and
    requires d = sum(w); format_record writes the record back."""

    def test_appends_half_degree(self):
        v = verdict("1734 91 96 102 578")
        assert v.weights == (91, 96, 102, 578, 867)
        assert v.origin == N3

    def test_five_weights_pass_through(self):
        v = verdict("120 3 7 20 40 50")
        assert v.weights == (3, 7, 20, 40, 50)
        assert v.origin == N4

    def test_small_example(self):
        assert verdict("10 1 1 1 2").weights == (1, 1, 1, 2, 5)

    def test_wrong_sum_rejected(self):
        assert read(["8 1 1 1 2"]) == ([], [(1, "degree 8 is not the weight sum 9")])

    def test_round_trip(self):
        for line in ("1734 91 96 102 578", "120 3 7 20 40 50"):
            v = verdict(line)
            assert format_record(v.degree, v.weights) == line

    def test_distinct_records_stay_distinct(self):
        a = verdict("1734 91 96 102 578")
        b = verdict("1734 91 96 102 578 867")
        assert (a.degree, a.weights) == (b.degree, b.weights)
        assert (a.origin, b.origin) == (N3, N4)
        assert a != b


class TestRecordFormat:
    def test_leaves_out_one_half_degree_weight(self):
        assert format_record(10, (1, 1, 1, 2, 5)) == "10 1 1 1 2"
        assert format_record(4, (1, 1, 2)) == "4 1 1"
        assert format_record(5, (1, 1, 1, 1, 1)) == "5 1 1 1 1 1"
        assert format_record(120, (3, 7, 20, 40, 50)) == "120 3 7 20 40 50"

    def test_ks_list_lines_are_formatted_records(self):
        lines = KS_LIST.read_text(encoding="utf-8").splitlines()
        summary, verdicts = census_lines(lines)
        assert summary.failures == ()
        assert len(verdicts) == sum(
            1 for line in lines if line.strip() and not line.startswith("#")
        )
        for v in verdicts:
            assert format_record(v.degree, v.weights) == lines[v.line - 1]

    @pytest.mark.parametrize("line, reasons", FAILURE_CASES)
    def test_census_failure_reasons(self, line, reasons):
        summary, verdicts = census_lines(["# header", line])
        assert summary.failures == tuple((2, reason) for reason in reasons)
        evaluated = reasons[0].startswith("not ")  # parsed, then failed a predicate
        assert summary.total == len(verdicts) == int(evaluated)


class TestRunCensus:
    def test_three_record_sample(self):
        summary, verdicts = census_lines(SAMPLE)
        assert summary.total == 3
        assert summary.not_smooth_codim2 == 2
        assert summary.not_smooth_codim2_and_no_edge == 2
        assert summary.failures == ()
        assert [(v.line, v.degree, v.weights, v.origin) for v in verdicts] == [
            (1, 5, (1, 1, 1, 1, 1), N4),
            (2, 120, (3, 7, 20, 40, 50), N4),
            (3, 1734, (91, 96, 102, 578, 867), N3),
        ]
        assert [v.smooth_in_codim2 for v in verdicts] == [True, False, False]

    def test_empty_input(self):
        summary, verdicts = census_lines([])
        assert (summary.total, summary.not_smooth_codim2) == (0, 0)
        assert summary.not_smooth_codim2_and_no_edge == 0
        assert verdicts == []

    def test_failures_are_counted(self):
        summary, _ = census_lines(["14 1 1 4 4 4"])  # not quasismooth
        assert summary.total == 1
        assert any("quasismooth" in reason for _, reason in summary.failures)

    def test_normalize_failures_are_reported(self):
        summary, _ = census_lines(["9 1 1 3 3 7"])  # degree is not the sum
        assert summary.total == 0
        assert len(summary.failures) == 1

    # Records are evaluated in the caller's process, so a second census in
    # the same process must not see anything the first one left behind.
    @pytest.mark.parametrize("passes", [1, 2])
    def test_ks_list_gives_golden_verdicts(self, passes):
        lines = KS_LIST.read_text(encoding="utf-8").splitlines()
        golden = (PERFBENCH_DATA / "golden_verdicts.csv").read_bytes()
        for _ in range(passes):
            _, verdicts = census_lines(lines)
            out = io.StringIO()
            write_csv(verdicts, out)
            assert out.getvalue().encode("utf-8") == golden


class TestExports:
    def test_csv_shape(self):
        summary, verdicts = census_lines(SAMPLE)
        out = io.StringIO()
        write_csv(verdicts, out)
        lines = out.getvalue().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("line,degree,w0")
        assert "1/10(1,9)" in lines[2]

    def test_json_round_trip(self):
        summary, verdicts = census_lines(SAMPLE)
        text = written_json(summary, verdicts)
        document = json.loads(text)
        assert json.dumps(document, sort_keys=True, indent=2) + "\n" == text
        assert document["summary"]["total"] == 3

    def test_verdict_values_match_module_predicates(self):
        from cytk import hypersurface

        # the sample, then a record failing both predicates and one failing
        # quasismoothness only
        _, verdicts = census_lines(SAMPLE + ["14 1 1 4 4 4", "9 1 1 1 1 5"])
        assert len(verdicts) == 5
        for v in verdicts:
            ws = WeightSystem(v.degree, v.weights)
            assert v.wellformed == hypersurface.is_wellformed_hypersurface(ws)
            assert v.quasismooth == hypersurface.is_quasismooth(ws)
            assert v.calabi_yau == hypersurface.is_calabi_yau_degree(ws)


def written_json(summary, verdicts):
    out = io.StringIO()
    write_json(summary, verdicts, out)
    return out.getvalue()


def reference_json(summary, verdicts):
    """The census document as the standard library's encoder writes it."""
    document = {
        "records": [v._asdict() for v in verdicts],
        "summary": {
            "failures": [
                {"line": line, "reason": reason} for line, reason in summary.failures
            ],
            "not_smooth_codim2": summary.not_smooth_codim2,
            "not_smooth_codim2_and_no_edge": summary.not_smooth_codim2_and_no_edge,
            "total": summary.total,
        },
    }
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


class TestWriteJson:
    """write_json fills templates; its text must be the encoder's, byte for
    byte."""

    @pytest.mark.parametrize("passes", [1, 2])
    def test_ks_list(self, passes):
        lines = KS_LIST.read_text(encoding="utf-8").splitlines()
        for _ in range(passes):
            summary, verdicts = census_lines(lines)
            assert written_json(summary, verdicts) == reference_json(summary, verdicts)

    def test_ks_list_digest(self):
        # the --json document of the KS list, pinned byte for byte
        summary, verdicts = census_lines(KS_LIST.read_text(encoding="utf-8").splitlines())
        digest = hashlib.sha256(written_json(summary, verdicts).encode("utf-8"))
        assert digest.hexdigest() == (
            "1994b9382b1a9ca4dc9f55514da1859d87b29fc5c5966f151adf048e894fbe0d"
        )

    def test_every_failure_reason(self):
        summary, verdicts = census_lines([line for line, _ in FAILURE_CASES])
        reasons = {reason for _, reasons in FAILURE_CASES for reason in reasons}
        assert {reason for _, reason in summary.failures} == reasons
        assert written_json(summary, verdicts) == reference_json(summary, verdicts)

    def test_empty_input(self):
        summary, verdicts = census_lines([])
        assert written_json(summary, verdicts) == reference_json(summary, verdicts)

    def test_several_curve_types(self):
        summary, verdicts = census_lines(["1734 91 96 102 578"])
        assert len(verdicts[0].singular_curve_types) == 3
        assert written_json(summary, verdicts) == reference_json(summary, verdicts)

    def test_reason_needing_escapes(self):
        summary = CensusSummary(
            total=1,
            not_smooth_codim2=1,
            not_smooth_codim2_and_no_edge=0,
            failures=((7, 'say "no"\\ then\tstop: \u00e9'),),
        )
        _, verdicts = census_lines(["120 3 7 20 40 50"])
        text = written_json(summary, verdicts)
        assert text == reference_json(summary, verdicts)
        assert json.loads(text)["summary"]["failures"][0]["reason"] == (
            'say "no"\\ then\tstop: \u00e9'
        )


# Strings that need escaping, or that hold a placeholder's "%", among others.
TEXTS = st.text(
    st.one_of(st.sampled_from('%sd"\\/\x00\x1f\x7f\u00e9\u2028\U0001f600'), st.characters())
)
# A key holds no "%": json_template reads every "%" as a placeholder.
KEYS = st.text(st.characters(blacklist_characters="%"), max_size=6)
LIMIT = 10**4300 - 1  # the widest int that prints within the digit limit
INTEGERS = st.one_of(st.integers(-1000, 1000), st.integers(-LIMIT, LIMIT))


@st.composite
def filled(draw, indent, depth):
    """(skeleton, document, fills) of a random JSON value that opens on a
    line indented by ``indent``: the document with each value a placeholder,
    the document, and the placeholders' fills in the order ``json.dumps``
    writes them with sorted keys.  An array of varying length is one "%s",
    filled by ``json_array`` with items laid out by ``json_template``."""
    kinds = ["text", "int", "bool", "ratio", "constant"]
    kind = draw(st.sampled_from(kinds + ["object", "fixed", "varying"] * (depth > 0)))
    inner = indent + "  "
    if kind == "text":
        value = draw(TEXTS)
        return "%s", value, [encode_basestring_ascii(value)]
    if kind == "int":
        value = draw(INTEGERS)
        return "%d", value, [value]
    if kind == "bool":
        value = draw(st.booleans())
        return "%s", value, [BOOL_TEXT[value]]
    if kind == "ratio":
        p, q = draw(INTEGERS), draw(INTEGERS)
        return "%d/%d", f"{p}/{q}", [p, q]
    if kind == "constant":
        value = draw(KEYS)
        return value, value, []
    if kind == "object":
        keys = draw(st.lists(KEYS, unique=True, max_size=4))
        children = {key: draw(filled(inner, depth - 1)) for key in keys}
        skeleton = {key: child[0] for key, child in children.items()}
        document = {key: child[1] for key, child in children.items()}
        fills = [fill for key in sorted(keys) for fill in children[key][2]]
        return skeleton, document, fills
    children = draw(st.lists(filled(inner, depth - 1), max_size=4))
    document = [child[1] for child in children]
    if kind == "fixed":
        fills = [fill for child in children for fill in child[2]]
        return [child[0] for child in children], document, fills
    items = [json_template(skeleton, inner) % tuple(fills) for skeleton, _, fills in children]
    return "%s", document, [json_array(items, indent)]


class TestJsonLayout:
    """json_template and json_array, filled as cytk fills them, give the
    text of json.dumps(..., sort_keys=True, indent=2), for values the
    goldens do not hold."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_filled_template_is_the_stdlib_layout(self, data):
        indent = " " * data.draw(st.integers(0, 6))
        skeleton, document, fills = data.draw(filled(indent, 3))
        expected = json.dumps(document, sort_keys=True, indent=2).replace("\n", "\n" + indent)
        assert json_template(skeleton, indent) % tuple(fills) == expected


class TestMixedList:
    """A list holding records, a record with an ignored tail, predicate
    failures before parse failures, and every parse failure: the census's
    stdout, CSV and JSON are pinned byte for byte, failures in line order."""

    def test_outputs_are_golden(self, capsys, tmp_path):
        csv_path, json_path = tmp_path / "mixed.csv", tmp_path / "mixed.json"
        argv = ["census", str(CENSUS_DATA / "mixed.txt")]
        code = main([*argv, "--csv", str(csv_path), "--json", str(json_path)])
        assert code == 0
        out = capsys.readouterr().out.encode("utf-8")
        assert out == (CENSUS_DATA / "mixed.stdout").read_bytes()
        assert csv_path.read_bytes() == (CENSUS_DATA / "mixed.csv").read_bytes()
        assert json_path.read_bytes() == (CENSUS_DATA / "mixed.json").read_bytes()

    def test_every_failure_reason_is_in_the_list(self):
        lines = (CENSUS_DATA / "mixed.txt").read_text(encoding="utf-8").splitlines()
        assert {line for line, _ in FAILURE_CASES} <= set(lines)
        assert "20 1 2 3 4 " + "9" * 4301 in lines  # over the digit limit


class TestDatabase:
    def test_database_counts(self, database_lines):
        if database_lines is None:
            pytest.skip("database file not present")
        summary, _ = census_lines(database_lines)
        assert summary.total == 7555
        assert summary.not_smooth_codim2 == 7238
        assert summary.not_smooth_codim2_and_no_edge == 2409
        assert summary.failures == ()
