import json
import os
import subprocess
import sys
import threading
import time
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cytk import cli, torusq
from cytk.arith import is_pair_partitionable
from cytk.cli import main


KUMMER_ACTION = {
    "label": "kummer",
    "generators": [
        {
            "linear": [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
            "translation": ["0", "0", "0", "0"],
        }
    ],
}


ID4 = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
# (z1, z2) -> (z2, -z1), of order 4 with any translation.
SWAP4 = [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]


def nested_object(depth):
    value = {}
    for _ in range(depth):
        value = {"a": value}
    return value

# An infinite group: its closure stops at the bound of 48 elements.
SHEAR_ACTION = {
    "generators": [
        {
            "linear": [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            "translation": ["0", "0", "0", "0"],
        }
    ]
}

# Reports of the builtin actions, text and --json, one file each.
TORUS_GOLDEN = Path(__file__).resolve().parent / "data" / "torus"
SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_x1734_verdicts(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "1734", "91", "96", "102", "578", "867"
        )
        assert code == 0
        assert "wellformed:        yes" in out
        assert "quasismooth:       yes" in out
        assert "smooth in codim 2: no" in out
        assert "contains no edge:  yes" in out
        assert out.count("singular curve") == 3

    def test_quintic_all_smooth(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "5", "1", "1", "1", "1", "1")
        assert code == 0
        assert "singular" not in out
        assert "c2 lower bound: 0 (= 0)" in out

    def test_x56_contains_edge(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "56", "2", "4", "9", "13", "28")
        assert code == 0
        assert "contained edge zeroed=[0, 1, 4]" in out

    def test_large_degree_is_fast(self, capsys):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "analyze", "100000", "1", "2", "3", "5", "7")
        assert time.perf_counter() - start < 0.5
        assert code == 0
        assert "quasismooth:       yes" in out

    def test_large_quotient_order_is_fast(self, capsys):
        # the canonical form of the curve type 1/10^7(1, 1) does not walk
        # the units below 10^7
        start = time.perf_counter()
        code, out, _ = run_cli(
            capsys, "analyze", "30000002", "1", "1", "10000000", "10000000", "10000000"
        )
        assert time.perf_counter() - start < 0.5
        assert code == 0
        assert "singular curve zeroed=[0, 1] of type 1/10000000(1,1)" in out

    def test_condition_3_at_large_parts(self, capsys):
        # d = 1 + 2uvw and weights (1, 1, uv, vw, wu) for the primes u, v, w:
        # no pair of the three large weights partitions d, so the verdict
        # rests on the three-part walk of arith.is_partitionable
        u, v, w = 100003, 100019, 100043
        d, large = 1 + 2 * u * v * w, (u * v, v * w, w * u)
        assert (d, large) == (2001300200604903, (10002200057, 10006200817, 10004600129))
        code, out, _ = run_cli(
            capsys, "analyze", str(d), "1", "1", *map(str, large), "--json"
        )
        assert code == 0
        document = json.loads(out)
        assert document["wellformed"] and document["quasismooth"]
        assert not any(is_pair_partitionable(d, a, b) for a, b in combinations(large, 2))
        assert [e["free_weights"] for e in document["contained_edges"]] == [
            [u * v, v * w],
            [u * v, w * u],
            [v * w, w * u],
        ]

    def test_condition_3_at_primes_near_10_9(self, capsys):
        # the same shape at u, v, w = 10^9 + 7, + 9, + 21, where a loop up to
        # a part's period would run for minutes: a subprocess with a timeout
        # fails on such a relapse instead of hanging
        argv = [
            "analyze", "2000000074000000798000002647", "1", "1",
            "1000000016000000063", "1000000030000000189", "1000000028000000147",
            "--json",
        ]
        result = subprocess.run(
            [sys.executable, "-m", "cytk", *argv],
            capture_output=True, text=True, timeout=60,
        )
        assert (result.returncode, result.stderr) == (0, "")
        document = json.loads(result.stdout)
        assert document["wellformed"] and document["quasismooth"]
        edges = document["contained_edges"]
        assert len(edges) == 3 and all(e["singular"] for e in edges)
        start = time.perf_counter()
        assert run_cli(capsys, *argv)[:2] == (0, result.stdout)
        assert time.perf_counter() - start < 0.1

    def test_invalid_weights_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "10", "2", "2", "2", "2", "2")
        assert code == 2
        assert "error" in err

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "120", "3", "7", "20", "40", "50", "--json"
        )
        assert code == 0
        assert json.dumps(json.loads(out), sort_keys=True, indent=2) == out.strip()
        document = json.loads(out)
        assert document["c2_lower_bound"] == {"value": "839/7000", "positive": True}
        assert document["singular_curves"] == [{"zeroed": [0, 1], "type": "1/10(1,9)"}]

    def test_json_matches_human_verdicts(self, capsys):
        _, out_json, _ = run_cli(
            capsys, "analyze", "56", "2", "4", "9", "13", "28", "--json"
        )
        document = json.loads(out_json)
        _, out_human, _ = run_cli(capsys, "analyze", "56", "2", "4", "9", "13", "28")
        for key, label in [
            ("wellformed", "wellformed"),
            ("quasismooth", "quasismooth"),
            ("contains_no_edge", "contains no edge"),
        ]:
            word = "yes" if document[key] else "no"
            assert f"{label}:" in out_human
            line = next(l for l in out_human.splitlines() if f"{label}:" in l)
            assert line.endswith(word)


class TestCensus:
    def test_sample_file(self, capsys, tmp_path):
        sample = tmp_path / "sample.txt"
        sample.write_text(
            "5 1 1 1 1 1\n120 3 7 20 40 50\n1734 91 96 102 578\n", encoding="utf-8"
        )
        code, out, _ = run_cli(capsys, "census", str(sample))
        assert code == 0
        assert "records analyzed:                3" in out
        assert "not smooth in codimension 2:     2" in out
        assert "no edge:      2" in out

    def test_empty_file(self, capsys, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        code, out, _ = run_cli(capsys, "census", str(empty))
        assert code == 0
        assert "records analyzed:                0" in out

    def test_exports(self, capsys, tmp_path):
        sample = tmp_path / "sample.txt"
        sample.write_text("120 3 7 20 40 50\n", encoding="utf-8")
        csv_path = tmp_path / "table.csv"
        json_path = tmp_path / "table.json"
        code, _, _ = run_cli(
            capsys,
            "census",
            str(sample),
            "--csv",
            str(csv_path),
            "--json",
            str(json_path),
        )
        assert code == 0
        assert csv_path.read_text(encoding="utf-8").count("\n") == 2
        document = json.loads(json_path.read_text(encoding="utf-8"))
        assert document["summary"]["total"] == 1

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "census", str(tmp_path / "nope.txt"))
        assert code == 1
        assert "error" in err

    def test_non_utf8_file_is_io_error(self, capsys, tmp_path):
        sample = tmp_path / "latin1.txt"
        sample.write_bytes(b"5 1 1 1 1 1\n\xff\n")
        code, out, err = run_cli(capsys, "census", str(sample))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "0xff" in err

    def test_env_var_default(self, capsys, tmp_path, monkeypatch):
        sample = tmp_path / "db.txt"
        sample.write_text("5 1 1 1 1 1\n", encoding="utf-8")
        monkeypatch.setenv("CYTK_DATABASE", str(sample))
        code, out, _ = run_cli(capsys, "census")
        assert code == 0
        assert "records analyzed:                1" in out

    def test_explicit_path_beats_env_var(self, capsys, tmp_path, monkeypatch):
        sample = tmp_path / "k.txt"
        sample.write_text("5 1 1 1 1 1\n", encoding="utf-8")
        monkeypatch.setenv("CYTK_DATABASE", str(tmp_path / "nonexistent.txt"))
        code, out, _ = run_cli(capsys, "census", str(sample))
        assert code == 0
        assert "records analyzed:                1" in out

    @pytest.mark.parametrize("jobs", ["0", "-5", "x"])
    def test_jobs_below_one_exit_2(self, capsys, tmp_path, jobs):
        sample = tmp_path / "k.txt"
        sample.write_text("5 1 1 1 1 1\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exit_info:
            main(["census", str(sample), "--jobs", jobs])
        assert exit_info.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_parse_failures_keep_exit_zero(self, capsys, tmp_path):
        sample = tmp_path / "messy.txt"
        sample.write_text("garbage line\n5 1 1 1 1 1\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "census", str(sample))
        assert code == 0
        assert "failures (1):" in out

    @pytest.mark.parametrize(
        "data",
        [b"5 1 1 1 1 1\r\n120 3 7 20 40 50\r\ngarbage\n", b"6 1 1\r7\x0c8\n"],
    )
    def test_stdin_reads_like_a_file(self, capsys, tmp_path, data):
        sample = tmp_path / "sample.txt"
        sample.write_bytes(data)
        code, out, err = run_cli(capsys, "census", str(sample))
        result = run_in_c_locale(["census", "-"], data)
        assert (result.returncode, result.stdout, result.stderr) == (
            code,
            out.encode("utf-8"),
            err.encode("utf-8"),
        )

    def test_non_utf8_stdin_is_io_error(self):
        result = run_in_c_locale(["census", "-"], b"5 1 1 1 1 1\n\xff\n")
        assert result.returncode == cli.EXIT_IO
        assert result.stdout == b""
        assert result.stderr.startswith(b"error: ") and b"0xff" in result.stderr
        assert b"Traceback" not in result.stderr


def run_in_c_locale(argv, stdin: bytes) -> subprocess.CompletedProcess:
    """Run ``python -m cytk`` with no locale set, which is the C locale."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith(("LC_", "LANG"))
        and key not in ("PYTHONIOENCODING", "PYTHONUTF8")
    }
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "cytk", *argv],
        input=stdin,
        capture_output=True,
        env=env,
        timeout=60,
    )


class TestSurface:
    def test_realized(self, capsys):
        code, out, _ = run_cli(capsys, "surface", "16A1")
        assert code == 0
        assert "orbifold c2: 0" in out
        assert "realized, entry 1" in out

    def test_excluded(self, capsys):
        code, out, _ = run_cli(capsys, "surface", "5A4")
        assert code == 0
        assert "excluded (sum k > 19)" in out

    def test_exact_rational_output(self, capsys):
        code, out, _ = run_cli(capsys, "surface", "A1")
        assert code == 0
        assert "orbifold c2: 45/2" in out
        assert "k3_type" in out

    def test_grammar_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "surface", "2Q5")
        assert code == 2
        assert "error" in err

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "surface", "2A3+11A1", "--json")
        document = json.loads(out)
        assert document["orbifold_c2"] == "0/1"
        assert document["classification"] == {"verdict": "not_realized"}
        assert json.dumps(document, sort_keys=True, indent=2) == out.strip()


class TestEnumerate:
    def test_count_line(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate-zero-c2")
        assert code == 0
        assert out.strip().endswith("total: 35")

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate-zero-c2", "--json")
        document = json.loads(out)
        assert document["count"] == 35
        assert "16A1" in document["multisets"]


class TestTorusQuotient:
    def test_kummer(self, capsys):
        code, out, _ = run_cli(capsys, "torus-quotient", "--builtin", "kummer")
        assert code == 0
        assert "quotient singularities: 16A1" in out
        assert "orbifold c2 check: 0" in out

    def test_bt24_linear(self, capsys):
        code, out, _ = run_cli(capsys, "torus-quotient", "--builtin", "bt24-linear")
        assert code == 0
        assert "quotient singularities: E6+D4+4A2+A1" in out

    @pytest.mark.parametrize("name", list(torusq.BUILTIN_EXPECTED))
    @pytest.mark.parametrize("form", ["txt", "json"])
    def test_builtin_report_is_golden(self, capsys, name, form):
        argv = ["torus-quotient", "--builtin", name] + (["--json"] if form == "json" else [])
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.encode("utf-8") == (TORUS_GOLDEN / f"{name}.{form}").read_bytes()

    def test_list_builtins(self, capsys):
        code, out, _ = run_cli(capsys, "torus-quotient", "--list-builtins")
        assert code == 0
        assert len(out.strip().splitlines()) == 10

    def test_unknown_builtin_exit_2(self, capsys):
        # The name is shown as JSON, not inside a KeyError's repr quotes.
        for name, shown in [("nope", '"nope"'), ("it's", '"it\'s"')]:
            code, out, err = run_cli(capsys, "torus-quotient", "--builtin", name)
            assert (code, out) == (2, "")
            assert err == f"error: unknown builtin action {shown}\n"

    def test_malformed_file_exit_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        code, _, err = run_cli(capsys, "torus-quotient", "--file", str(bad))
        assert code == 3
        assert "error" in err

    @pytest.mark.parametrize(
        "document",
        [
            [],
            {
                "label": "zero-denominator",
                "generators": [
                    {
                        "linear": KUMMER_ACTION["generators"][0]["linear"],
                        "translation": ["1/0", "0", "0", "0"],
                    }
                ],
            },
            {**KUMMER_ACTION, "label": 7},
            {**KUMMER_ACTION, "label": None},
            *(
                {
                    "generators": [
                        {
                            "linear": KUMMER_ACTION["generators"][0]["linear"],
                            "translation": translation,
                        }
                    ]
                }
                for translation in (
                    "0000",
                    {"1/2": 0, "0": 1, "2/3": 2, "5": 3},
                    ["1e-5000", "0", "0", "0"],
                    ["0.5", "0", "0", "0"],
                )
            ),
            {**KUMMER_ACTION, "label": ["x" * 98] * 1000},
            {"generators": nested_object(900)},
        ],
        ids=[
            "top-level-list", "zero-denominator", "int-label", "null-label",
            "string-translation", "object-translation", "exponent-translation",
            "decimal-translation", "100-kb-label", "900-deep-generators",
        ],
    )
    def test_malformed_description_exit_3(self, tmp_path, document):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document), encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "cytk", "torus-quotient", "--file", str(bad)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 3
        assert "error: malformed action description" in result.stderr
        assert "Traceback" not in result.stderr
        # the offending value is named by its type and a short prefix
        assert result.stderr.count("\n") == 1
        assert len(result.stderr.encode("utf-8")) < 200

    @pytest.mark.parametrize("form", [[], ["--json"]], ids=["text", "json"])
    def test_translation_denominator_over_the_bound_exit_3(self, tmp_path, form):
        # two coprime 4290-digit denominators: printed over their lcm, the
        # points would pass the 4300-digit limit of int to str
        translation = [f"1/{10**4289 + 1}", "0", f"1/{10**4289 + 3}", "0"]
        document = {"generators": [{"linear": SWAP4, "translation": translation}]}
        bad = tmp_path / "digits.json"
        bad.write_text(json.dumps(document), encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "cytk", "torus-quotient", "--file", str(bad), *form],
            capture_output=True,
            text=True,
        )
        assert (result.returncode, result.stdout, result.stderr) == (
            3,
            "",
            f"error: translation denominator over {torusq.DENOMINATOR_BITS} bits\n",
        )

    @pytest.mark.parametrize("form", [[], ["--json"]], ids=["text", "json"])
    def test_largest_accepted_denominator_prints(self, capsys, tmp_path, form):
        den = 2**torusq.DENOMINATOR_BITS - 1
        document = {
            "generators": [{"linear": SWAP4, "translation": [f"1/{den}", "0", "0", "0"]}]
        }
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        code, out, err = run_cli(capsys, "torus-quotient", "--file", str(path), *form)
        assert (code, err) == (0, "")
        assert "4A3+6A1" in out

    @pytest.mark.parametrize(
        "entry, shown", [(-1.5, "-1.5"), (True, "true"), ("1", '"1"')],
        ids=["float", "bool", "string"],
    )
    def test_non_integer_linear_entry_exit_3(self, tmp_path, entry, shown):
        linear = [row[:] for row in KUMMER_ACTION["generators"][0]["linear"]]
        linear[0][0] = entry
        document = {
            "label": "kummer",
            "generators": [{"linear": linear, "translation": ["0", "0", "0", "0"]}],
        }
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document), encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "cytk", "torus-quotient", "--file", str(bad)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 3
        assert result.stderr == (
            "error: malformed action description: "
            f"linear entry {shown} is not an integer\n"
        )
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "entry, shown",
        [(1 / 3, "0.3333333333333333"), (0, "0"), (True, "true"), (None, "null")],
        ids=["float", "int", "bool", "null"],
    )
    def test_non_string_translation_entry_exit_3(self, tmp_path, entry, shown):
        document = {
            "label": "kummer",
            "generators": [
                {
                    "linear": KUMMER_ACTION["generators"][0]["linear"],
                    "translation": [entry, "0", "0", "0"],
                }
            ],
        }
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document), encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "cytk", "torus-quotient", "--file", str(bad)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 3
        assert result.stdout == ""
        assert result.stderr == (
            "error: malformed action description: "
            f'translation entry {shown} is not a "p/q" string\n'
        )

    @pytest.mark.parametrize(
        "generators", [[], [{"linear": ID4, "translation": ["0", "0", "0", "0"]}] * 2],
        ids=["no-generators", "identities"],
    )
    def test_trivial_group_exit_3(self, capsys, tmp_path, generators):
        bad = tmp_path / "trivial.json"
        bad.write_text(json.dumps({"generators": generators}), encoding="utf-8")
        code, out, err = run_cli(capsys, "torus-quotient", "--file", str(bad))
        assert code == 3
        assert out == ""
        assert err == "error: trivial group: the quotient is the torus itself\n"

    def test_invalid_action_exit_3(self, capsys, tmp_path):
        bad = tmp_path / "translation.json"
        bad.write_text(
            json.dumps(
                {
                    "label": "t",
                    "generators": [
                        {
                            "linear": [
                                [1, 0, 0, 0],
                                [0, 1, 0, 0],
                                [0, 0, 1, 0],
                                [0, 0, 0, 1],
                            ],
                            "translation": ["1/2", "0", "0", "0"],
                        }
                    ],
                }
            ),
            encoding="utf-8",
        )
        code, _, err = run_cli(capsys, "torus-quotient", "--file", str(bad))
        assert code == 3
        assert "translation" in err

    def test_infinite_group_exit_3_at_the_fixed_bound(self, capsys, tmp_path):
        action = tmp_path / "shear.json"
        action.write_text(json.dumps(SHEAR_ACTION), encoding="utf-8")
        code, out, err = run_cli(capsys, "torus-quotient", "--file", str(action))
        assert (code, out, err) == (3, "", "error: not finite within cap 48\n")
        with pytest.raises(SystemExit) as exit_info:
            main(["torus-quotient", "--file", str(action), "--cap", "100"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --cap 100" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["torus-quotient", "--help"])
        assert "--cap" not in capsys.readouterr().out

    def test_deeply_nested_file_exit_3(self, capsys, tmp_path):
        bad = tmp_path / "nested.json"
        bad.write_text("[" * 10**5 + "]" * 10**5, encoding="utf-8")
        code, out, err = run_cli(capsys, "torus-quotient", "--file", str(bad))
        assert (code, out) == (3, "")
        assert err.startswith("error: invalid JSON: maximum recursion depth exceeded")

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "torus-quotient", "--builtin", "z4-square", "--json"
        )
        document = json.loads(out)
        assert document["multiset"] == "4A3+6A1"
        assert document["orbifold_c2"] == "0/1"
        assert json.dumps(document, sort_keys=True, indent=2) == out.strip()


# Strings with quotes, backslashes, control, non-ASCII and astral characters.
_json_text = st.text(
    st.sampled_from(["\"", "\\", "\x00", "\x1f", "\n", "\t", "é", "\U0001f600", "a"])
    | st.characters()
)
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(max_value=-(2**70))
    | _json_text,
    lambda children: st.lists(children) | st.dictionaries(_json_text, children),
    max_leaves=25,
)


class TestJsonEmitter:
    @settings(max_examples=300, deadline=None)
    @given(_json_values)
    def test_matches_stdlib_indent_2(self, value):
        assert cli._encode(value) == json.dumps(value, sort_keys=True, indent=2)

    def test_empty_containers_nested(self):
        value = {"a": [], "b": {}, "c": [[], {}], "d": [{"e": []}]}
        assert cli._encode(value) == json.dumps(value, sort_keys=True, indent=2)

    @pytest.mark.parametrize("value", [1.5, (1, 2), {1: "a"}])
    def test_other_types_are_refused(self, value):
        with pytest.raises(TypeError):
            cli._encode({"x": value})

    @pytest.mark.parametrize(
        "argv, shows",
        [
            # A KS record with a contained edge and a singular curve.
            (
                ["analyze", "56", "2", "4", "9", "13", "28"],
                lambda d: d["contained_edges"] and d["singular_curves"],
            ),
            (
                ["analyze", "6", "1", "1", "1", "1", "1"],
                lambda d: d["c2_lower_bound"] is None and d["singular_curves"] == [],
            ),
            (
                ["surface", "16A1"],
                lambda d: d["classification"]["verdict"] == "realized",
            ),
            (["surface", "5A4"], lambda d: d["gate"]["verdict"] == "excluded"),
            (["surface", "A1"], lambda d: d["conditional"]),
            (["enumerate-zero-c2"], lambda d: d["count"] == len(d["multisets"]) == 35),
        ],
    )
    def test_reply_is_the_stdlib_encoding(self, capsys, argv, shows):
        code, out, err = run_cli(capsys, *argv, "--json")
        assert (code, err) == (0, "")
        document = json.loads(out)
        assert shows(document)
        assert out == json.dumps(document, sort_keys=True, indent=2) + "\n"


class TestSharedParser:
    """One parser serves every call of main; no call leaks into the next."""

    def test_calls_in_sequence_keep_their_own_arguments(self, capsys, tmp_path):
        weights = ("56", "2", "4", "9", "13", "28")
        code, out, _ = run_cli(capsys, "analyze", *weights, "--json")
        assert code == 0 and json.loads(out)["degree"] == 56
        code, out, _ = run_cli(capsys, "analyze", *weights)
        assert code == 0 and out.startswith("X_56 in P(2, 4, 9, 13, 28)\n")
        assert "  wellformed:        yes" in out

        shear = tmp_path / "shear.json"
        shear.write_text(json.dumps(SHEAR_ACTION), encoding="utf-8")
        code, _, err = run_cli(capsys, "torus-quotient", "--file", str(shear), "--json")
        assert code == 3 and "not finite within cap 48" in err
        action = tmp_path / "kummer.json"
        action.write_text(json.dumps(KUMMER_ACTION), encoding="utf-8")
        code, out, _ = run_cli(capsys, "torus-quotient", "--file", str(action))
        assert code == 0 and out.startswith("action kummer: group of order 2\n")

        with pytest.raises(SystemExit) as exit_info:
            main(["surface"])
        assert exit_info.value.code == 2
        assert "usage:" in capsys.readouterr().err
        code, out, _ = run_cli(capsys, "surface", "16A1")
        assert code == 0 and "realized" in out

    def test_main_builds_no_parser_per_call(self, capsys, monkeypatch):
        def refuse():
            raise AssertionError("build_parser called per request")

        monkeypatch.setattr(cli, "build_parser", refuse)
        code, out, _ = run_cli(capsys, "surface", "9A2", "--json")
        assert code == 0 and json.loads(out)["classification"]["entry"] == 2
        code, out, _ = run_cli(capsys, "enumerate-zero-c2")
        assert code == 0 and out.endswith("total: 35\n")

    def test_threads_share_the_parser(self):
        argvs = [
            ["analyze", "5", "1", "1", "1", "1", "1"],
            ["analyze", "120", "3", "7", "20", "40", "50", "--json"],
            ["census", "db.txt", "--jobs", "2", "--csv", "out.csv"],
            ["census"],
            ["surface", "2A3+11A1", "--json"],
            ["enumerate-zero-c2"],
            ["torus-quotient", "--builtin", "kummer"],
            ["torus-quotient", "--file", "a.json", "--json"],
            ["torus-quotient", "--list-builtins"],
        ]
        serial = [cli._parse(argv) for argv in argvs]
        start = threading.Barrier(4)
        results: list[list] = [[] for _ in range(4)]

        def client(own: list) -> None:
            start.wait()
            for _ in range(100):
                own.append([cli._parse(argv) for argv in argvs])

        threads = [threading.Thread(target=client, args=(own,)) for own in results]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for own in results:
            assert len(own) == 100
            assert all(parsed == serial for parsed in own)
        assert serial[7].json and serial[7].file == "a.json"
        assert not serial[6].json and serial[6].builtin == "kummer"


def _top_level(argv):
    """The earlier dispatch: the top-level parser parses the whole request."""
    args = cli._PARSER.parse_args(argv)
    return args.handler(args)


def _outcome(capsys, call, argv):
    try:
        code = call(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


QUINTIC = ["5", "1", "1", "1", "1", "1"]


class TestDirectDispatch:
    """main sends a request straight to its subcommand's parser; the exit
    code, stdout and stderr are those of the top-level parser's path."""

    @pytest.mark.parametrize(
        "argv",
        [
            # a valid request of every subcommand
            ["analyze", *QUINTIC],
            ["analyze", "56", "2", "4", "9", "13", "28", "--json"],
            ["census", "{sample}"],
            ["census", "{sample}", "--jobs", "2"],
            ["surface", "2A3+11A1"],
            ["surface", "16A1", "--json"],
            ["enumerate-zero-c2"],
            ["enumerate-zero-c2", "--json"],
            ["torus-quotient", "--builtin", "kummer"],
            ["torus-quotient", "--builtin", "nope"],
            ["torus-quotient", "--list-builtins"],
            ["torus-quotient", "--file", "{action}", "--json"],
            # help of every subcommand, and of the program
            ["analyze", "-h"],
            ["census", "-h"],
            ["surface", "--help"],
            ["enumerate-zero-c2", "-h"],
            ["torus-quotient", "-h"],
            ["analyze", *QUINTIC, "--h"],
            [],
            ["-h"],
            ["--help"],
            # unknown commands and options before the command
            ["analyse", *QUINTIC],
            ["--json", "analyze", *QUINTIC],
            ["--", "analyze", *QUINTIC],
            # extra arguments after a valid request
            ["analyze", *QUINTIC, "7"],
            ["analyze", *QUINTIC, "--bogus"],
            ["surface", "16A1", "--json", "x", "--y=1"],
            ["enumerate-zero-c2", "extra"],
            ["torus-quotient", "--list-builtins", "--bogus"],
            # missing and malformed arguments
            ["analyze", "5", "1", "1", "1", "1"],
            ["surface"],
            ["census", "{sample}", "extra"],
            ["analyze", "5", "1", "1", "x", "1", "1"],
            ["analyze", "5", "1", "1", "-1", "1", "1"],
            ["analyze", "--", *QUINTIC],
            ["census", "{sample}", "--jobs", "0"],
            ["census", "{sample}", "--jobs", "two"],
            ["torus-quotient"],
            ["torus-quotient", "--builtin", "kummer", "--list-builtins"],
            ["surface", "--js", "16A1"],
        ],
        ids=lambda argv: " ".join(argv) or "(none)",
    )
    def test_same_reply_as_the_top_level_parser(self, capsys, tmp_path, argv):
        sample = tmp_path / "sample.txt"
        sample.write_text("5 1 1 1 1 1\n120 3 7 20 40 50\n", encoding="utf-8")
        action = tmp_path / "kummer.json"
        action.write_text(json.dumps(KUMMER_ACTION), encoding="utf-8")
        argv = [arg.format(sample=sample, action=action) for arg in argv]
        direct = _outcome(capsys, main, argv)
        assert direct == _outcome(capsys, _top_level, argv)
        assert direct[1] or direct[2]

    def test_unrecognized_arguments_message(self, capsys):
        code, out, err = _outcome(capsys, main, ["analyze", *QUINTIC, "--bogus"])
        assert (code, out) == (2, "")
        assert err.startswith("usage: cytk [-h]")
        assert err.endswith("cytk: error: unrecognized arguments: --bogus\n")

    def test_argv_defaults_to_the_command_line(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["cytk", "surface", "16A1", "--json"])
        assert main() == 0
        assert json.loads(capsys.readouterr().out)["classification"]["entry"] == 1


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "cytk", "surface", "16A1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "realized" in result.stdout
