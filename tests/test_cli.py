import contextlib
import errno
import io
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cytk import census, cli, hypersurface, surface, torusq
from cytk.arith import is_pair_partitionable
from cytk.cli import main
from cytk.wps import WeightSystem


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
# Reports of surface requests, text and --json, one file each, named by the
# multiset: every multiset with c2 = 0, and A1, 3A1 and A5+A3.
SURFACE_GOLDEN = Path(__file__).resolve().parent / "data" / "surface"
# A mixed census list and its stdout, CSV and JSON.
CENSUS_DATA = Path(__file__).resolve().parent / "data" / "census"
UTF8_BOM = b"\xef\xbb\xbf"
SRC = Path(__file__).resolve().parents[1] / "src"
KS_LIST = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "kreuzer_skarke_wp4.txt"


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

    @pytest.mark.parametrize(
        "operands, message",
        [
            (
                ["9" * 5000, "1", "1", "1", "1", "1"],
                "argument degree: integer '" + "9" * 40 + "'... over 4300 digits",
            ),
            (
                ["5", "1", "1", "-" + "9" * 5000, "1", "1"],
                "argument W: integer '-" + "9" * 39 + "'... over 4300 digits",
            ),
            (
                ["5", "1", "1", "1", "1", " " + "9" * 5000 + "\n"],
                "argument W: integer ' " + "9" * 39 + "'... over 4300 digits",
            ),
            (
                ["x" * 41, "1", "1", "1", "1", "1"],
                "argument degree: invalid int value: '" + "x" * 40 + "'...",
            ),
            (
                ["x" * 40, "1", "1", "1", "1", "1"],
                "argument degree: invalid int value: '" + "x" * 40 + "'",
            ),
            (["5", "1", "1", "1", "abc", "1"], "argument W: invalid int value: 'abc'"),
        ],
        ids=[
            "wide-degree", "wide-weight", "wide-weight-in-whitespace", "41-characters",
            "40-characters", "short",
        ],
    )
    def test_refused_operand_shown_by_its_first_40_characters(
        self, capsys, operands, message
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze", *operands])
        err = capsys.readouterr().err
        assert exit_info.value.code == 2
        assert err == (
            "usage: cytk analyze [-h] [--json] degree W W W W W\n"
            f"cytk analyze: error: {message}\n"
        )
        assert len(err.encode("utf-8")) < 200

    @pytest.mark.parametrize("form", [[], ["--json"]], ids=["text", "json"])
    def test_largest_accepted_degree_prints(self, capsys, form):
        # five near-equal weights prime to d: the c2 bound's denominator,
        # 10·N over a small factor, is about as wide as a Calabi-Yau
        # degree of this size allows
        d = 2**cli.DEGREE_BITS - 1
        weights = tuple(d // 5 + step for step in (-5, -5, -4, 4, 10))
        assert sum(weights) == d
        code, out, err = run_cli(capsys, "analyze", str(d), *map(str, weights), *form)
        assert (code, err) == (0, "")
        bound = hypersurface.c2_lower_bound(WeightSystem(d, weights)).lower_bound
        assert len(str(bound.denominator)) == 4296
        assert f"{bound.numerator}/{bound.denominator}" in out

    @pytest.mark.parametrize("form", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize(
        "weights",
        [
            (1, 1, 1, 1, 2**cli.DEGREE_BITS - 4),
            # the c2 bound's denominator would have over 7500 digits
            (1, *(10**1500 + k for k in (7, 9, 11, 13))),
        ],
        ids=["one-bit-over", "c2-over-4300-digits"],
    )
    def test_degree_over_the_bound_exit_2(self, capsys, weights, form):
        argv = ["analyze", str(sum(weights)), *map(str, weights), *form]
        assert sum(weights).bit_length() > cli.DEGREE_BITS
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: degree over {cli.DEGREE_BITS} bits\n"

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

    @pytest.mark.parametrize(
        "jobs, message",
        [
            ("9" * 5000, "integer '" + "9" * 40 + "'... over 4300 digits"),
            ("two" * 14, "must be an integer >= 1, got '" + "two" * 13 + "t'..."),
            ("0", "must be an integer >= 1, got '0'"),
        ],
        ids=["wide", "42-characters", "short"],
    )
    def test_jobs_shown_by_its_first_40_characters(self, capsys, tmp_path, jobs, message):
        with pytest.raises(SystemExit) as exit_info:
            main(["census", str(tmp_path / "k.txt"), "--jobs", jobs])
        err = capsys.readouterr().err
        assert exit_info.value.code == 2
        assert err == (
            "usage: cytk census [-h] [--csv PATH] [--json PATH] [--jobs JOBS] [path]\n"
            f"cytk census: error: argument --jobs: {message}\n"
        )
        assert len(err.encode("utf-8")) < 200

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

    @pytest.mark.parametrize("argv", [["census", "-"], ["census"]], ids=["dash", "bare"])
    def test_closed_stdin_is_io_error(self, argv):
        result = run_redirected("<&-", argv)
        assert (result.returncode, result.stdout) == (cli.EXIT_IO, b"")
        assert result.stderr.startswith(b"error: ") and result.stderr.count(b"\n") == 1
        assert b"Traceback" not in result.stderr

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_leading_byte_order_mark_is_skipped(self, capsys, tmp_path, source):
        sample = tmp_path / "mixed.txt"
        sample.write_bytes(UTF8_BOM + (CENSUS_DATA / "mixed.txt").read_bytes())
        csv_path, json_path = tmp_path / "mixed.csv", tmp_path / "mixed.json"
        exports = ["--csv", str(csv_path), "--json", str(json_path)]
        if source == "file":
            code, out, err = run_cli(capsys, "census", str(sample), *exports)
            out = out.encode("utf-8")
        else:
            result = run_in_c_locale(["census", "-", *exports], sample.read_bytes())
            code, out, err = result.returncode, result.stdout, result.stderr.decode()
        assert (code, err) == (0, "")
        assert out == (CENSUS_DATA / "mixed.stdout").read_bytes()
        assert csv_path.read_bytes() == (CENSUS_DATA / "mixed.csv").read_bytes()
        assert json_path.read_bytes() == (CENSUS_DATA / "mixed.json").read_bytes()

    @pytest.mark.parametrize("option", ["--csv", "--json"])
    def test_export_that_cannot_be_written_is_io_error(self, capsys, tmp_path, option):
        sample = tmp_path / "sample.txt"
        sample.write_text("5 1 1 1 1 1\n", encoding="utf-8")
        target = tmp_path / "missing" / "table"
        code, out, err = run_cli(capsys, "census", str(sample), option, str(target))
        assert (code, out) == (cli.EXIT_IO, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not target.parent.exists()


def run_redirected(redirect: str, argv, buffered: bool = True) -> subprocess.CompletedProcess:
    """Run ``python -m cytk`` with a standard descriptor closed or redirected
    by the shell redirection ``redirect`` and no ``CYTK_DATABASE``; stdout is
    block-buffered, as by default, or with ``buffered`` false unbuffered."""
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in ("CYTK_DATABASE", "PYTHONUNBUFFERED")
    }
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        ["sh", "-c", f'exec "$0" -m cytk "$@" {redirect}', sys.executable, *argv],
        capture_output=True,
        env=env,
        timeout=60,
    )


# A request of each subcommand, in text and JSON forms.
STDOUT_REQUESTS = pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "5", "1", "1", "1", "1", "1"],
        ["analyze", "5", "1", "1", "1", "1", "1", "--json"],
        ["census", str(CENSUS_DATA / "mixed.txt")],
        ["surface", "A1"],
        ["surface", "A1", "--json"],
        ["enumerate-zero-c2", "--json"],
        ["torus-quotient", "--builtin", "kummer"],
        ["torus-quotient", "--list-builtins", "--json"],
    ],
    ids=lambda argv: " ".join(Path(arg).name for arg in argv),
)


@STDOUT_REQUESTS
def test_closed_stdout_is_io_error(argv):
    # Text and JSON forms both: with descriptor 1 closed, sys.stdout is
    # None, which print() ignores and sys.stdout.write fails on.
    result = run_redirected(">&-", argv)
    assert (result.returncode, result.stderr) == (cli.EXIT_IO, b"error: stdout is closed\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@STDOUT_REQUESTS
def test_failed_stdout_write_is_io_error(argv, buffered):
    # Every write to /dev/full fails with ENOSPC: unbuffered, at the first
    # print, and buffered, at the flush before main returns rather than at
    # the interpreter's flush at exit, which would add its own text.
    result = run_redirected(">/dev/full", argv, buffered)
    full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    assert (result.returncode, result.stderr) == (cli.EXIT_IO, f"error: {full}\n".encode())


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


LCM_OVER = (
    f"error: lcm of the local group orders over {cli.INTEGER_BITS} bits "
    "(the orbifold c2 denominator divides it and may be narrower)\n"
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

    @pytest.mark.parametrize("form", [[], ["--json"]], ids=["text", "json"])
    def test_widest_printed_integer_at_the_bound(self, capsys, form):
        # n A1 has c2 = (48 - 3n)/2: at this n the numerator is
        # -(2**INTEGER_BITS - 1), and at n + 2 it is a bit wider, -(2**INTEGER_BITS + 5)
        n = (2**cli.INTEGER_BITS + 47) // 3
        code, out, err = run_cli(capsys, "surface", f"{n}A1", *form)
        assert (code, err) == (0, "")
        assert str(-(2**cli.INTEGER_BITS - 1)) + "/2" in out
        code, out, err = run_cli(capsys, "surface", f"{n + 2}A1", *form)
        assert (code, out) == (2, "")
        assert err == f"error: orbifold c2 or sum of k over {cli.INTEGER_BITS} bits\n"

    @pytest.mark.parametrize("form", [[], ["--json"]], ids=["text", "json"])
    def test_lcm_over_the_bound_exit_2(self, form):
        # r = 10**3000, 8...89 and 7...72, of 3000 digits each: c2's
        # denominator, their lcm, would have about 9000 digits
        text = "+".join(["A" + "9" * 3000, "A" + "8" * 3000, "A" + "7" * 2999 + "1"])
        result = subprocess.run(
            [sys.executable, "-m", "cytk", "surface", text, *form],
            capture_output=True, text=True, timeout=60,
        )
        assert (result.returncode, result.stdout, result.stderr) == (2, "", LCM_OVER)

    def test_long_multiset_of_wide_types_rejected_fast(self, capsys):
        # 30 types of 4000 digits, 120 KB: the lcm passes the bound at the
        # second type, long before c2 could be built
        rng = random.Random(0)
        text = "+".join("A" + str(rng.randrange(10**3999, 10**4000)) for _ in range(30))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "surface", text)
        assert time.perf_counter() - start < 0.25
        assert (code, out, err) == (2, "", LCM_OVER)

    @pytest.mark.parametrize("form", [[], ["--json"]], ids=["text", "json"])
    def test_lcm_at_the_bound(self, capsys, form):
        # r copies of A(r-1) for three pairwise coprime r: c2 is the integer
        # 27 - (sum of r^2), of about 9525 bits, and its denominator 1, but
        # the lcm of the r's is their product
        low = (2**4761 - 1, 2**4761 + 1)
        at, over = (*low, 2**4762 - 3), (*low, 2**4762 + 1)
        assert math.lcm(*at).bit_length() == cli.INTEGER_BITS
        assert math.lcm(*over).bit_length() == cli.INTEGER_BITS + 1
        text = "+".join(f"{r}A{r - 1}" for r in at)
        code, out, err = run_cli(capsys, "surface", text, *form)
        assert (code, err) == (0, "")
        assert str(27 - sum(r * r for r in at)) in out
        text = "+".join(f"{r}A{r - 1}" for r in over)
        assert run_cli(capsys, "surface", text, *form) == (2, "", LCM_OVER)

    def test_goldens_cover_the_zero_c2_list(self):
        names = {path.stem for path in SURFACE_GOLDEN.iterdir()}
        assert names == {str(m) for m in surface.enumerate_zero_c2()} | {
            "A1", "3A1", "A5+A3"
        }

    @pytest.mark.parametrize(
        "path", sorted(SURFACE_GOLDEN.iterdir()), ids=lambda path: path.name
    )
    def test_report_is_golden(self, capsys, path):
        form = ["--json"] if path.suffix == ".json" else []
        code, out, err = run_cli(capsys, "surface", path.stem, *form)
        assert (code, err) == (0, "")
        assert out.encode("utf-8") == path.read_bytes()

    @pytest.mark.parametrize("text", ["A1", "5A4", "16A1", "A5+A3"])
    def test_orbifold_c2_built_once(self, capsys, monkeypatch, text):
        multisets = []
        build = surface.orbifold_c2
        monkeypatch.setattr(
            surface, "orbifold_c2", lambda m: multisets.append(m) or build(m)
        )
        assert run_cli(capsys, "surface", text, "--json")[0] == 0
        assert multisets == [surface.DuValMultiset.parse(text)]

    @pytest.mark.parametrize(
        "text, shown",
        [
            ("A" + "9" * 4301, "A" + "9" * 39),
            ("1" + "0" * 4300 + "A1", "1" + "0" * 39),
            ("2A1+" + "7" * 5000 + "D4", "7" * 40),
        ],
        ids=["index", "count", "second-entry"],
    )
    def test_count_or_index_over_the_digit_limit(self, capsys, text, shown):
        assert run_cli(capsys, "surface", text) == (
            2,
            "",
            f"error: multiset entry '{shown}'... has a count or index "
            "over 4300 digits\n",
        )

    @pytest.mark.parametrize(
        "text, shown",
        [
            ("A1+Q", "'Q'"),
            ("A1+" + "X" * 40, "'" + "X" * 40 + "'"),
            ("9" * 100000 + "Q", "'" + "9" * 40 + "'..."),
            ("A1+" + "X" * 41, "'" + "X" * 40 + "'..."),
            ("8A1\n+8A1", "'8A1\\n'"),
            ("16A1\n", "'16A1\\n'"),
        ],
        ids=[
            "short",
            "40-characters",
            "100000-characters",
            "41-characters",
            "inner-newline",
            "final-newline",
        ],
    )
    def test_malformed_entry_shown_by_its_first_40_characters(self, capsys, text, shown):
        code, out, err = run_cli(capsys, "surface", text)
        assert (code, out) == (2, "")
        assert err == f"error: cannot parse multiset entry {shown}\n"
        assert len(err.encode("utf-8")) < 200

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

    @pytest.mark.parametrize("form", ["txt", "json"])
    def test_file_with_leading_byte_order_mark(self, capsys, tmp_path, form):
        action = tmp_path / "kummer.json"
        action.write_bytes(UTF8_BOM + json.dumps(KUMMER_ACTION).encode("utf-8"))
        argv = ["torus-quotient", "--file", str(action)] + (["--json"] if form == "json" else [])
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.encode("utf-8") == (TORUS_GOLDEN / f"kummer.{form}").read_bytes()

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

    @pytest.mark.parametrize(
        "document, message",
        [
            ({"generators": [[1, 2]]}, "generator [1, 2] is not an object"),
            ({"generators": ["abc"]}, 'generator "abc" is not an object'),
            ({"generators": [7]}, "generator 7 is not an object"),
            ({"label": "kummer"}, 'action has no "generators" member'),
            (
                {"generators": [{"translation": ["0", "0", "0", "0"]}]},
                'generator has no "linear" member',
            ),
            ({"generators": [{"linear": ID4}]}, 'generator has no "translation" member'),
        ],
        ids=[
            "list-generator", "string-generator", "number-generator",
            "no-generators", "no-linear", "no-translation",
        ],
    )
    def test_generator_shape_rejected_in_cytk_words(self, capsys, tmp_path, document, message):
        # Not Python's "list indices must be integers or slices, not str",
        # nor a bare KeyError repr such as 'translation'.
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document), encoding="utf-8")
        for form in ([], ["--json"]):
            code, out, err = run_cli(capsys, "torus-quotient", "--file", str(bad), *form)
            assert (code, out) == (cli.EXIT_VALIDATION, "")
            assert err == f"error: malformed action description: {message}\n"

    def test_label_that_utf8_cannot_encode_exit_3(self, capsys, tmp_path):
        # JSON's "\ud800" is a lone surrogate: the text reply could not print
        # it, so the label is refused as it is read, in both forms.
        path = tmp_path / "action.json"
        for label, expected in [("\ud800", 3), ("\u00e9\U0001f600", 0)]:
            path.write_text(json.dumps({**KUMMER_ACTION, "label": label}), encoding="utf-8")
            for form in ([], ["--json"]):
                code, out, err = run_cli(capsys, "torus-quotient", "--file", str(path), *form)
                assert code == expected
                if expected:
                    assert (out, err) == ("", (
                        'error: malformed action description: label "\\ud800" '
                        "is not encodable as UTF-8\n"
                    ))

    def test_malformed_file_exit_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        code, _, err = run_cli(capsys, "torus-quotient", "--file", str(bad))
        assert code == 3
        assert "error" in err

    @pytest.mark.parametrize(
        "kind, shown",
        [
            ("missing", "No such file or directory"),
            ("directory", "Is a directory"),
            ("not-utf8", "0xff"),
        ],
    )
    def test_unreadable_file_is_io_error(self, capsys, tmp_path, kind, shown):
        # An action file that cannot be read exits 1, as census input does,
        # not 3, which is kept for actions that are read and refused.
        path = tmp_path / "action.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b'{"label": "\xff", "generators": []}')
        for form in ([], ["--json"]):
            code, out, err = run_cli(capsys, "torus-quotient", "--file", str(path), *form)
            assert (code, out) == (cli.EXIT_IO, "")
            assert err.startswith("error: ") and err.count("\n") == 1
            assert shown in err

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
        "entry, shown",
        [
            ("1/" + "3" * 5000, '"1/' + "3" * 37),
            ("-" + "7" * 4301 + "/2", '"-' + "7" * 38),
        ],
        ids=["wide-denominator", "wide-numerator"],
    )
    def test_translation_entry_over_the_digit_limit_exit_3(self, capsys, tmp_path, entry, shown):
        document = {"generators": [{"linear": ID4, "translation": [entry, "0", "0", "0"]}]}
        bad = tmp_path / "wide.json"
        bad.write_text(json.dumps(document), encoding="utf-8")
        code, out, err = run_cli(capsys, "torus-quotient", "--file", str(bad))
        assert (code, out) == (3, "")
        assert err == (
            "error: malformed action description: translation entry "
            f"string {shown}... has an integer over 4300 digits\n"
        )
        assert len(err.encode("utf-8")) < 200

    @pytest.mark.parametrize(
        "number", ["9" * 5000, "-" + "8" * 4301], ids=["wide", "wide-negative"]
    )
    def test_json_integer_over_the_digit_limit_exit_3(self, capsys, tmp_path, number):
        # json.dumps cannot write the number, which int cannot print
        bad = tmp_path / "wide.json"
        bad.write_text(
            '{"generators": [{"linear": [[%s, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], '
            '[0, 0, 0, 1]], "translation": ["0", "0", "0", "0"]}]}' % number,
            encoding="utf-8",
        )
        code, out, err = run_cli(capsys, "torus-quotient", "--file", str(bad))
        assert (code, out) == (3, "")
        assert err == (
            f"error: malformed action description: number {number[:40]}... "
            "has over 4300 digits\n"
        )
        assert len(err.encode("utf-8")) < 200

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


def assert_reserializes(out):
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def json_reply(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--json"])
    assert (code, err.getvalue()) == (0, "")
    assert_reserializes(out.getvalue())
    return json.loads(out.getvalue())


with open(KS_LIST, encoding="utf-8") as _handle:
    KS_SYSTEMS = [
        WeightSystem(v.degree, v.weights) for v in census.census_lines(_handle)[1]
    ]


@st.composite
def weight_systems(draw):
    """Valid analyze requests: degree at least the largest of five globally
    coprime weights, the weight sum half the time."""
    weights = draw(
        st.lists(st.integers(1, 400), min_size=5, max_size=5).filter(
            lambda w: math.gcd(*w) == 1
        )
    )
    if draw(st.booleans()):
        return sum(weights), weights
    return draw(st.integers(max(weights), 3 * sum(weights))), weights


_DU_VAL_TYPES = (
    [f"A{n}" for n in range(1, 20)] + [f"D{n}" for n in range(4, 20)] + ["E6", "E7", "E8"]
)
ZERO_C2 = [str(m) for m in surface.enumerate_zero_c2()]
multisets = (
    st.sampled_from([str(m) for _, _, m in surface.REALIZED] + ZERO_C2)
    | st.dictionaries(
        st.sampled_from(_DU_VAL_TYPES), st.integers(1, 20), min_size=1, max_size=5
    ).map(lambda counts: "+".join(f"{n}{t}" for t, n in counts.items()))
)


class TestJsonEmitter:
    """Every --json reply is its document as ``json.dumps(..., sort_keys=True,
    indent=2)`` writes it, plus a newline."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(KS_SYSTEMS))
    def test_analyze_ks_records(self, ws):
        document = json_reply(["analyze", str(ws.degree), *map(str, ws.weights)])
        assert document["weights"] == list(ws.weights)

    @settings(max_examples=150, deadline=None)
    @given(weight_systems())
    def test_analyze_random_systems(self, system):
        d, weights = system
        document = json_reply(["analyze", str(d), *map(str, weights)])
        assert (document["c2_lower_bound"] is None) == (d != sum(weights))

    @settings(max_examples=150, deadline=None)
    @given(multisets)
    def test_surface_multisets(self, text):
        document = json_reply(["surface", text])
        verdict = document["classification"]["verdict"]
        assert ("entry" in document["classification"]) == (verdict == "realized")

    @pytest.mark.parametrize("name", list(torusq.BUILTIN_EXPECTED))
    def test_torus_builtins(self, name):
        assert json_reply(["torus-quotient", "--builtin", name])["label"] == name

    def test_torus_label_that_needs_escaping(self, tmp_path):
        label = 'a "quoted" \\ label\x00\n\té\U0001f600'
        action = tmp_path / "label.json"
        action.write_text(json.dumps({**KUMMER_ACTION, "label": label}), encoding="utf-8")
        assert json_reply(["torus-quotient", "--file", str(action)])["label"] == label

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
            (
                ["torus-quotient", "--list-builtins"],
                lambda d: d["builtins"] == [
                    {"multiset": str(multiset), "name": name}
                    for name, multiset in torusq.BUILTIN_EXPECTED.items()
                ],
            ),
            (
                ["analyze", "1734", "91", "96", "102", "578", "867"],
                lambda d: len(d["edge_point_loci"]) == 6 and d["singular_vertices"],
            ),
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

# Tokens that argparse reads as positionals or option values, that int()
# converts or refuses, and options, well-formed or not.
_OPERANDS = st.sampled_from(
    ["5", "1", "-1", "-0", "007", "120", "9" * 5000, "+5", "5_0", "-5_0", "\u0665",
     " 5", "5\n", "x", "1e3", "", "16A1", "2A3+11A1", "-h", "--help", "--js",
     "--json", "--json=1", "--", "-", "-x", "--file", "--builtin", "--list-builtins",
     "--fi", "--file=x", "kummer"]
)
# The operands of each directly parsed shape, by command.
_DIRECT_OPERANDS = {
    "analyze": st.lists(_OPERANDS, min_size=6, max_size=6),
    "surface": st.lists(_OPERANDS, min_size=1, max_size=1),
    "enumerate-zero-c2": st.just([]),
    "torus-quotient": st.tuples(
        st.sampled_from(["--file", "--builtin"]) | _OPERANDS, _OPERANDS
    ).map(list),
}


def _parsed(parse, argv):
    """(namespace as a dict, or the exit code; stdout; stderr) of a parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


class TestDirectDispatch:
    """main parses the common request shapes without argparse; the exit
    code, stdout and stderr are those of the top-level parser."""

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
            # a degree over int's digit limit, and --json before the operands
            ["analyze", "{digits}", "1", "1", "1", "1", "1"],
            ["analyze", "--json", *QUINTIC],
        ],
        ids=lambda argv: " ".join(argv) or "(none)",
    )
    def test_same_reply_as_the_top_level_parser(self, capsys, tmp_path, argv):
        sample = tmp_path / "sample.txt"
        sample.write_text("5 1 1 1 1 1\n120 3 7 20 40 50\n", encoding="utf-8")
        action = tmp_path / "kummer.json"
        action.write_text(json.dumps(KUMMER_ACTION), encoding="utf-8")
        argv = [
            arg.format(sample=sample, action=action, digits="9" * 5000) for arg in argv
        ]
        direct = _outcome(capsys, main, argv)
        assert direct == _outcome(capsys, _top_level, argv)
        assert direct[1] or direct[2]

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_direct_parse_matches_the_top_level_parser(self, data):
        command = data.draw(st.sampled_from(sorted(_DIRECT_OPERANDS)))
        argv = [command, *data.draw(_DIRECT_OPERANDS[command])]
        if data.draw(st.booleans()):
            argv.append("--json")
        for _ in range(data.draw(st.integers(0, 2))):
            spot = data.draw(st.integers(1, len(argv)))
            if data.draw(st.booleans()):
                argv.insert(spot, data.draw(_OPERANDS))
            elif spot < len(argv):
                del argv[spot]
        assert _parsed(cli._parse, argv) == _parsed(cli._PARSER.parse_args, argv)

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
