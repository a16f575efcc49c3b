"""The weight-system generator, run as a script: its counts for three and
four weights, and its five-weight output against the shipped KS list; and
its cycle tables, against a closed form and a system only a long cycle
reaches."""

import importlib.util
import json
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest

from cytk.cli import main

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "generate_weight_systems.py"
KS_LIST = ROOT / "perfbench" / "data" / "kreuzer_skarke_wp4.txt"


def generate(*args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return proc.stdout


@pytest.fixture(scope="module")
def generator():
    spec = importlib.util.spec_from_file_location("generate_weight_systems", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def records(path: Path) -> list[tuple[int, ...]]:
    return sorted(
        tuple(int(x) for x in line.split())
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.startswith("#")
    )


@pytest.mark.parametrize("weights, cap, count", [(3, 20, 3), (4, 70, 95)])
def test_small_weight_counts(weights, cap, count):
    out = generate("--weights", str(weights), "--cap", str(cap))
    assert out.startswith(f"{count} weight systems with {weights} weights ")


def test_three_weights_written_in_full(tmp_path):
    path = tmp_path / "three.txt"
    generate("--weights", "3", "--cap", "60", "--out", str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[1].startswith("# d = w0+...+w2 in P(w0..w2); ")
    assert "4 1 1 2" in lines and "6 1 2 3" in lines
    assert all(len(line.split()) == 4 for line in lines if not line.startswith("#"))


def test_five_weights_reproduce_ks_list_up_to_degree_100(tmp_path):
    path = tmp_path / "ks.txt"
    out = generate("--weights", "5", "--cap", "100", "--stats", "--out", str(path))
    assert "not smooth in codim 2: 2294; of which no edge: 800" in out
    expected = [r for r in records(KS_LIST) if r[0] <= 100]
    assert len(expected) == 2410
    assert records(path) == expected


def test_five_weight_counts_up_to_degree_150():
    out = generate("--weights", "5", "--cap", "150", "--stats")
    assert out.startswith("3510 weight systems with 5 weights ")
    assert "not smooth in codim 2: 3373; of which no edge: 1125" in out


@pytest.mark.parametrize(
    "formatter",
    [
        lambda d, w: " ".join(map(str, (d, *w[1:]))),  # loses a weight: failures
        lambda d, w: "# " + " ".join(map(str, (d, *w))),  # comments: total is short
    ],
    ids=["failures", "short-total"],
)
def test_stats_fail_unless_every_record_reads_back(
    generator, monkeypatch, capsys, formatter
):
    monkeypatch.setattr(generator, "format_record", formatter)
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--cap", "30", "--stats"])
    assert generator.main() == 1
    assert "error: the census read" in capsys.readouterr().err


def two_cycles(den: int) -> set[tuple[int, int]]:
    """Pairs {s/den, t/den} linked both ways, in closed form: a1 = g*s + 1
    and a2 = g*t + 1 with g = gcd(a1 - 1, a2 - 1), so den = g*s*t + s + t
    with gcd(s, t) = 1."""
    return {
        (s, t)
        for s in range(1, den)
        if s * s + 2 * s <= den
        for t in range(s, den - s)
        if (den - s - t) % (s * t) == 0 and gcd(s, t) == 1
    }


def test_two_cycle_blocks_match_closed_form(generator):
    for den in range(2, 401):
        assert set(generator.chain_cycles(den, 2, 5)) == two_cycles(den), den


def test_four_cycle_over_1552_reaches_its_only_system(generator, capsys):
    # 19 -> 507 -> 31 -> 219 -> 19: each divides 1552 - (the next), and
    # no self or derived step reaches any of them, so only this block
    # produces (1552; 19, 31, 219, 507, 776).
    assert (19, 31, 219, 507) in generator.chain_cycles(1552, 4, 5)
    assert main(["analyze", "1552", "19", "31", "219", "507", "776", "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["wellformed"] and document["quasismooth"]
    assert document["calabi_yau"]
    assert not document["smooth_in_codim2"]
    assert document["contained_edges"] == [
        {"zeroed": [0, 1, 4], "free_weights": [219, 507], "singular": True}
    ]
    assert document["singular_curves"] == []


def test_cycle_tables_keep_every_block(generator):
    # Block counts over den 2-399, pinned so that no pruning of the chain
    # search can drop a block unnoticed.
    counts = {
        length: sum(len(generator.chain_cycles(den, length, 5)) for den in range(2, 400))
        for length in (3, 4, 5)
    }
    assert counts == {3: 8954, 4: 12419, 5: 211}
