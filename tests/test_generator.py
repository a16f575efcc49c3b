"""The weight-system generator, run as a script: its counts for three and
four weights, and its five-weight output against the shipped KS list."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "generate_weight_systems.py"
KS_LIST = ROOT / "perfbench" / "data" / "kreuzer_skarke_wp4.txt"


def generate(*args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return proc.stdout


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
def test_stats_fail_unless_every_record_reads_back(monkeypatch, capsys, formatter):
    spec = importlib.util.spec_from_file_location("generate_weight_systems", SCRIPT)
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    monkeypatch.setattr(generator, "format_record", formatter)
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--cap", "30", "--stats"])
    assert generator.main() == 1
    assert "error: the census read" in capsys.readouterr().err
