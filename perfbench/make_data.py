#!/usr/bin/env python3
"""Rebuild the benchmark's golden data from the Kreuzer-Skarke list.

    python3 scripts/generate_weight_systems.py [--cap N] \\
        --out perfbench/data/kreuzer_skarke_wp4.txt --stats
    python3 perfbench/make_data.py [--cap N]

The weight-system list takes far too long to generate per run, so it is
generated once and committed.  This script derives the golden verdict CSV,
the list of zero-c2 multisets and the builtin torus actions from the
program at the current commit, and records every file's sha256 and the
census counts in MANIFEST.json, which each benchmark run checks during
set-up.  The full list (no ``--cap``) must give the paper's counts 7555 /
7238 / 2409.  With the generator's ``--cap N`` the list holds exactly the
records of degree at most N, and the counts the census gives are recorded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = HERE / "data"
sys.path.insert(0, str(ROOT / "src"))

from cytk import surface, torusq  # noqa: E402
from cytk.cli import _frac  # noqa: E402

GENERATE = (
    "python3 scripts/generate_weight_systems.py{cap} "
    "--out perfbench/data/kreuzer_skarke_wp4.txt --stats"
)
GOLDEN = (
    "python3 -m cytk census perfbench/data/kreuzer_skarke_wp4.txt "
    "--csv perfbench/data/golden_verdicts.csv"
)
PAPER_COUNTS = (7555, 7238, 2409)


def main() -> int:
    parser = argparse.ArgumentParser(description="rebuild perfbench/data")
    parser.add_argument("--cap", type=int, help="the --cap given to the generator")
    args = parser.parse_args()

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        GOLDEN.replace("python3", sys.executable, 1).split(),
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    counts = tuple(int(re.search(r"(\d+)$", line).group(1)) for line in lines[:3])
    if args.cap is None and counts != PAPER_COUNTS:
        print("census counts differ from 7555 / 7238 / 2409:", *lines, sep="\n")
        return 1

    with open(DATA / "zero_c2.txt", "w", encoding="utf-8") as handle:
        handle.write("# The 35 du Val multisets with orbifold c2 = 0, one per line.\n")
        for multiset in surface.enumerate_zero_c2():
            handle.write(f"{multiset}\n")

    orders = {action.label: action.order for action in torusq.builtin_actions()}
    actions = [
        {
            "label": label,
            "multiset": expected,
            "group_order": orders[label],
            "generators": [
                {
                    "linear": [list(row) for row in g.linear],
                    "translation": [_frac(t) for t in g.translation],
                }
                for g in generators
            ],
        }
        for label, expected, generators in torusq._builtin_specs()
    ]
    with open(DATA / "torus_builtins.json", "w", encoding="utf-8") as handle:
        handle.write("[\n" + ",\n".join(json.dumps(a) for a in actions) + "\n]\n")

    made_by = {
        "kreuzer_skarke_wp4.txt": GENERATE.format(cap=f" --cap {args.cap}" if args.cap else ""),
        "golden_verdicts.csv": GOLDEN,
        "zero_c2.txt": "python3 perfbench/make_data.py (cytk.surface.enumerate_zero_c2)",
        "torus_builtins.json": "python3 perfbench/make_data.py (cytk.torusq builtins)",
    }
    manifest = {
        "generator_cap": args.cap,
        "census_counts": dict(zip(("records", "not_smooth_codim2", "no_edge"), counts)),
        "files": {
            name: {
                "sha256": hashlib.sha256((DATA / name).read_bytes()).hexdigest(),
                "command": command,
            }
            for name, command in made_by.items()
        }
    }
    with open(DATA / "MANIFEST.json", "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2)
        handle.write("\n")
    print(*lines[:3], "wrote data/MANIFEST.json", sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
