#!/usr/bin/env python3
"""Steadiness check: sets of benchmark runs of the same code, compared with
the bounds in BENCHMARK.json.

    python3 perfbench/steadiness.py

Each of two sets runs every workload of BENCHMARK.json ten times for its
``run_seconds``, each run with its own seed.  Per set, a metric's spread is
the distance between the first and third quartile of its values
(``statistics.quantiles(values, n=4)``) as a share of their median.  A
spread must stay within the metric's bound and is steady below a third of
it; the median of the second set may be worse than the first set's by at
most the bound.  Prints a table, writes ``.perfbench_out/steadiness.json``
and exits 1 if a check fails.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900
RUNS = 10  # per workload and set
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed: {proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs incorrect, see .perfbench_out/")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share of ``first``."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]

    values = {(s, w): [] for s in range(SETS) for w in workloads}
    for s in range(SETS):
        for i in range(RUNS):
            seed = s * RUNS + i + 1
            for w in workloads:  # interleaved, so drift over time hits all alike
                values[(s, w)].append(run_once(w, seed, seconds))
                print(f"set {s + 1} run {i + 1} {w} done", file=sys.stderr, flush=True)

    report = []
    ok = True
    print(f"{'workload':18s} {'metric':24s} {'bound':>6s} "
          + " ".join(f"{'median' + str(s + 1):>12s} {'spread' + str(s + 1):>8s}"
                     for s in range(SETS))
          + f" {'worse':>7s}  verdict")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians, spreads = [], []
            for s in range(SETS):
                series = [run[name] for run in values[(s, w)]]
                medians.append(statistics.median(series))
                spreads.append(spread(series))
            worst = max((worse_by(medians[0], x, m["better"]) for x in medians[1:]), default=0.0)
            verdict = "steady"
            if max(spreads) > bound:
                verdict = "SPREAD OVER BOUND"
            elif worst > bound:
                verdict = "MEDIAN WORSE THAN BOUND"
            elif max(spreads) > bound / 3:
                verdict = "within bound, not steady"
            ok = ok and verdict in ("steady", "within bound, not steady")
            report.append({"workload": w, "metric": name, "bound": bound,
                           "medians": medians, "spreads": spreads,
                           "worse": worst, "verdict": verdict})
            print(f"{w:18s} {name:24s} {bound:6.2f} "
                  + " ".join(f"{md:12.5g} {sp:8.4f}" for md, sp in zip(medians, spreads))
                  + f" {worst:7.4f}  {verdict}")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(
        json.dumps({"runs": RUNS, "sets": SETS, "seconds": seconds,
                    "rows": report, "values": {f"{s + 1}:{w}": v for (s, w), v in values.items()}},
                   indent=2) + "\n",
        encoding="utf-8",
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
