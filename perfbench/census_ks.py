"""The census-ks batch workload: passes of ``python -m cytk census`` over
the Kreuzer-Skarke list, each in a fresh interpreter, alternating
``--jobs 1`` and ``--jobs 2``.

A pass is what a user pays for the headline computation, interpreter
start-up and the cold pair cache included.  Its CSV must match the golden
verdict table byte for byte, and its stdout and JSON must give the census
counts recorded with the list in MANIFEST.json.  An untraced --jobs 1
pass runs under sampled_cli.py, which times the host speed loop inside
the pass; the loop's CPU time is taken out of the pass's time.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

from hostspeed import REFERENCE_S

HERE = Path(__file__).resolve().parent
PASS_TIMEOUT_S = 170

_SUMMARY = (
    "records analyzed",
    "not smooth in codimension 2",
    "... and containing no edge",
)


@dataclass
class Pass:
    jobs: int
    seconds: float
    failure: Optional[str]
    spans: Optional[Path] = None
    loop_times: list[float] = field(default_factory=list)  # untraced --jobs 1


@dataclass
class Census:
    root: Path
    ks_path: Path
    golden_csv: bytes
    counts: tuple[int, int, int]  # records, not smooth in codim 2, of which edge-free
    out_dir: Path
    env: dict
    passes: list[Pass] = field(default_factory=list)

    def run_pass(self, jobs: int, spans: Optional[Path] = None) -> Pass:
        """One census in a fresh interpreter; with ``spans``, under the
        benchmark's trace wrappers, writing the spans there."""
        csv_path = self.out_dir / f"verdicts-jobs{jobs}.csv"
        json_path = self.out_dir / f"verdicts-jobs{jobs}.json"
        for path in (csv_path, json_path):
            path.unlink(missing_ok=True)
        samples = self.out_dir / "host-speed.json"
        samples.unlink(missing_ok=True)
        if spans is not None:
            program = [sys.executable, str(HERE / "traced_cli.py"), str(spans)]
        elif jobs == 1:
            program = [sys.executable, str(HERE / "sampled_cli.py"), str(samples)]
        else:
            program = [sys.executable, "-m", "cytk"]
        cmd = program + [
            "census", str(self.ks_path),
            "--csv", str(csv_path), "--json", str(json_path), "--jobs", str(jobs),
        ]
        start = perf_counter()
        proc = subprocess.run(
            cmd, cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=PASS_TIMEOUT_S,
        )
        seconds = perf_counter() - start
        loop_times = json.loads(samples.read_text(encoding="utf-8")) if samples.exists() else []
        failure = self._check(proc, csv_path, json_path)
        result = Pass(jobs, seconds - sum(loop_times), failure, spans, loop_times)
        self.passes.append(result)
        return result

    def _check(self, proc, csv_path: Path, json_path: Path) -> Optional[str]:
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
        for label, expected in zip(_SUMMARY, self.counts):
            match = re.search(rf"^{re.escape(label)}:\s+(\d+)$", proc.stdout, re.M)
            if not match or int(match.group(1)) != expected:
                return f"stdout {label!r} is not {expected}"
        if csv_path.read_bytes() != self.golden_csv:
            return "CSV differs from the golden verdict table"
        with json_path.open(encoding="utf-8") as handle:
            doc = json.load(handle)
        summary = doc["summary"]
        counts = (summary["total"], summary["not_smooth_codim2"],
                  summary["not_smooth_codim2_and_no_edge"])
        if counts != self.counts:
            return f"JSON summary counts {counts}"
        if summary["failures"] or len(doc["records"]) != self.counts[0]:
            return "JSON reports failures or a wrong record count"
        return None

    @property
    def host_factor(self) -> float:
        """Multiply a pass's time by this to get it at the reference host
        speed: the loop's mean time in the untraced --jobs 1 passes.  In a
        --jobs 2 pass the loop would compete with cytk's worker threads
        for the interpreter."""
        times = [t for p in self.passes for t in p.loop_times]
        return REFERENCE_S / statistics.fmean(times) if times else 1.0

    def measure(self, seconds: float) -> None:
        """Pairs of a --jobs 1 and a --jobs 2 pass, as many as fit in
        ``seconds`` at the pace of the pairs so far, and at least one."""
        start = perf_counter()
        pairs = 0
        while True:
            for jobs in (1, 2):
                self.run_pass(jobs)
            pairs += 1
            if (perf_counter() - start) * (pairs + 1) / pairs > seconds:
                return
