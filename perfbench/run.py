#!/usr/bin/env python3
"""cytk benchmark: one workload, one seed, checked outputs, JSON metrics.

    python3 perfbench/run.py --workload census-ks --seed 1 --seconds 15 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Human-readable lines come first; the last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics of BENCHMARK.json when ``--trace 0`` and the per-layer metrics
when ``--trace 1``.  Outputs, spans and the per-layer table go to
``.perfbench_out/`` at the repository root.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from functools import partial
from math import ceil
from pathlib import Path
from time import perf_counter

import census_ks
import serve
import tracing
from hostspeed import HostSpeed
from query_mix import QueryMix
from torus_conjugates import TorusConjugates

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = HERE / "data"
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("census-ks", "query-mix", "torus-conjugates")
SETUP_REPS = 11
TRACE_ROUNDS = {"query-mix": 4, "torus-conjugates": 3}
# End-to-end timings are reported at the reference host speed: a time is
# multiplied by a host speed factor, a rate divided by it (hostspeed.py).
SCALED = {
    "p50_ms": 1, "p90_ms": 1,
    "ops_per_s": -1, "records_per_s": -1, "records_per_s_parallel": -1,
}


class BenchError(Exception):
    """The benchmark cannot run: missing program, data or a bad setup."""


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("CYTK_DATABASE", None)
    return env


def verify_data() -> dict:
    """Check every data file against the sha256 in MANIFEST.json."""
    manifest = json.loads((DATA / "MANIFEST.json").read_text(encoding="utf-8"))
    for name, entry in manifest["files"].items():
        digest = hashlib.sha256((DATA / name).read_bytes()).hexdigest()
        if digest != entry["sha256"]:
            raise BenchError(f"data/{name}: sha256 {digest} != {entry['sha256']}")
    return manifest


def probe() -> None:
    """The program starts in a fresh interpreter and answers one query."""
    cmd = [sys.executable, "-m", "cytk", "analyze", "5", "1", "1", "1", "1", "1", "--json"]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=program_env(), capture_output=True, text=True, timeout=60
    )
    if proc.returncode != 0 or json.loads(proc.stdout or "{}").get("degree") != 5:
        raise BenchError(f"cytk does not run from {SRC}: {proc.stderr.strip()[-300:]}")


def setup(workload: str, out_dir: Path):
    """Everything a run needs before measuring; timed as setup_s."""
    manifest = verify_data()
    probe()
    golden_bytes = (DATA / "golden_verdicts.csv").read_bytes()
    if workload == "census-ks":
        counts = manifest["census_counts"]
        return census_ks.Census(
            ROOT, DATA / "kreuzer_skarke_wp4.txt", golden_bytes,
            (counts["records"], counts["not_smooth_codim2"], counts["no_edge"]),
            out_dir, program_env(),
        )
    if workload == "query-mix":
        golden = list(csv.DictReader(golden_bytes.decode("utf-8").splitlines()))
        zero_c2 = [
            line for line in (DATA / "zero_c2.txt").read_text(encoding="utf-8").splitlines()
            if line and not line.startswith("#")
        ]
        return QueryMix(golden, zero_c2)
    builtins = json.loads((DATA / "torus_builtins.json").read_text(encoding="utf-8"))
    return TorusConjugates(builtins, out_dir)


def import_cytk():
    """Import the program under test from this checkout, never elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import cytk.cli
    except ImportError as exc:
        raise BenchError(f"cannot import cytk from {SRC}: {exc}") from exc
    if SRC.resolve() not in Path(cytk.cli.__file__).resolve().parents:
        raise BenchError(f"cytk imported from {cytk.cli.__file__}, not {SRC}")
    return cytk.cli


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # kB on Linux


def latency_metrics(repeats: list[list[float]]) -> tuple[dict, dict]:
    """ops_per_s, p50_ms and p90_ms from the latencies of the same requests
    timed in several passes, one list per request.  Each request counts
    with its median pass."""
    latencies = [statistics.median(times) for times in repeats]
    p90, beyond = percentile(latencies, 0.9)
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "p50_ms": statistics.median(latencies) * 1000,
        "p90_ms": p90 * 1000,
    }, {
        "requests": len(latencies),
        "passes per request": len(repeats[0]),
        "samples beyond p90": beyond,
    }


# ----------------------------------------------------------------------
# census-ks


def census_metrics(census: census_ks.Census) -> tuple[dict, dict]:
    """The two requests are a census at --jobs 1 and one at --jobs 2, each
    counted with its median pass, scaled by the host speed loop's mean
    time in the --jobs 1 passes."""

    def from_passes(seconds) -> tuple[dict, dict]:
        repeats = [[seconds(p) for p in census.passes if p.jobs == jobs] for jobs in (1, 2)]
        metrics, info = latency_metrics(repeats)
        records = census.counts[0]
        metrics["records_per_s"] = records / statistics.median(repeats[0])
        metrics["records_per_s_parallel"] = records / statistics.median(repeats[1])
        return metrics, info

    metrics, info = from_passes(lambda p: p.seconds * census.host_factor)
    info["host speed factor"] = census.host_factor
    info["as measured"] = from_passes(lambda p: p.seconds)[0]
    metrics["peak_rss_mb"] = rss_mb(resource.RUSAGE_CHILDREN)
    return metrics, info


def census_trace(census: census_ks.Census, out_dir: Path) -> dict:
    """Untraced then traced passes at --jobs 1 and 2 on the same input."""
    untraced = [census.run_pass(jobs) for jobs in (1, 2)]
    traced = [
        census.run_pass(jobs, spans=out_dir / f"spans-census-jobs{jobs}.jsonl.gz")
        for jobs in (1, 2)
    ]
    layers: dict = {}
    counts: dict = {}
    hits = misses = 0
    run_census_s = []
    for p in traced:
        if not p.spans.exists():
            raise BenchError(f"traced census pass wrote no spans: {p.failure}")
        header, spans = tracing.load(str(p.spans))
        reduced = tracing.reduce_spans(spans)
        run_census_s.append(reduced.get("census.run_census", tracing.Layer()).total_s)
        tracing.merge(layers, reduced)
        for name, n in header["counts"].items():
            counts[name] = counts.get(name, 0) + n
        hits += header["pair_cache"][0]
        misses += header["pair_cache"][1]
    untraced_s = sum(p.seconds for p in untraced)
    traced_s = sum(p.seconds for p in traced)
    metrics = tracing.layer_metrics(
        layers, counts, (hits, misses),
        run_census_s[0] / run_census_s[1] if run_census_s[1] else 0.0,
        traced_s / untraced_s,
    )
    return metrics, layers, {"untraced pass seconds": untraced_s, "traced pass seconds": traced_s}


# ----------------------------------------------------------------------
# query-mix and torus-conjugates


def request_metrics(stream, cli, name: str, seed: int, seconds: float, tally) -> tuple:
    """One client serves the list (the fewest whole rounds holding
    serve.MIN_REQUESTS requests), then passes over it alternate two clients
    and one while the next is expected to end within ``seconds``, and at
    least two of each; two-client passes fill the time left when a
    single-client pass would not fit.  Two clients serve the list's first
    round, which keeps a torus-conjugates run within about ``seconds``.
    Every pass starts from an empty pair cache, so every pass does the
    same work; on query-mix the hit ratio over one round (0.36) is close
    to that over ten (0.40).  Each request counts with
    its median single-client pass and the two-client list with its median
    pass, scaled by the host speed loop's mean time between the requests
    of passes of as many clients."""
    rounds = stream.rounds(random.Random(f"{name}:{seed}"))
    host = HostSpeed()
    one_client, two_clients = partial(host.tick, "1 client"), partial(host.tick, "2 clients")
    start = perf_counter()
    single: list[list[float]] = []
    walls: list[float] = []
    with serve.Server(cli.main) as server:
        tracing.clear_pair_cache()
        served, latencies = serve.serve_rounds(server, rounds, tally, one_client)
        single.append(latencies)
        requests = [request for batch in served for request in batch]
        shared = served[0]
        last = {1: perf_counter() - start}  # duration of the latest pass, by clients
        clients = 2
        while True:
            left = seconds - (perf_counter() - start)
            if clients == 1 and len(single) >= 2 and last[1] > left:
                clients = 2
            if len(single) >= 2 and len(walls) >= 2 and last[clients] > left:
                break
            began = perf_counter()
            tracing.clear_pair_cache()
            if clients == 1:
                single.append(serve.serve_list(server, requests, tally, one_client))
            else:
                walls.append(serve.serve_two_clients(server, shared, tally, two_clients))
            last[clients] = perf_counter() - began
            clients = 3 - clients
    repeats = [list(times) for times in zip(*single)]
    metrics, info = latency_metrics(repeats)
    metrics["records_per_s"] = metrics["ops_per_s"]
    metrics["records_per_s_parallel"] = len(shared) / statistics.median(walls)
    metrics["peak_rss_mb"] = rss_mb(resource.RUSAGE_SELF)
    info["two-client passes"] = len(walls)
    factors = dict.fromkeys(SCALED, host.mean_factor("1 client"))
    factors["records_per_s_parallel"] = host.mean_factor("2 clients", turns=2)
    info["host speed factors"] = factors
    info["as measured"] = {metric: metrics[metric] for metric in factors}
    for metric, factor in factors.items():
        metrics[metric] *= factor ** SCALED[metric]
    shares: dict[str, float] = {}
    for request, times in zip(requests, repeats):
        shares[request.kind] = shares.get(request.kind, 0.0) + statistics.median(times)
    total = sum(shares.values())
    info["share of service time by request kind"] = {
        kind: round(v / total, 4) for kind, v in sorted(shares.items())
    }
    return metrics, info


def request_trace(stream, cli, name: str, seed: int, tally, out_dir: Path) -> dict:
    """A fixed number of rounds served untraced, then the same requests
    traced, each from an empty pair cache, so counts repeat exactly.  A
    first untimed round warms the interpreter."""
    rounds = stream.rounds(random.Random(f"{name}:{seed}"))
    warmup = next(rounds)
    requests = [r for _ in range(TRACE_ROUNDS[name]) for r in next(rounds)]

    untraced = serve.Tally()
    with serve.Server(cli.main) as server:
        for request in warmup:
            server.serve(request, tally)
        tracing.clear_pair_cache()
        for request in requests:
            server.serve(request, untraced)
    tally.merge(untraced)
    untraced_s = untraced.seconds

    tracing.clear_pair_cache()
    tracer = tracing.Tracer()
    traced_tally = serve.Tally()
    tracer.install()
    try:
        with serve.Server(tracer.wrap("cli.main", cli.main)) as server:
            for number, request in enumerate(requests, start=1):
                tracer.request_id = number
                server.serve(request, traced_tally)
    finally:
        tracer.uninstall()
    pair_cache = tracing.pair_cache_info()
    tally.merge(traced_tally)
    tracer.dump(str(out_dir / "spans.jsonl.gz"), {"pair_cache": pair_cache})
    traced_s = traced_tally.seconds
    layers = tracing.reduce_spans(tracer.spans)
    metrics = tracing.layer_metrics(
        layers, tracer.counts(), pair_cache, 0.0, traced_s / untraced_s
    )
    return metrics, layers, {
        "requests": len(requests),
        "untraced service seconds": untraced_s,
        "traced service seconds": traced_s,
    }


# ----------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out_dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    cli = None if workload == "census-ks" else import_cytk()
    setup_times = []
    for _ in range(SETUP_REPS):
        start = perf_counter()
        state = setup(workload, out_dir)
        setup_times.append(perf_counter() - start)

    if workload == "census-ks":
        if trace:
            metrics, layers, info = census_trace(state, out_dir)
        else:
            state.measure(seconds)
            metrics, info = census_metrics(state)
        attempted = len(state.passes)
        reasons = [f"jobs {p.jobs}: {p.failure}" for p in state.passes if p.failure]
        rejected = 0
    else:
        tally = serve.Tally()
        if trace:
            metrics, layers, info = request_trace(state, cli, workload, seed, tally, out_dir)
        else:
            metrics, info = request_metrics(state, cli, workload, seed, seconds, tally)
        attempted, reasons, rejected = tally.attempted, tally.reasons, tally.rejected

    failed = len(reasons)
    if trace:
        table = {
            name: {
                "calls": layer.calls,
                "total_s": layer.total_s,
                "self_s": layer.self_s,
                "measure": layer.value,
                "errors": dict(layer.errors),
            }
            for name, layer in sorted(layers.items())
        }
        (out_dir / "layers.json").write_text(json.dumps(table, indent=2) + "\n", encoding="utf-8")
    else:
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["success_ratio"] = (attempted - failed) / attempted
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")

    summary = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "attempted": attempted,
        "failed": failed,
        "error_ratio": failed / attempted,
        "expected_rejections": rejected,
        "setup_s (median of %d)" % SETUP_REPS: statistics.median(setup_times),
        **info,
    }
    for key, value in summary.items():
        print(f"{key}: {value}")
    for reason in reasons[:10]:
        print(f"FAILED {reason}")
    kind = "per-layer (traced run; not end-to-end)" if trace else "end-to-end (tracing off)"
    print(f"{kind} metrics:")
    for m in declared:
        print(f"  {m['name']:42s} {metrics[m['name']]:>16.6g} {m['unit']}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    (out_dir / "result.json").write_text(
        json.dumps({"summary": summary, "failures": reasons, **result}, indent=2) + "\n",
        encoding="utf-8",
    )
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
