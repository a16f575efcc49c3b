"""Span tracing for the benchmark's traced run.

The benchmark wraps the public functions of each cytk module from outside
the program.  A module that does ``from x import f`` looks ``f`` up in its
own namespace, so every wrapper is installed at the name its caller uses
(``PATCHES``).  Each call records a span ``(id, parent, name, start, end,
request, error, value)``; spans stay in memory until the run ends and are
then written out and reduced to calls, inclusive time and self time per
name.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter


def _bits(args, kwargs, result):
    """Work count of one ``attainable_sums(parts, limit)`` call."""
    limit = kwargs["limit"] if "limit" in kwargs else args[1]
    return limit + 1


def _solutions(args, kwargs, result):
    return len(result)


def _elements(args, kwargs, result):
    return len(result.elements)


# (module, attribute path, span name, kind, measure).  Kind "span" records
# a span per call, "count" only counts calls (used on the hottest methods).
PATCHES = (
    ("cytk.cli", "is_wellformed_hypersurface", "wps.is_wellformed_hypersurface", "span", None),
    ("cytk.census", "census_lines", "census.census_lines", "span", None),
    ("cytk.census", "parse_database", "census.parse_database", "span", None),
    ("cytk.census", "normalize", "census.normalize", "span", None),
    ("cytk.census", "run_census", "census.run_census", "span", None),
    ("cytk.census", "write_csv", "census.write_csv", "span", None),
    ("cytk.census", "write_json", "census.write_json", "span", None),
    ("cytk.census", "_stratified_locus", "hypersurface.stratified_locus", "span", None),
    ("cytk.census", "is_wellformed_hypersurface", "wps.is_wellformed_hypersurface", "span", None),
    ("cytk.hypersurface", "_stratified_locus", "hypersurface.stratified_locus", "span", None),
    ("cytk.hypersurface", "is_quasismooth", "hypersurface.is_quasismooth", "span", None),
    ("cytk.hypersurface", "c2_lower_bound", "hypersurface.c2_lower_bound", "span", None),
    ("cytk.hypersurface", "CyclicQuotientType", "wps.CyclicQuotientType", "span", None),
    ("cytk.hypersurface", "attainable_sums", "arith.attainable_sums", "span", _bits),
    ("cytk.hypersurface", "is_partitionable", "arith.is_partitionable", "span", None),
    ("cytk.arith", "attainable_sums", "arith.attainable_sums", "span", _bits),
    ("cytk.arith", "smith_normal_form", "arith.smith_normal_form", "span", None),
    ("cytk.torusq", "determinant", "arith.determinant", "span", None),
    ("cytk.torusq", "charpoly", "arith.charpoly", "span", None),
    ("cytk.torusq", "solve_congruence", "arith.solve_congruence", "span", _solutions),
    ("cytk.surface", "DuValMultiset.parse", "surface.DuValMultiset.parse", "span", None),
    ("cytk.surface", "orbifold_c2", "surface.orbifold_c2", "span", None),
    ("cytk.surface", "classify", "surface.classify", "span", None),
    ("cytk.surface", "enumerate_zero_c2", "surface.enumerate_zero_c2", "span", None),
    ("cytk.torusq", "load_action", "torusq.load_action", "span", None),
    ("cytk.torusq", "close_group", "torusq.close_group", "span", _elements),
    ("cytk.torusq", "fixed_points", "torusq.fixed_points", "span", None),
    ("cytk.torusq", "quotient_singularities", "torusq.quotient_singularities", "span", None),
    ("cytk.torusq", "AffineTorusMap.__mul__", "torusq.products", "count", None),
    ("cytk.torusq", "AffineTorusMap.apply", "torusq.apply.calls", "count", None),
)


class Tracer:
    """Records spans of wrapped calls; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.request_id = 0
        self._ids = itertools.count(1)
        self._all_counts: list[dict[str, int]] = []
        self._local = threading.local()
        self._main_stack = self._stack()
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        # A worker thread's outermost span belongs to whatever the main
        # thread is blocked in (the census thread pool).
        try:
            return self._main_stack[-1]
        except IndexError:
            return 0

    def wrap(self, name: str, fn, measure=None):
        spans, ids, stack_of = self.spans, self._ids, self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            parent = self._parent(stack)
            span_id = next(ids)
            stack.append(span_id)
            error = None
            value = 0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    value = measure(args, kwargs, result)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans.append(
                    (span_id, parent, name, start, end, self.request_id, error, value)
                )

        traced.__wrapped__ = fn
        return traced

    def _thread_counts(self) -> dict[str, int]:
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = defaultdict(int)
            self._all_counts.append(counts)
        return counts

    def count(self, name: str, fn):
        thread_counts = self._thread_counts

        def counted(*args, **kwargs):
            thread_counts()[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def counts(self) -> dict[str, int]:
        total: dict[str, int] = defaultdict(int)
        for counts in self._all_counts:
            for name, n in counts.items():
                total[name] += n
        return dict(total)

    def call(self, name: str, fn, *args):
        return self.wrap(name, fn)(*args)

    def install(self) -> None:
        """Replace each patched attribute by its wrapper.  A name the
        program no longer has is reported on stderr and skipped, so its
        layer metrics read zero."""
        for module_name, path, name, kind, measure in PATCHES:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            try:
                for part in owners:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
            except (AttributeError, KeyError):
                print(f"trace: {module_name}.{path} not found", file=sys.stderr)
                continue
            is_classmethod = isinstance(original, classmethod)
            fn = original.__func__ if is_classmethod else original
            wrapper = self.count(name, fn) if kind == "count" else self.wrap(name, fn, measure)
            setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def dump(self, path: str, extra: dict) -> None:
        """Write the spans (one JSON array per line) plus a header line."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write(json.dumps({"counts": self.counts(), **extra}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def load(path: str) -> tuple[dict, list[tuple]]:
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        header = json.loads(handle.readline())
        spans = [tuple(json.loads(line)) for line in handle]
    return header, spans


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Layer:
    __slots__ = ("calls", "total_s", "self_s", "value", "errors", "error_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.value = 0
        self.errors: dict[str, int] = defaultdict(int)
        self.error_s: dict[str, float] = defaultdict(float)


def reduce_spans(spans: list[tuple]) -> dict[str, Layer]:
    """Calls, inclusive time, self time (duration minus the part covered by
    child spans), summed measure and errors, per span name."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, start, end, *_ in spans:
        if parent:
            children[parent].append((start, end))
    layers: dict[str, Layer] = defaultdict(Layer)
    for span_id, _, name, start, end, _, error, value in spans:
        layer = layers[name]
        duration = end - start
        kids = children.get(span_id)
        layer.calls += 1
        layer.total_s += duration
        layer.self_s += duration - (_covered(kids, start, end) if kids else 0.0)
        layer.value += value
        if error is not None:
            layer.errors[error] += 1
            layer.error_s[error] += duration
    return layers


def pair_cache_info() -> tuple[int, int]:
    """(hits, misses) of cytk's pair-sum cache, or zeros without one."""
    from cytk import hypersurface

    cached = getattr(hypersurface, "_pair_sums", None)
    if cached is None or not hasattr(cached, "cache_info"):
        return 0, 0
    info = cached.cache_info()
    return info.hits, info.misses


def clear_pair_cache() -> None:
    from cytk import hypersurface

    cached = getattr(hypersurface, "_pair_sums", None)
    if cached is not None and hasattr(cached, "cache_clear"):
        cached.cache_clear()


def merge(into: dict[str, Layer], other: dict[str, Layer]) -> None:
    for name, layer in other.items():
        target = into.setdefault(name, Layer())
        target.calls += layer.calls
        target.total_s += layer.total_s
        target.self_s += layer.self_s
        target.value += layer.value
        for error, n in layer.errors.items():
            target.errors[error] += n
            target.error_s[error] += layer.error_s[error]


_CALLS_AND_SELF = (
    "hypersurface.is_quasismooth",
    "hypersurface.stratified_locus",
    "wps.is_wellformed_hypersurface",
    "wps.CyclicQuotientType",
    "arith.attainable_sums",
    "arith.determinant",
    "arith.charpoly",
    "arith.smith_normal_form",
    "arith.solve_congruence",
    "surface.DuValMultiset.parse",
    "surface.orbifold_c2",
    "surface.enumerate_zero_c2",
    "torusq.close_group",
    "torusq.fixed_points",
)
_SELF_ONLY = (
    "census.parse_database",
    "census.normalize",
    "census.run_census",
    "census.write_csv",
    "census.write_json",
    "hypersurface.c2_lower_bound",
    "surface.classify",
    "torusq.quotient_singularities",
)
_REJECTING = ("torusq.load_action", "torusq.quotient_singularities")


def layer_metrics(
    layers: dict[str, Layer],
    counts: dict[str, int],
    pair_cache: tuple[int, int],
    parallel_ratio: float,
    overhead_ratio: float,
) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from reduced spans; a layer
    the workload never calls reads zero."""
    empty = Layer()

    def get(name: str) -> Layer:
        return layers.get(name, empty)

    metrics: dict[str, float] = {
        "cli.main.calls": get("cli.main").calls,
        "cli.self_s": get("cli.main").self_s,
    }
    for name in _CALLS_AND_SELF:
        metrics[f"{name}.calls"] = get(name).calls
        metrics[f"{name}.self_s"] = get(name).self_s
    for name in _SELF_ONLY:
        metrics[f"{name}.self_s"] = get(name).self_s
    metrics["census.parallel_ratio"] = parallel_ratio
    hits, misses = pair_cache
    metrics["hypersurface.pair_cache.hits"] = hits
    metrics["hypersurface.pair_cache.misses"] = misses
    metrics["hypersurface.pair_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["arith.attainable_sums.bits"] = get("arith.attainable_sums").value
    metrics["arith.is_partitionable.calls"] = get("arith.is_partitionable").calls
    metrics["arith.solve_congruence.solutions"] = get("arith.solve_congruence").value
    products = counts.get("torusq.products", 0)
    metrics["torusq.products"] = products
    metrics["torusq.close_group.useful_ratio"] = (
        get("torusq.close_group").value / products if products else 0.0
    )
    metrics["torusq.apply.calls"] = counts.get("torusq.apply.calls", 0)
    # time spent on actions that end in ActionValidationError, inclusive
    metrics["torusq.rejected.calls"] = sum(
        get(name).errors.get("ActionValidationError", 0) for name in _REJECTING
    )
    metrics["torusq.rejected.self_s"] = sum(
        get(name).error_s.get("ActionValidationError", 0.0) for name in _REJECTING
    )
    metrics["trace.overhead_ratio"] = overhead_ratio
    return metrics
