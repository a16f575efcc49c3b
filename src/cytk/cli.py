"""Command-line interface: analyze, census, surface, enumerate-zero-c2 and
torus-quotient subcommands, with human-readable or JSON output.

One argument parser, built when the module is imported, serves every
call of ``main``: a request pays only for parsing its own arguments, and
concurrent callers can share the parser, which keeps no per-call state.

Rationals are serialized as "num/den" strings so that JSON output stays
exact.  JSON documents are emitted with sorted keys and a fixed layout, so
parsing and re-serializing is byte-identical: each reply is exactly
``json.dumps(document, sort_keys=True, indent=2)``.  A small recursive
encoder writes it, because ``indent`` makes the stdlib use its
pure-Python encoder; strings still go through the stdlib's C escaper.

``census -`` reads stdin as bytes and decodes them as strictly as a file,
so a byte that is not UTF-8 is an I/O error whatever the locale.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

from cytk import census as census_mod
from cytk import hypersurface, surface, torusq
from cytk.wps import WeightSystem

DATABASE_ENV = "CYTK_DATABASE"

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_VALIDATION = 3


def _frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _encode(value: object, indent: str = "") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` for the dicts with
    string keys, lists, strings, ints, bools and None that cytk emits.
    Under ``indent`` the stdlib runs its pure-Python encoder; here only the
    string escaper runs per value, and it is the stdlib's C one."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return repr(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    inner = indent + "  "
    if kind is dict:
        items = [
            f"{encode_basestring_ascii(key)}: {_encode(value[key], inner)}"
            for key in sorted(value)
        ]
        start, end = "{", "}"
    elif kind is list:
        items = [_encode(item, inner) for item in value]
        start, end = "[", "]"
    else:
        raise TypeError(f"cannot encode {kind.__name__} as JSON")
    if not items:
        return start + end
    return f"{start}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{end}"


def _emit_json(document: dict) -> None:
    print(_encode(document))


def _bool_word(flag: bool) -> str:
    return "yes" if flag else "no"


def _cmd_analyze(args: argparse.Namespace) -> int:
    try:
        ws = WeightSystem(args.degree, tuple(args.weights))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    wellformed, quasismooth, locus = hypersurface.examine(ws)
    calabi_yau = hypersurface.is_calabi_yau_degree(ws)
    bound = hypersurface.c2_lower_bound(ws) if calabi_yau else None

    if args.json:
        document = {
            "degree": ws.degree,
            "weights": list(ws.weights),
            "wellformed": wellformed,
            "quasismooth": quasismooth,
            "calabi_yau": calabi_yau,
            "smooth_in_codim2": locus.smooth_in_codim2,
            "contains_no_edge": locus.contains_no_edge,
            "singular_vertices": list(locus.singular_vertices),
            "contained_edges": [
                {
                    "zeroed": list(e.zeroed),
                    "free_weights": list(e.free_weights),
                    "singular": e.singular,
                }
                for e in locus.contained_edges
            ],
            "edge_point_loci": [
                {"zeroed": list(e.zeroed), "order": e.order}
                for e in locus.edge_point_loci
            ],
            "singular_curves": [
                {"zeroed": list(c.zeroed), "type": str(c.quotient)}
                for c in locus.singular_curves
            ],
            "c2_lower_bound": (
                {"value": _frac(bound.lower_bound), "positive": bound.positive}
                if bound
                else None
            ),
        }
        _emit_json(document)
        return EXIT_OK

    print(f"{ws}")
    print(f"  wellformed:        {_bool_word(wellformed)}")
    print(f"  quasismooth:       {_bool_word(quasismooth)}")
    print(f"  trivial K (d=sum): {_bool_word(calabi_yau)}")
    print(f"  smooth in codim 2: {_bool_word(locus.smooth_in_codim2)}")
    print(f"  contains no edge:  {_bool_word(locus.contains_no_edge)}")
    if locus.singular_vertices:
        verts = ", ".join(str(v) for v in locus.singular_vertices)
        print(f"  singular vertex points at coordinates: {verts}")
    for edge in locus.contained_edges:
        tag = "singular, " if edge.singular else ""
        print(
            f"  contained edge zeroed={list(edge.zeroed)} "
            f"({tag}free weights {edge.free_weights})"
        )
    for locus_edge in locus.edge_point_loci:
        print(
            f"  point locus on edge zeroed={list(locus_edge.zeroed)} "
            f"(order {locus_edge.order})"
        )
    for curve in locus.singular_curves:
        print(f"  singular curve zeroed={list(curve.zeroed)} of type {curve.quotient}")
    if bound is not None:
        sign = "> 0" if bound.positive else "= 0"
        print(f"  c2 lower bound: {bound.lower_bound} ({sign})")
    return EXIT_OK


def _cmd_census(args: argparse.Namespace) -> int:
    path = args.path or os.environ.get(DATABASE_ENV)
    try:
        if path and path != "-":
            with open(path, encoding="utf-8") as handle:
                lines = handle.readlines()
        else:
            text = sys.stdin.buffer.read().decode("utf-8")
            lines = io.StringIO(text, newline=None).readlines()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    summary, verdicts = census_mod.census_lines(lines)

    try:
        if args.csv:
            with open(args.csv, "w", encoding="utf-8", newline="") as handle:
                census_mod.write_csv(verdicts, handle)
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                census_mod.write_json(summary, verdicts, handle)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    print(f"records analyzed:                {summary.total}")
    print(f"not smooth in codimension 2:     {summary.not_smooth_codim2}")
    print(f"... and containing no edge:      {summary.not_smooth_codim2_and_no_edge}")
    if summary.failures:
        print(f"failures ({len(summary.failures)}):")
        for line, reason in summary.failures:
            print(f"  line {line}: {reason}")
    return EXIT_OK


def _gate_json(gate: surface.GateVerdict) -> dict:
    if gate.possible:
        return {"verdict": "possible"}
    return {"verdict": "excluded", "reason": gate.reason}


def _classification_json(result: surface.Classification) -> dict:
    document: dict = {"verdict": result.verdict}
    if result.entry is not None:
        document["entry"] = result.entry
        document["label"] = result.label
    return document


def _cmd_surface(args: argparse.Namespace) -> int:
    try:
        multiset = surface.DuValMultiset.parse(args.multiset)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    c2 = surface.orbifold_c2(multiset)
    gate = surface.abelian_type_gate(multiset)
    result = surface.classify(multiset)
    conditional = surface.is_conditional(multiset)

    if args.json:
        _emit_json(
            {
                "multiset": str(multiset),
                "sum_k": multiset.sum_k,
                "orbifold_c2": _frac(c2),
                "conditional": conditional,
                "gate": _gate_json(gate),
                "classification": _classification_json(result),
            }
        )
        return EXIT_OK

    print(f"multiset: {multiset} (sum of k: {multiset.sum_k})")
    note = " (conditional: fewer than 11 exceptional curves)" if conditional else ""
    print(f"  orbifold c2: {c2}{note}")
    if gate.possible:
        print("  abelian-quotient gate: possible")
    else:
        print(f"  abelian-quotient gate: excluded ({gate.reason})")
    if result.verdict == surface.REALIZED_VERDICT:
        print(f"  classification: realized, entry {result.entry} ({result.label})")
    else:
        print(f"  classification: {result.verdict}")
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    multisets = surface.enumerate_zero_c2()
    if args.json:
        _emit_json(
            {"count": len(multisets), "multisets": [str(m) for m in multisets]}
        )
        return EXIT_OK
    for multiset in multisets:
        print(multiset)
    print(f"total: {len(multisets)}")
    return EXIT_OK


def _quotient_json(report: torusq.QuotientReport, c2: Fraction) -> dict:
    return {
        "label": report.label,
        "group_order": report.group_order,
        "orbits": [
            {
                "representative": [_frac(x) for x in orbit.representative],
                "size": orbit.size,
                "stabilizer_order": orbit.stabilizer_order,
                "stabilizer": orbit.stabilizer_class,
                "du_val": str(orbit.du_val),
            }
            for orbit in report.orbits
        ],
        "multiset": str(report.multiset),
        "orbifold_c2": _frac(c2),
    }


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _cmd_torus(args: argparse.Namespace) -> int:
    if args.list_builtins:
        for action_name, expected in torusq.BUILTIN_EXPECTED.items():
            print(f"{action_name:15s} {expected}")
        return EXIT_OK
    try:
        if args.builtin:
            action = torusq.builtin_action(args.builtin)
        else:
            action = torusq.load_action(args.file)
        report = torusq.quotient_singularities(action)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (torusq.ActionValidationError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    c2 = surface.orbifold_c2(report.multiset)

    if args.json:
        _emit_json(_quotient_json(report, c2))
        return EXIT_OK

    print(f"action {report.label or '(unnamed)'}: group of order {report.group_order}")
    for orbit in report.orbits:
        rep = ", ".join(str(x) for x in orbit.representative)
        print(
            f"  orbit of size {orbit.size:2d} at ({rep}): stabilizer "
            f"{orbit.stabilizer_class} (order {orbit.stabilizer_order}) -> {orbit.du_val}"
        )
    print(f"quotient singularities: {report.multiset}")
    print(f"orbifold c2 check: {c2}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cytk",
        description=(
            "Exact-arithmetic analyses of weighted projective hypersurfaces, "
            "du Val surfaces and abelian-surface quotients."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", help="analyze one weight system (degree plus five weights)"
    )
    analyze.add_argument("degree", type=int)
    analyze.add_argument("weights", type=int, nargs=5, metavar="W")
    analyze.add_argument("--json", action="store_true", help="emit a JSON report")
    analyze.set_defaults(handler=_cmd_analyze)

    census = sub.add_parser(
        "census", help="evaluate every record of a weight-system list"
    )
    census.add_argument(
        "path",
        nargs="?",
        help=f"input file ('-' reads stdin; when omitted, ${DATABASE_ENV} or stdin)",
    )
    census.add_argument("--csv", metavar="PATH", help="write the verdict table as CSV")
    census.add_argument("--json", metavar="PATH", help="write the verdict table as JSON")
    census.add_argument("--jobs", type=_positive_int, default=1, help="has no effect")
    census.set_defaults(handler=_cmd_census)

    surf = sub.add_parser(
        "surface", help="classify a du Val multiset such as 2A3+11A1"
    )
    surf.add_argument("multiset")
    surf.add_argument("--json", action="store_true", help="emit a JSON report")
    surf.set_defaults(handler=_cmd_surface)

    enum = sub.add_parser(
        "enumerate-zero-c2", help="list all du Val multisets with orbifold c2 = 0"
    )
    enum.add_argument("--json", action="store_true", help="emit a JSON report")
    enum.set_defaults(handler=_cmd_enumerate)

    torus = sub.add_parser(
        "torus-quotient", help="quotient singularities of a torus action"
    )
    group = torus.add_mutually_exclusive_group(required=True)
    group.add_argument("--builtin", metavar="NAME", help="one of the named actions")
    group.add_argument("--file", metavar="PATH", help="JSON action description")
    group.add_argument(
        "--list-builtins", action="store_true", help="list the named actions"
    )
    torus.add_argument("--json", action="store_true", help="emit a JSON report")
    torus.set_defaults(handler=_cmd_torus)

    return parser


_PARSER = build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
