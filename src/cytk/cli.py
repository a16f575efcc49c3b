"""Command-line interface: analyze, census, surface, enumerate-zero-c2 and
torus-quotient subcommands, with human-readable or JSON output.

One argument parser, built when the module is imported, serves every
call of ``main``, and concurrent callers can share it, since it keeps no
per-call state.  A request takes one of two paths.  The common shapes
skip argparse: ``analyze`` with six tokens of ASCII digits, each with an
optional leading ``-``; ``surface`` with one token that does not start
with ``-``; and ``torus-quotient --file X`` with an X that does not start
with ``-``; each with an optional trailing ``--json``.  argparse
reads such tokens as positionals or option values, and ``int`` converts
them as it would, so the namespace built directly is the one the parser
returns.  Any other request, and a token ``int`` refuses, goes to the
top-level parser, which gives every usage and error text.

Rationals are serialized as "num/den" strings so that JSON output stays
exact.  Each ``--json`` reply is exactly ``json.dumps(document,
sort_keys=True, indent=2)`` plus a newline, so parsing and re-serializing
is byte-identical.  It is filled into templates that ``census.json_template``
derives from ``json.dumps`` when the module is imported, as
``census.write_json`` writes its records: booleans through
``census.BOOL_TEXT``, integers through ``%d``, strings through the stdlib's
C escaper ``encode_basestring_ascii`` and arrays of varying length through
``census.json_array``.

An integer printed in a reply stays within ``INTEGER_BITS`` bits, below
Python's 4300-digit limit for printing an int: ``analyze`` rejects a
degree over ``DEGREE_BITS`` bits, and ``surface`` a multiset that
``surface.classify`` refuses as too wide, with exit 2 and before any
output.  An operand that ``int`` refuses is shown by its first 40
characters, and one with ``int``'s syntax is named as over its digit
limit, so that no usage error echoes a long token whole.

``census -`` opens stdin's descriptor as it opens a file, in UTF-8 with
universal newlines, so a byte that is not UTF-8 is an I/O error whatever
the locale, as is a closed stdin.  A closed stdout is an I/O error for
every subcommand, before any work, and so is a write to stdout that fails,
such as on a full device: ``main`` flushes stdout before it returns and
answers a failed write with one ``error:`` line and exit 1.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

from cytk import census as census_mod
from cytk import hypersurface
from cytk.arith import INTEGER_BITS
from cytk.census import BOOL_TEXT, DIGITS, json_array, json_template
from cytk.wps import WeightSystem

DATABASE_ENV = "CYTK_DATABASE"

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_VALIDATION = 3

# The c2 bound's denominator 10·N, N the product of five weights of at
# most the degree, then stays below 2**4 · 2**(5 · 2856) = 2**INTEGER_BITS.
DEGREE_BITS = (INTEGER_BITS - 4) // 5


def _frac(value: Fraction) -> str:
    """A rational as "num/den"; ``perfbench/make_data.py`` writes the builtin
    torus translations with it."""
    return f"{value.numerator}/{value.denominator}"


_ANALYZE = json_template({
    "c2_lower_bound": "%s",
    "calabi_yau": "%s",
    "contained_edges": "%s",
    "contains_no_edge": "%s",
    "degree": "%d",
    "edge_point_loci": "%s",
    "quasismooth": "%s",
    "singular_curves": "%s",
    "singular_vertices": "%s",
    "smooth_in_codim2": "%s",
    "weights": ["%d"] * 5,
    "wellformed": "%s",
}) + "\n"

_BOUND = json_template({"positive": "%s", "value": "%d/%d"}, "  ")

_EDGE = json_template(
    {"free_weights": ["%d"] * 2, "singular": "%s", "zeroed": ["%d"] * 3}, "    "
)

_POINT_LOCUS = json_template({"order": "%d", "zeroed": ["%d"] * 3}, "    ")

_CURVE = json_template({"type": "%s", "zeroed": ["%d"] * 2}, "    ")


def _bool_word(flag: bool) -> str:
    return "yes" if flag else "no"


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.degree.bit_length() > DEGREE_BITS:
        print(f"error: degree over {DEGREE_BITS} bits", file=sys.stderr)
        return EXIT_USAGE
    try:
        ws = WeightSystem(args.degree, tuple(args.weights))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    wellformed, quasismooth, locus = hypersurface.examine(ws)
    calabi_yau = hypersurface.is_calabi_yau_degree(ws)
    bound = hypersurface.c2_lower_bound(ws) if calabi_yau else None

    if args.json:
        if bound is None:
            bound_json = "null"
        else:
            value = bound.lower_bound
            bound_json = _BOUND % (
                BOOL_TEXT[bound.positive], value.numerator, value.denominator
            )
        sys.stdout.write(
            _ANALYZE
            % (
                bound_json,
                BOOL_TEXT[calabi_yau],
                json_array(
                    [
                        _EDGE % (*e.free_weights, BOOL_TEXT[e.singular], *e.zeroed)
                        for e in locus.contained_edges
                    ],
                    "  ",
                ),
                BOOL_TEXT[locus.contains_no_edge],
                ws.degree,
                json_array(
                    [_POINT_LOCUS % (e.order, *e.zeroed) for e in locus.edge_point_loci],
                    "  ",
                ),
                BOOL_TEXT[quasismooth],
                json_array(
                    [
                        _CURVE % (encode_basestring_ascii(str(c.quotient)), *c.zeroed)
                        for c in locus.singular_curves
                    ],
                    "  ",
                ),
                json_array([str(v) for v in locus.singular_vertices], "  "),
                BOOL_TEXT[locus.smooth_in_codim2],
                *ws.weights,
                BOOL_TEXT[wellformed],
            )
        )
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
    stdin = not path or path == "-"
    if stdin and sys.stdin is None:  # started with its descriptor 0 closed
        print("error: stdin is closed", file=sys.stderr)
        return EXIT_IO
    try:
        with open(
            sys.stdin.fileno() if stdin else path,
            encoding="utf-8-sig",  # a leading byte-order mark is skipped
            closefd=not stdin,
        ) as handle:
            lines = handle.readlines()
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


_SURFACE = json_template({
    "classification": "%s",
    "conditional": "%s",
    "gate": "%s",
    "multiset": "%s",
    "orbifold_c2": "%d/%d",
    "sum_k": "%d",
}) + "\n"

_VERDICT = json_template({"verdict": "%s"}, "  ")

_REALIZED = json_template({"entry": "%d", "label": "%s", "verdict": "%s"}, "  ")

_EXCLUDED = json_template({"reason": "%s", "verdict": "excluded"}, "  ")


def _cmd_surface(args: argparse.Namespace) -> int:
    from cytk import surface  # here, so that census and analyze need not load it

    try:
        multiset = surface.DuValMultiset.parse(args.multiset)
        result = surface.classify(multiset)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.json:
        if result.entry is None:
            classification = _VERDICT % encode_basestring_ascii(result.verdict)
        else:
            classification = _REALIZED % (
                result.entry,
                encode_basestring_ascii(result.label),
                encode_basestring_ascii(result.verdict),
            )
        if result.gate is None:
            gate_json = _VERDICT % '"possible"'
        else:
            gate_json = _EXCLUDED % encode_basestring_ascii(result.gate)
        sys.stdout.write(
            _SURFACE
            % (
                classification,
                BOOL_TEXT[result.conditional],
                gate_json,
                encode_basestring_ascii(str(multiset)),
                result.c2.numerator,
                result.c2.denominator,
                result.sum_k,
            )
        )
        return EXIT_OK

    print(f"multiset: {multiset} (sum of k: {result.sum_k})")
    note = " (conditional: fewer than 11 exceptional curves)"
    print(f"  orbifold c2: {result.c2}{note if result.conditional else ''}")
    if result.gate is None:
        print("  abelian-quotient gate: possible")
    else:
        print(f"  abelian-quotient gate: excluded ({result.gate})")
    if result.verdict == surface.REALIZED_VERDICT:
        print(f"  classification: realized, entry {result.entry} ({result.label})")
    else:
        print(f"  classification: {result.verdict}")
    return EXIT_OK


_ENUMERATE = json_template({"count": "%d", "multisets": "%s"}) + "\n"


def _cmd_enumerate(args: argparse.Namespace) -> int:
    from cytk import surface

    multisets = surface.enumerate_zero_c2()
    if args.json:
        encoded = [encode_basestring_ascii(str(m)) for m in multisets]
        sys.stdout.write(_ENUMERATE % (len(multisets), json_array(encoded, "  ")))
        return EXIT_OK
    for multiset in multisets:
        print(multiset)
    print(f"total: {len(multisets)}")
    return EXIT_OK


_QUOTIENT = json_template({
    "group_order": "%d",
    "label": "%s",
    "multiset": "%s",
    "orbifold_c2": "%d/%d",
    "orbits": "%s",
}) + "\n"

_ORBIT = json_template({
    "du_val": "%s",
    "representative": ["%d/%d"] * 4,
    "size": "%d",
    "stabilizer": "%s",
    "stabilizer_order": "%d",
}, "    ")

_BUILTINS = json_template({"builtins": "%s"}) + "\n"

_BUILTIN = json_template({"multiset": "%s", "name": "%s"}, "    ")


def _quotient_json(report: torusq.QuotientReport, c2: Fraction) -> str:
    orbits = [
        _ORBIT
        % (
            encode_basestring_ascii(str(orbit.du_val)),
            *chain.from_iterable(orbit.coordinates),
            orbit.size,
            encode_basestring_ascii(orbit.stabilizer_class),
            orbit.stabilizer_order,
        )
        for orbit in report.orbits
    ]
    return _QUOTIENT % (
        report.group_order,
        encode_basestring_ascii(report.label),
        encode_basestring_ascii(str(report.multiset)),
        c2.numerator,
        c2.denominator,
        json_array(orbits, "  "),
    )


def _quotient_text(report: torusq.QuotientReport, c2: Fraction) -> str:
    """The text reply: each coordinate of a representative as "p/q", or as
    "p" when q is 1, as a Fraction prints."""
    lines = [f"action {report.label or '(unnamed)'}: group of order {report.group_order}"]
    for orbit in report.orbits:
        rep = ", ".join(f"{n}/{d}" if d != 1 else str(n) for n, d in orbit.coordinates)
        lines.append(
            f"  orbit of size {orbit.size:2d} at ({rep}): stabilizer "
            f"{orbit.stabilizer_class} (order {orbit.stabilizer_order}) -> {orbit.du_val}"
        )
    lines.append(f"quotient singularities: {report.multiset}")
    lines.append(f"orbifold c2 check: {c2}")
    return "\n".join(lines) + "\n"


def _token(text: str) -> str:
    """A refused token as its repr, cut after 40 characters as ``surface``
    shows a malformed entry."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}..."


def _refuse_wide(text: str) -> None:
    """Reject a token that int refused although it has int's syntax, around
    which int allows whitespace, so for digits over its limit."""
    if DIGITS.fullmatch(text.strip()):
        raise argparse.ArgumentTypeError(
            f"integer {_token(text)} over {sys.get_int_max_str_digits()} digits"
        )


def _int(text: str) -> int:
    """An int operand, refused in argparse's words for ``type=int`` but with
    the token cut by ``_token``."""
    try:
        return int(text)
    except ValueError:
        _refuse_wide(text)
        raise argparse.ArgumentTypeError(f"invalid int value: {_token(text)}") from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        _refuse_wide(text)
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {_token(text)}")
    return value


def _cmd_torus(args: argparse.Namespace) -> int:
    from cytk import surface, torusq

    if args.list_builtins:
        builtins = torusq.BUILTIN_EXPECTED.items()
        if args.json:
            listed = [
                _BUILTIN
                % (encode_basestring_ascii(str(multiset)), encode_basestring_ascii(name))
                for name, multiset in builtins
            ]
            sys.stdout.write(_BUILTINS % json_array(listed, "  "))
        else:
            for name, multiset in builtins:
                print(f"{name:15s} {multiset}")
        return EXIT_OK
    try:
        if args.builtin:
            action = torusq.builtin_action(args.builtin)
        else:
            action = torusq.load_action(args.file)
        report = torusq.quotient_singularities(action)
    except KeyError as exc:
        # str() of a KeyError is the repr of its message; print the message.
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, UnicodeDecodeError) as exc:
        # The action file cannot be opened or is not UTF-8, as for census.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (torusq.ActionValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    c2 = surface.orbifold_c2(report.multiset)
    reply = _quotient_json if args.json else _quotient_text
    sys.stdout.write(reply(report, c2))
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
    analyze.add_argument("degree", type=_int)
    analyze.add_argument("weights", type=_int, nargs=5, metavar="W")
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


_INTEGER = re.compile("-?[0-9]+")


def _direct(argv: Sequence[str]) -> Optional[argparse.Namespace]:
    """The namespace of a request of one of the shapes the module docstring
    lists, built without argparse; None for any other request."""
    if not argv:
        return None
    command = argv[0]
    flag = argv[-1] == "--json"
    operands = argv[1 : len(argv) - flag]
    if command == "analyze" and len(operands) == 6:
        if not all(map(_INTEGER.fullmatch, operands)):
            return None
        try:
            degree, *weights = map(int, operands)
        except ValueError:  # over int's digit limit: the parser words the error
            return None
        fields = dict(degree=degree, weights=weights, handler=_cmd_analyze)
    elif command == "surface" and len(operands) == 1 and operands[0][:1] != "-":
        fields = dict(multiset=operands[0], handler=_cmd_surface)
    elif (
        command == "torus-quotient" and len(operands) == 2
        and operands[0] == "--file" and operands[1][:1] != "-"
    ):
        fields = dict(
            builtin=None, file=operands[1], list_builtins=False, handler=_cmd_torus
        )
    else:
        return None
    return argparse.Namespace(command=command, json=flag, **fields)


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """Parse a request directly if it has one of the direct shapes, else by
    the top-level parser."""
    return _direct(argv) or _PARSER.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if sys.stdout is None:  # started with its descriptor 1 closed
        print("error: stdout is closed", file=sys.stderr)
        return EXIT_IO
    try:
        code = args.handler(args)
        sys.stdout.flush()  # so that a write that fails does so here, not at exit
    except OSError as exc:
        # Each handler answers for the files it opens, so a write to stdout
        # failed, as on a full device.  What stays buffered is sent to the
        # null device, where the interpreter's flush at exit cannot fail.
        print(f"error: {exc}", file=sys.stderr)
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
