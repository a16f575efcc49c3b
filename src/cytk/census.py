"""Ingestion of weight-system lists and batch evaluation of the
hypersurface predicates.

The input format is tolerant whitespace-separated integers: the first
integer on a line is the degree, the rest are weights (4 or 5 of them).
Four-weight records are completed with the missing weight d/2, matching
the correspondence between the two halves of the published classification.
This module is the one owner of that format: ``census_lines`` reads it
and ``format_record`` writes it.  Failures are listed in line order, and a
record failing both predicates is "not quasismooth" before "not wellformed".

The module also owns the layout of every JSON document cytk writes:
``json_template`` derives each fixed shape from ``json.dumps`` once, at
import, and ``json_array`` lays out arrays of varying length.
"""

from __future__ import annotations

import csv
import json
import re
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from math import log10
from typing import Iterable, NamedTuple, Sequence, TextIO

from cytk import hypersurface
from cytk.wps import WeightSystem

N3 = "N3"  # record arrived with 4 weights, the d/2 weight was appended
N4 = "N4"  # record arrived with all 5 weights

DIGITS = re.compile(r"[+-]?\d+(?:_\d+)*")  # the base-10 syntax of int()


class RecordVerdict(NamedTuple):
    line: int
    degree: int
    weights: tuple[int, int, int, int, int]
    origin: str
    wellformed: bool
    quasismooth: bool
    calabi_yau: bool
    smooth_in_codim2: bool
    contains_no_edge: bool
    singular_curve_types: tuple[str, ...]


@dataclass(frozen=True)
class CensusSummary:
    total: int
    not_smooth_codim2: int
    not_smooth_codim2_and_no_edge: int
    failures: tuple[tuple[int, str], ...]


def format_record(degree: int, weights: Sequence[int]) -> str:
    """The list line of a weight system: degree, then the weights in the
    order given, leaving out one weight equal to d/2 if there is one."""
    if degree % 2 == 0 and degree // 2 in weights:
        weights = list(weights)
        weights.remove(degree // 2)
    return " ".join(map(str, (degree, *weights)))


def _integer_text(x: int) -> str:
    """A positive x in decimal, or, past 40 digits, its first 40 digits and
    its digit count.  The bit length is read first, so a wide x, which may
    be over the interpreter's digit limit, never reaches str() whole."""
    if x.bit_length() > 132:  # x >= 2**132 > 10**39: 40 digits or more
        digits = int((x.bit_length() - 1) * log10(2))  # at most the count
        while 10**digits <= x:
            digits += 1
        if digits > 40:
            return f"{x // 10 ** (digits - 40)}... ({digits} digits)"
    return str(x)


def _record(values: list[int]) -> tuple[WeightSystem, str]:
    """The weight system and origin of a line's leading integers;
    ValueError says why they denote none."""
    if len(values) < 2:
        raise ValueError("no degree/weight integers found")
    if min(values) <= 0:
        raise ValueError("degree and weights must be positive")
    degree, weights = values[0], tuple(values[1:])
    if len(weights) == 4:
        if degree % 2 != 0:
            raise ValueError("4-weight record with odd degree")
        if degree // 2 in weights:
            raise ValueError("4-weight record already contains d/2")
        weights += (degree // 2,)
        origin = N3
    elif len(weights) == 5:
        origin = N4
    else:
        raise ValueError(f"expected 4 or 5 weights, got {len(weights)}")
    total = sum(weights)
    if total != degree:
        raise ValueError(
            f"degree {_integer_text(degree)} is not the weight sum {_integer_text(total)}"
        )
    return WeightSystem(degree, weights), origin  # may raise ValueError


def census_lines(
    lines: Iterable[str],
) -> tuple[CensusSummary, list[RecordVerdict]]:
    """Read and evaluate every record of a list, in one pass over its lines.

    The leading integers of a line are degree then weights; everything from
    the first non-integer token on is ignored, but an integer over the
    interpreter's digit limit fails its line.  Lines starting with '#' are
    comments.  A 4-weight record gets the weight d/2 appended, and every
    record must have d = sum(w).  A line that denotes no record fails with
    the reason; a record fails "not quasismooth", then "not wellformed", for
    each predicate it does not satisfy.  Failures never abort the run and
    are listed in line order.
    """
    verdicts: list[RecordVerdict] = []
    failures: list[tuple[int, str]] = []
    not_smooth = 0
    not_smooth_no_edge = 0
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens or tokens[0][0] == "#":
            continue
        values: list[int] = []
        try:
            for token in tokens:
                try:
                    values.append(int(token))
                except ValueError:
                    if DIGITS.fullmatch(token):  # so over int's digit limit
                        limit = sys.get_int_max_str_digits()
                        raise ValueError(f"integer over the {limit}-digit limit")
                    break
            ws, origin = _record(values)
        except ValueError as exc:
            failures.append((lineno, str(exc)))
            continue
        wellformed, quasismooth, locus = hypersurface.examine(ws)  # locus also for failures
        if not quasismooth:
            failures.append((lineno, "not quasismooth"))
        if not wellformed:
            failures.append((lineno, "not wellformed"))
        if not locus.smooth_in_codim2:
            not_smooth += 1
            not_smooth_no_edge += locus.contains_no_edge
        verdicts.append(
            RecordVerdict(  # positional, in the order of the fields
                lineno,
                ws.degree,
                ws.weights,
                origin,
                wellformed,
                quasismooth,
                True,  # _record refused every record with d != sum(w)
                locus.smooth_in_codim2,
                locus.contains_no_edge,
                tuple([str(c.quotient) for c in locus.singular_curves]),
            )
        )
    summary = CensusSummary(
        total=len(verdicts),
        not_smooth_codim2=not_smooth,
        not_smooth_codim2_and_no_edge=not_smooth_no_edge,
        failures=tuple(failures),
    )
    return summary, verdicts


# A boolean as the CSV and every JSON document cytk writes spell it.
BOOL_TEXT = {True: "true", False: "false"}

CSV_FIELDS = (
    "line",
    "degree",
    "w0",
    "w1",
    "w2",
    "w3",
    "w4",
    "wellformed",
    "quasismooth",
    "calabi_yau",
    "smooth_in_codim2",
    "contains_no_edge",
    "singular_curve_types",
)


def write_csv(verdicts: Sequence[RecordVerdict], out: TextIO) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for v in verdicts:
        writer.writerow(
            [v.line, v.degree, *v.weights]
            + [
                BOOL_TEXT[v.wellformed],
                BOOL_TEXT[v.quasismooth],
                BOOL_TEXT[v.calabi_yau],
                BOOL_TEXT[v.smooth_in_codim2],
                BOOL_TEXT[v.contains_no_edge],
                ";".join(v.singular_curve_types),
            ]
        )


def json_array(items: Sequence[str], indent: str) -> str:
    """Already encoded items as a JSON array laid out by ``json.dump`` with
    ``indent=2``, for an array that opens on a line indented by ``indent``.
    Every JSON document cytk writes lays out its arrays of varying length
    through this function."""
    if not items:
        return "[]"
    inner = indent + "  "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


def json_template(skeleton: object, indent: str = "") -> str:
    """The %-template of a JSON document shaped as ``skeleton``, for one
    that opens on a line indented by ``indent``: ``json.dumps(skeleton,
    sort_keys=True, indent=2)`` with each value ``"%s"`` or ``"%d"`` left
    bare as a placeholder, and every line after the first indented by
    ``indent``.  A ``%`` inside any other string, such as ``"%d/%d"``, is
    a placeholder too, so no key holds one."""
    text = json.dumps(skeleton, sort_keys=True, indent=2)
    text = text.replace('"%s"', "%s").replace('"%d"', "%d")
    return text.replace("\n", "\n" + indent)


_RECORD = json_template({
    "calabi_yau": "%s",
    "contains_no_edge": "%s",
    "degree": "%d",
    "line": "%d",
    "origin": "%s",
    "quasismooth": "%s",
    "singular_curve_types": "%s",
    "smooth_in_codim2": "%s",
    "weights": ["%d"] * 5,
    "wellformed": "%s",
}, "    ")

_FAILURE = json_template({"line": "%d", "reason": "%s"}, "      ")

# The document around its records: the head up to the records array, and
# the tail from after it, with the summary to fill in.
_HEAD, _SUMMARY = (json_template({
    "records": "%s",
    "summary": {
        "failures": "%s",
        "not_smooth_codim2": "%d",
        "not_smooth_codim2_and_no_edge": "%d",
        "total": "%d",
    },
}) + "\n").split("%s", 1)


def write_json(
    summary: CensusSummary, verdicts: Sequence[RecordVerdict], out: TextIO
) -> None:
    """The census as ``{"records": [...], "summary": {...}}``, in exactly the
    layout of ``json.dump(..., sort_keys=True, indent=2)`` plus a newline.

    Each record is filled into one template and written as it is made:
    booleans through ``BOOL_TEXT``, integers through ``%d`` and strings
    through ``encode_basestring_ascii``, the stdlib's C escaper, where
    ``indent`` would send the whole document through the pure-Python
    encoder.
    """
    out.write(_HEAD)
    separator = "[\n    "
    for v in verdicts:
        out.write(separator)
        out.write(
            _RECORD
            % (
                BOOL_TEXT[v.calabi_yau],
                BOOL_TEXT[v.contains_no_edge],
                v.degree,
                v.line,
                encode_basestring_ascii(v.origin),
                BOOL_TEXT[v.quasismooth],
                json_array(
                    [encode_basestring_ascii(t) for t in v.singular_curve_types], "      "
                ),
                BOOL_TEXT[v.smooth_in_codim2],
                *v.weights,
                BOOL_TEXT[v.wellformed],
            )
        )
        separator = ",\n    "
    out.write("\n  ]" if verdicts else "[]")
    failures = [
        _FAILURE % (line, encode_basestring_ascii(reason))
        for line, reason in summary.failures
    ]
    out.write(
        _SUMMARY
        % (
            json_array(failures, "    "),
            summary.not_smooth_codim2,
            summary.not_smooth_codim2_and_no_edge,
            summary.total,
        )
    )
