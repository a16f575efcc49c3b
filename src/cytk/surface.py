"""Orbifold second Chern class of normal canonical surfaces with trivial
canonical class, and the classification of those covered by an abelian
surface.

A du Val singularity of type T carries k(T) exceptional (-2)-curves and a
local group of order r(T); a surface with singularity multiset m has

    c2_orb = 24 - sum over m of (k + 1 - 1/r),

provided its minimal resolution is a K3 surface (automatic once the
multiset carries at least 11 curves; below that the value is flagged
conditional).

``classify`` answers for a multiset in one report, whose abelian-quotient
gate excludes it for c2 != 0 or, when c2 = 0, for sum k > 19.  Every
integer of a report fits in ``arith.INTEGER_BITS`` bits, so that it can be
printed: ``classify`` and ``orbifold_c2`` raise ValueError otherwise.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, Optional

from cytk.arith import INTEGER_BITS

GATE_C2 = "c2 != 0"
GATE_TOO_MANY = "sum k > 19"
_TOO_WIDE = f"orbifold c2 or sum of k over {INTEGER_BITS} bits"

# Local group orders: cyclic for A_n, binary dihedral for D_n, binary
# tetrahedral / octahedral / icosahedral for E6 / E7 / E8.
_E_ORDERS = {6: 24, 7: 48, 8: 120}


@dataclass(frozen=True, order=True)
class DuValType:
    """One du Val (ADE) singularity type, e.g. A1, D5, E6."""

    family: str
    index: int

    def __post_init__(self) -> None:
        if self.family not in ("A", "D", "E"):
            raise ValueError("family must be A, D or E")
        low = {"A": 1, "D": 4, "E": 6}[self.family]
        if self.index < low:
            raise ValueError(f"{self.family}{self.index} is not a du Val type")
        if self.family == "E" and self.index > 8:
            raise ValueError(f"E{self.index} is not a du Val type")

    @property
    def k(self) -> int:
        """Number of (-2)-curves in the minimal resolution."""
        return self.index

    @property
    def r(self) -> int:
        """Order of the local quotient group."""
        if self.family == "A":
            return self.index + 1
        if self.family == "D":
            return 4 * (self.index - 2)
        return _E_ORDERS[self.index]

    def scaled_deficiency(self, scale: int) -> int:
        """The type's summand k + 1 - 1/r of the c2 formula times ``scale``,
        a multiple L of r: (k + 1)·L - L/r."""
        return (self.k + 1) * scale - scale // self.r

    def __str__(self) -> str:
        return f"{self.family}{self.index}"


_ENTRY_RE = re.compile(r"(\d*)([ADE])(\d+)")


@dataclass(frozen=True)
class DuValMultiset:
    """A finite multiset of du Val types, stored as sorted (type, count)
    pairs."""

    entries: tuple[tuple[DuValType, int], ...]

    def __post_init__(self) -> None:
        counts: dict[DuValType, int] = {}
        for typ, count in self.entries:
            if count <= 0:
                raise ValueError("counts must be positive")
            counts[typ] = counts.get(typ, 0) + count
        object.__setattr__(
            self, "entries", tuple(sorted(counts.items()))
        )

    @classmethod
    def parse(cls, text: str) -> "DuValMultiset":
        """Parse the compact grammar ``[count]FAMILYindex`` joined by '+',
        e.g. "16A1", "2A3+11A1", "E6+D4+4A2+A1"."""
        entries = []
        for chunk in text.replace(" ", "").split("+"):
            match = _ENTRY_RE.fullmatch(chunk)
            shown = repr(chunk) if len(chunk) <= 40 else f"{chunk[:40]!r}..."
            if not match:
                raise ValueError(f"cannot parse multiset entry {shown}")
            count, family, index = match.groups()
            try:
                index, count = int(index), int(count or "1")
            except ValueError:  # the digits are over int's limit
                raise ValueError(
                    f"multiset entry {shown} has a count or index "
                    f"over {sys.get_int_max_str_digits()} digits"
                ) from None
            entries.append((DuValType(family, index), count))
        return cls(tuple(entries))

    def __iter__(self) -> Iterator[tuple[DuValType, int]]:
        return iter(self.entries)

    @property
    def sum_k(self) -> int:
        return sum(typ.k * count for typ, count in self.entries)

    def __str__(self) -> str:
        if not self.entries:
            return "(smooth)"
        parts = []
        for typ, count in sorted(self.entries, reverse=True):
            parts.append(f"{count if count > 1 else ''}{typ}")
        return "+".join(parts)


EMPTY = DuValMultiset(())


def orbifold_c2(multiset: DuValMultiset) -> Fraction:
    """Exact value 24 - sum of (k + 1 - 1/r) over the multiset.

    The sum runs in integers: with L the lcm of the types' r (1 for the
    empty multiset), the value is (24·L - sum of count·scaled summand) / L,
    one ``Fraction``.  L is built one type at a time and refused, by
    ValueError, once over ``INTEGER_BITS`` bits: a long multiset of wide
    types would cost seconds before the width of c2 showed.
    """
    scale = 1
    for typ, _ in multiset:
        scale = lcm(scale, typ.r)
        if scale.bit_length() > INTEGER_BITS:
            raise ValueError(
                f"lcm of the local group orders over {INTEGER_BITS} bits "
                "(the orbifold c2 denominator divides it and may be narrower)"
            )
    deficit = sum(count * typ.scaled_deficiency(scale) for typ, count in multiset)
    return Fraction(24 * scale - deficit, scale)


# The ten singularity multisets realized by abelian-surface quotients,
# with the realizing quotient construction as label.
REALIZED: tuple[tuple[int, str, DuValMultiset], ...] = tuple(
    (number, label, DuValMultiset.parse(text))
    for number, label, text in (
        (1, "abelian surface / -id", "16A1"),
        (2, "E3 x E3 / Z3", "9A2"),
        (3, "E x E / Z4", "4A3+6A1"),
        (4, "E3 x E3 / Z6", "A5+4A2+5A1"),
        (5, "C^2/L8 / BD8 (shifted)", "6A3+A1"),
        (6, "E4 x E4 / BD8", "2D4+3A3+2A1"),
        (7, "C^2/L8 / BD8", "4D4+3A1"),
        (8, "E3 x E3 / BD12", "D5+3A3+2A2+A1"),
        (9, "C^2/L8 / BT24 (shifted)", "A5+2A3+4A2"),
        (10, "C^2/L8 / BT24", "E6+D4+4A2+A1"),
    )
)
_REALIZED_BY_ENTRIES = {m.entries: (number, label) for number, label, m in REALIZED}

K3_TYPE = "k3_type"
REALIZED_VERDICT = "realized"
NOT_REALIZED = "not_realized"


@dataclass(frozen=True)
class Classification:
    """The answer for one multiset: its orbifold ``c2`` and ``sum_k``, the
    ``conditional`` flag (sum_k < 11: the K3 hypothesis is not automatic),
    the ``gate`` (None, or why the multiset is no abelian-surface quotient:
    ``c2 != 0`` or ``sum k > 19``) and the ``verdict``, with the ``entry``
    and ``label`` of a realized multiset.

    The gate needs no lower bound on sum_k: 1 - 1/r <= k/2 for every type,
    so c2 = 0 forces 24 <= 3/2 · sum_k, that is sum_k >= 16.  The complete
    list, ``enumerate_zero_c2()``, has 35 multisets with sums 16 to 20.
    """

    c2: Fraction
    sum_k: int
    conditional: bool
    gate: Optional[str]
    verdict: str
    entry: Optional[int] = None
    label: Optional[str] = None


def classify(multiset: DuValMultiset) -> Classification:
    """The report of a multiset, with c2 and the sum of k computed once;
    ValueError for a sum of k, an lcm of the r's (``orbifold_c2``) or a c2
    numerator over ``INTEGER_BITS`` bits, checked in that order."""
    sum_k = multiset.sum_k
    if sum_k.bit_length() > INTEGER_BITS:
        raise ValueError(_TOO_WIDE)
    c2 = orbifold_c2(multiset)
    if c2.numerator.bit_length() > INTEGER_BITS:
        raise ValueError(_TOO_WIDE)
    if c2 != 0:
        return Classification(c2, sum_k, sum_k < 11, GATE_C2, K3_TYPE)
    gate = GATE_TOO_MANY if sum_k > 19 else None
    entry, label = _REALIZED_BY_ENTRIES.get(multiset.entries, (None, None))
    verdict = NOT_REALIZED if entry is None else REALIZED_VERDICT
    return Classification(c2, sum_k, sum_k < 11, gate, verdict, entry, label)


def _candidate_types(max_k: int) -> list[DuValType]:
    types = [DuValType("A", n) for n in range(1, max_k + 1)]
    types += [DuValType("D", n) for n in range(4, max_k + 1)]
    types += [DuValType("E", n) for n in (6, 7, 8)]
    return types


def enumerate_zero_c2(max_k: int = 19) -> list[DuValMultiset]:
    """The complete finite list of multisets with c2 = 0, in deterministic
    order.

    Each summand is at least 3/2, so at most 16 entries fit, and no single
    type with k > 19 can be completed to an exact solution; the search is
    therefore finite with the default bound.

    The search runs in integers.  With L the lcm of the local group orders
    r over the candidate types, each summand k + 1 - 1/r becomes
    (k + 1)·L - L/r and the target 24·L.  Types are tried in decreasing
    order of their summand, each with its count from the largest that fits
    down to zero, and a branch is cut as soon as the remaining value is not
    divisible by the gcd of the summands still available (a suffix-gcd
    table).  With the default bound that is 2335 search nodes, about 1 ms.
    """
    candidates = _candidate_types(max_k)
    scale = lcm(*(typ.r for typ in candidates))
    terms = sorted(
        ((typ, typ.scaled_deficiency(scale)) for typ in candidates),
        key=lambda pair: pair[1],
        reverse=True,
    )
    # suffix_gcd[i] is the gcd of the summands from position i on.
    suffix_gcd = [0] * (len(terms) + 1)
    for idx in range(len(terms) - 1, -1, -1):
        suffix_gcd[idx] = gcd(terms[idx][1], suffix_gcd[idx + 1])
    solutions: list[DuValMultiset] = []
    acc: list[tuple[DuValType, int]] = []

    def descend(idx: int, remaining: int) -> None:
        if remaining == 0:
            solutions.append(DuValMultiset(tuple(acc)))
            return
        if idx == len(terms) or remaining % suffix_gcd[idx]:
            return
        typ, term = terms[idx]
        for count in range(remaining // term, 0, -1):
            acc.append((typ, count))
            descend(idx + 1, remaining - count * term)
            acc.pop()
        descend(idx + 1, remaining)

    descend(0, 24 * scale)
    solutions.sort(key=lambda m: m.entries)
    return solutions
