"""Orbifold second Chern class of normal canonical surfaces with trivial
canonical class, and the classification of those covered by an abelian
surface.

A du Val singularity of type T carries k(T) exceptional (-2)-curves and a
local group of order r(T); a surface with singularity multiset m has

    c2_orb = 24 - sum over m of (k + 1 - 1/r),

provided its minimal resolution is a K3 surface (automatic once the
multiset carries at least 11 curves; below that the value is flagged
conditional).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, Optional, Sequence

GATE_C2 = "c2 != 0"
GATE_TOO_FEW = "sum k < 16"
GATE_TOO_MANY = "sum k > 19"

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

    @property
    def deficiency(self) -> Fraction:
        """The summand k + 1 - 1/r contributed to the c2 formula."""
        return self.k + 1 - Fraction(1, self.r)

    def __str__(self) -> str:
        return f"{self.family}{self.index}"


_ENTRY_RE = re.compile(r"^(\d*)([ADE])(\d+)$")


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
            match = _ENTRY_RE.match(chunk)
            if not match:
                raise ValueError(f"cannot parse multiset entry {chunk!r}")
            count, family, index = match.groups()
            entries.append((DuValType(family, int(index)), int(count or "1")))
        return cls(tuple(entries))

    def __iter__(self) -> Iterator[tuple[DuValType, int]]:
        return iter(self.entries)

    def __len__(self) -> int:
        return sum(count for _, count in self.entries)

    @property
    def sum_k(self) -> int:
        return sum(typ.k * count for typ, count in self.entries)

    def union(self, other: "DuValMultiset") -> "DuValMultiset":
        return DuValMultiset(self.entries + other.entries)

    def __str__(self) -> str:
        if not self.entries:
            return "(smooth)"
        parts = []
        for typ, count in sorted(self.entries, reverse=True):
            parts.append(f"{count if count > 1 else ''}{typ}")
        return "+".join(parts)


EMPTY = DuValMultiset(())


def orbifold_c2(multiset: DuValMultiset) -> Fraction:
    """Exact value 24 - sum of (k + 1 - 1/r) over the multiset."""
    total = Fraction(24)
    for typ, count in multiset:
        total -= count * typ.deficiency
    return total


def is_conditional(multiset: DuValMultiset) -> bool:
    """True when fewer than 11 (-2)-curves are present, so the K3 hypothesis
    behind the c2 formula is not automatic."""
    return multiset.sum_k < 11


@dataclass(frozen=True)
class GateVerdict:
    possible: bool
    reason: Optional[str] = None


def abelian_type_gate(multiset: DuValMultiset) -> GateVerdict:
    """Necessary conditions for the surface to be a quotient of an abelian
    surface: c2 = 0, at least 16 and at most 19 exceptional curves."""
    if orbifold_c2(multiset) != 0:
        return GateVerdict(False, GATE_C2)
    if multiset.sum_k < 16:
        return GateVerdict(False, GATE_TOO_FEW)
    if multiset.sum_k > 19:
        return GateVerdict(False, GATE_TOO_MANY)
    return GateVerdict(True)


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

K3_TYPE = "k3_type"
REALIZED_VERDICT = "realized"
NOT_REALIZED = "not_realized"


@dataclass(frozen=True)
class Classification:
    verdict: str
    entry: Optional[int] = None
    label: Optional[str] = None


def classify(multiset: DuValMultiset) -> Classification:
    """Sort a multiset into K3 type (c2 != 0), one of the ten realized
    abelian-quotient types, or provably not realized."""
    if orbifold_c2(multiset) != 0:
        return Classification(K3_TYPE)
    for number, label, realized in REALIZED:
        if realized == multiset:
            return Classification(REALIZED_VERDICT, entry=number, label=label)
    return Classification(NOT_REALIZED)


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
        ((typ, (typ.k + 1) * scale - scale // typ.r) for typ in candidates),
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
