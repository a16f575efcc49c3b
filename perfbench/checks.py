"""Output checks, computed by the benchmark independently of cytk.

Each ``check_*`` function takes the parsed JSON reply of a request that
exited 0 and returns None when it is right, or a short reason otherwise.
The checks run outside the timed calls.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

# (k, r): exceptional curves and local group order of each du Val type.
_E_ORDERS = {6: 24, 7: 48, 8: 120}


def du_val_kr(family: str, index: int) -> tuple[int, int]:
    if family == "A":
        return index, index + 1
    if family == "D":
        return index, 4 * (index - 2)
    return index, _E_ORDERS[index]


# The paper's ten realized multisets, by table entry.
REALIZED = {
    "16A1": 1,
    "9A2": 2,
    "4A3+6A1": 3,
    "A5+4A2+5A1": 4,
    "6A3+A1": 5,
    "2D4+3A3+2A1": 6,
    "4D4+3A1": 7,
    "D5+3A3+2A2+A1": 8,
    "A5+2A3+4A2": 9,
    "E6+D4+4A2+A1": 10,
}

_ENTRY = re.compile(r"^(\d*)([ADE])(\d+)$")


def parse_multiset(text: str) -> Counter:
    """``[count]FAMILYindex`` terms joined by '+', as a Counter of
    (family, index)."""
    counts: Counter = Counter()
    for chunk in text.split("+"):
        match = _ENTRY.match(chunk)
        if not match:
            raise ValueError(f"bad multiset term {chunk!r}")
        count, family, index = match.groups()
        counts[(family, int(index))] += int(count or "1")
    return counts


def multiset_key(counts: Counter) -> frozenset:
    return frozenset(counts.items())


REALIZED_KEYS = {multiset_key(parse_multiset(m)): n for m, n in REALIZED.items()}


def orbifold_c2(counts: Counter) -> Fraction:
    total = Fraction(24)
    for (family, index), count in counts.items():
        k, r = du_val_kr(family, index)
        total -= count * (k + 1 - Fraction(1, r))
    return total


def frac_text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def c2_bound(d: int, w: tuple[int, ...]) -> Fraction:
    """d * sum_{i<j} (w_i - w_j)^2 / (10 N), N the product of the weights."""
    spread = sum((w[i] - w[j]) ** 2 for i, j in combinations(range(5), 2))
    return Fraction(d * spread, 10 * prod(w))


def is_wellformed(d: int, w: tuple[int, ...]) -> bool:
    for i in range(5):
        g = 0
        for j in range(5):
            if j != i:
                g = gcd(g, w[j])
        if g != 1:
            return False
    for pair in combinations(range(5), 2):
        g = 0
        for j in range(5):
            if j not in pair:
                g = gcd(g, w[j])
        if d % g:
            return False
    return True


def _bool(text: str) -> bool:
    return text == "true"


def check_analyze(doc, d: int, w: tuple[int, ...], golden: dict | None):
    if doc["degree"] != d or doc["weights"] != list(w):
        return "degree/weights not echoed"
    calabi_yau = d == sum(w)
    if doc["calabi_yau"] is not calabi_yau:
        return "calabi_yau"
    bound = doc["c2_lower_bound"]
    if not calabi_yau:
        if bound is not None:
            return "c2 bound reported for d != sum(w)"
    elif bound != {"value": frac_text(c2_bound(d, w)), "positive": len(set(w)) > 1}:
        return f"c2 bound {bound}"
    if doc["wellformed"] is not is_wellformed(d, w):
        return "wellformed"
    vertices = [i for i in range(5) if w[i] > 1 and d % w[i]]
    if doc["singular_vertices"] != vertices:
        return "singular vertices"
    if golden is not None:
        for key in ("wellformed", "quasismooth", "calabi_yau",
                    "smooth_in_codim2", "contains_no_edge"):
            if doc[key] is not _bool(golden[key]):
                return f"{key} differs from the golden verdict"
        curves = ";".join(c["type"] for c in doc["singular_curves"])
        if curves != golden["singular_curve_types"]:
            return "singular curve types differ from the golden verdict"
    return None


def expected_surface(counts: Counter) -> dict:
    """The surface report's derived fields, from the (k, r) table and the
    paper's ten-row classification."""
    c2 = orbifold_c2(counts)
    sum_k = sum(index * count for (_, index), count in counts.items())
    if c2 != 0:
        gate = {"verdict": "excluded", "reason": "c2 != 0"}
        classification = {"verdict": "k3_type"}
    else:
        if sum_k < 16:
            gate = {"verdict": "excluded", "reason": "sum k < 16"}
        elif sum_k > 19:
            gate = {"verdict": "excluded", "reason": "sum k > 19"}
        else:
            gate = {"verdict": "possible"}
        entry = REALIZED_KEYS.get(multiset_key(counts))
        classification = (
            {"verdict": "realized", "entry": entry}
            if entry
            else {"verdict": "not_realized"}
        )
    return {
        "sum_k": sum_k,
        "orbifold_c2": frac_text(c2),
        "conditional": sum_k < 11,
        "gate": gate,
        "classification": classification,
    }


def check_surface(doc, counts: Counter):
    if parse_multiset(doc["multiset"]) != counts:
        return "multiset not echoed"
    classification = dict(doc["classification"])
    label = classification.pop("label", None)
    got = {**doc, "classification": classification}
    for key, value in expected_surface(counts).items():
        if got[key] != value:
            return f"{key}: {got[key]} != {value}"
    if classification["verdict"] == "realized" and not label:
        return "realized multiset without a label"
    return None


def check_enumerate(doc, zero_c2: set):
    found = [multiset_key(parse_multiset(m)) for m in doc["multisets"]]
    if doc["count"] != 35 or len(set(found)) != 35:
        return f"expected 35 distinct multisets, got {doc['count']}"
    if any(orbifold_c2(Counter(dict(key))) != 0 for key in found):
        return "multiset with c2 != 0"
    if set(found) != zero_c2:
        return "multisets differ from the golden list"
    return None


def check_torus(doc, expected_multiset: str, group_order: int):
    counts = parse_multiset(expected_multiset)
    if parse_multiset(doc["multiset"]) != counts:
        return f"multiset {doc['multiset']} != {expected_multiset}"
    if doc["orbifold_c2"] != "0/1":
        return f"c2 {doc['orbifold_c2']}"
    if doc["group_order"] != group_order:
        return f"group order {doc['group_order']} != {group_order}"
    orbit_types: Counter = Counter()
    for orbit in doc["orbits"]:
        if orbit["size"] * orbit["stabilizer_order"] != group_order:
            return "orbit size x stabilizer order != |G|"
        orbit_types += parse_multiset(orbit["du_val"])
    if orbit_types != counts:
        return "orbit types do not add up to the multiset"
    return None
