"""The torus-conjugates request stream: builtin actions conjugated by
seeded affine changes of lattice coordinates, plus invalid actions.

Conjugating an action by x -> P x + s (P a product of STEPS elementary
matrices with multipliers in [-BOUND, BOUND], s in (1/12)Z^4) keeps its
group and quotient multiset but grows matrix entries and translation
denominators.  A round is the ten builtins once each plus one invalid
action (9% of requests), cycling through three kinds that must exit 3:
an infinite-order generator (rejected at the element cap), an order-2
linear part that is not an SL(2,C) realification, and two involutions.
The infinite-order generator is sent as it is: with a seeded shift or P,
the time cytk takes to reach the cap ranged from 0.3 s to over 100 s.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Iterator

import checks
from serve import Request

STEPS = 6
BOUND = 2
SHIFT_DENOMINATOR = 12

_I4 = [[int(i == j) for j in range(4)] for i in range(4)]
_NEG = [[-int(i == j) for j in range(4)] for i in range(4)]
_HALF = ["1/2", "0", "0", "0"]
_ZERO = ["0", "0", "0", "0"]

INVALID = {
    "infinite-order": [
        {"linear": [[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], "translation": _ZERO}
    ],
    "not-sl2c": [
        {"linear": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]], "translation": _ZERO}
    ],
    "two-involutions": [
        {"linear": _NEG, "translation": _ZERO},
        {"linear": _NEG, "translation": _HALF},
    ],
}


def _mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4)] for i in range(4)]


def _apply(m, v):
    return [sum(m[i][k] * v[k] for k in range(4)) for i in range(4)]


def random_change(rng: random.Random):
    """(P, P^-1, s): P a product of STEPS elementary matrices."""
    p = [row[:] for row in _I4]
    p_inv = [row[:] for row in _I4]
    for _ in range(STEPS):
        i, j = rng.sample(range(4), 2)
        k = rng.choice([x for x in range(-BOUND, BOUND + 1) if x])
        e = [row[:] for row in _I4]
        e[i][j] = k
        e_inv = [row[:] for row in _I4]
        e_inv[i][j] = -k
        p = _mul(p, e)
        p_inv = _mul(e_inv, p_inv)
    s = [Fraction(rng.randrange(SHIFT_DENOMINATOR), SHIFT_DENOMINATOR) for _ in range(4)]
    return p, p_inv, s


def conjugate(generator: dict, p, p_inv, s) -> dict:
    """h g h^-1 for h = (P, s): linear P M P^-1, translation
    P t + s - (P M P^-1) s, reduced mod Z^4."""
    linear = _mul(_mul(p, generator["linear"]), p_inv)
    t = [Fraction(x) for x in generator["translation"]]
    moved = _apply(linear, s)
    translation = [(a + b - c) % 1 for a, b, c in zip(_apply(p, t), s, moved)]
    return {"linear": linear, "translation": [checks.frac_text(x) for x in translation]}


class TorusConjugates:
    def __init__(self, builtins: list[dict], out_dir: Path) -> None:
        self.builtins = builtins
        self.out_dir = out_dir

    def _request(self, rng, serial, label, generators, conjugated=True):
        if conjugated:
            p, p_inv, s = random_change(rng)
            generators = [conjugate(g, p, p_inv, s) for g in generators]
        name = str(self.out_dir / f"action-{serial}.json")
        return name, {"label": label, "generators": generators}

    def rounds(self, rng: random.Random) -> Iterator[list[Request]]:
        serial = 0
        kinds = list(INVALID)
        round_no = 0
        while True:
            batch = []
            for spec in self.builtins:
                serial += 1
                name, doc = self._request(rng, serial, spec["label"], spec["generators"])
                check = partial(
                    checks.check_torus,
                    expected_multiset=spec["multiset"],
                    group_order=spec["group_order"],
                )
                batch.append(Request(
                    f"torus {spec['label']}",
                    ["torus-quotient", "--file", name, "--json"],
                    check,
                    files={name: json.dumps(doc)},
                ))
            kind = kinds[round_no % len(kinds)]
            serial += 1
            name, doc = self._request(
                rng, serial, kind, INVALID[kind], kind != "infinite-order"
            )
            batch.append(Request(
                f"torus {kind}",
                ["torus-quotient", "--file", name, "--json"],
                reject=3,
                files={name: json.dumps(doc)},
            ))
            rng.shuffle(batch)
            round_no += 1
            yield batch
