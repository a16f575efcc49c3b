"""The query-mix request stream: seeded rounds of analyze, surface and
enumerate-zero-c2 requests.

A round is ROUND requests in seeded order: 70% analyze (half KS records
with golden verdicts, half random 5-tuples up to 3x the largest KS degree,
which are not Calabi-Yau or not quasismooth and mostly miss the pair
cache), the rest surface, and one enumerate-zero-c2, which keeps that
request at about a seventh of the time.  Whole rounds keep the mix of
every run the same.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import partial
from math import gcd
from typing import Iterator

import checks
from serve import Request

ROUND = 500
ANALYZE_KS = 175
ANALYZE_RANDOM = 175
ENUMERATE = 1
SURFACE = ROUND - ANALYZE_KS - ANALYZE_RANDOM - ENUMERATE

_TYPES = (
    [("A", n) for n in range(1, 12)]
    + [("D", n) for n in range(4, 9)]
    + [("E", n) for n in (6, 7, 8)]
)


def _random_weights(rng: random.Random, top: int) -> tuple[int, int, int, int, int]:
    while True:
        w = tuple(rng.randint(1, top) for _ in range(5))
        if gcd(*w) == 1:
            return w


def _random_system(rng: random.Random, max_degree: int) -> tuple[int, tuple]:
    """Half with d = sum(w) (trivial K, almost never quasismooth), half
    with an unrelated degree (not Calabi-Yau); always a valid input."""
    if rng.random() < 0.5:
        w = _random_weights(rng, max_degree // 5)
        return sum(w), w
    d = rng.randint(2, max_degree)
    return d, _random_weights(rng, d)


def _render(rng: random.Random, counts: Counter) -> str:
    """A multiset in the CLI grammar, terms in random order and some
    counts split over two terms."""
    terms = []
    for (family, index), count in counts.items():
        parts = [count]
        if count > 1 and rng.random() < 0.3:
            first = rng.randint(1, count - 1)
            parts = [first, count - first]
        for part in parts:
            terms.append(f"{part if part > 1 else ''}{family}{index}")
    rng.shuffle(terms)
    return "+".join(terms)


def _random_counts(rng: random.Random) -> Counter:
    counts: Counter = Counter()
    for typ in rng.sample(_TYPES, rng.randint(1, 4)):
        counts[typ] = rng.randint(1, 6)
    return counts


class QueryMix:
    def __init__(self, golden: list[dict], zero_c2: list[str]) -> None:
        self.ks = [
            (int(row["degree"]), tuple(int(row[f"w{i}"]) for i in range(5)), row)
            for row in golden
        ]
        self.max_degree = 3 * max(d for d, _, _ in self.ks)
        self.zero_c2 = [checks.parse_multiset(m) for m in zero_c2]
        self.zero_c2_keys = {checks.multiset_key(c) for c in self.zero_c2}

    def _analyze(self, d: int, w: tuple, golden) -> Request:
        argv = ["analyze", str(d), *map(str, w), "--json"]
        kind = "analyze-random" if golden is None else "analyze-ks"
        return Request(kind, argv, partial(checks.check_analyze, d=d, w=w, golden=golden))

    def _surface(self, rng: random.Random) -> Request:
        pick = rng.random()
        if pick < 1 / 3:
            counts = checks.parse_multiset(rng.choice(list(checks.REALIZED)))
        elif pick < 2 / 3:
            counts = rng.choice(self.zero_c2)
        else:
            counts = _random_counts(rng)
        argv = ["surface", _render(rng, counts), "--json"]
        return Request("surface", argv, partial(checks.check_surface, counts=counts))

    def _enumerate(self) -> Request:
        return Request(
            "enumerate-zero-c2",
            ["enumerate-zero-c2", "--json"],
            partial(checks.check_enumerate, zero_c2=self.zero_c2_keys),
        )

    def rounds(self, rng: random.Random) -> Iterator[list[Request]]:
        while True:
            batch = [self._analyze(*rng.choice(self.ks)) for _ in range(ANALYZE_KS)]
            for _ in range(ANALYZE_RANDOM):
                d, w = _random_system(rng, self.max_degree)
                batch.append(self._analyze(d, w, None))
            batch += [self._surface(rng) for _ in range(SURFACE)]
            batch += [self._enumerate() for _ in range(ENUMERATE)]
            rng.shuffle(batch)
            yield batch
