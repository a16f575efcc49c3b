#!/usr/bin/env python3
"""Regenerate the weight-system database shipped in data/.

Enumerates every tuple (d; w0..wn) of positive integers with d = sum(w)
such that the general degree-d hypersurface in P(w0..wn) is quasismooth
and wellformed.  Five-weight records are written in the list format of
cytk.census (``census.format_record``), the layout of the published
classification data; systems of three or four weights are written with
every weight.  ``--stats`` counts them by reading those lines back through
``census.census_lines``, and exits 1 unless every record reads back.

The search runs over normalized weights q_i = w_i / d.  Quasismoothness
forces, for every i, some j with w_i | d - w_j, hence q_i = 1/a or
q_i = (1 - q_j)/a with an integer a >= 2.  Deriving a value can only grow
the reduced denominator, and mutually dependent values (cycles) share one
denominator, so every solution can be generated in non-decreasing order
of reduced denominator from three kinds of steps: a self value 1/a, a
value (1 - v)/a derived from an earlier one, or a whole cycle block; the
final slot is the forced residual 1 - sum and needs no structure of its
own.  A cycle block of 2 to 5 values is tabulated for every denominator
from 2 to the degree cap: its values are w_i/d, so its reduced
denominator divides d, and d <= cap, so the tables miss no block.
Candidates are then filtered through the full quasismoothness and
wellformedness criteria.

Validation targets: 3 systems for 3 weights, 95 for 4 weights, and 7555
for 5 weights (7238 of them not smooth in codimension 2, of which 2409
contain no edge).
"""

from __future__ import annotations

import argparse
import sys
import time
from math import gcd, lcm
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cytk.census import census_lines, format_record  # noqa: E402
from cytk.hypersurface import is_quasismooth, is_wellformed_hypersurface  # noqa: E402
from cytk.wps import WeightSystem  # noqa: E402


# ----------------------------------------------------------------------
# Cycle tables, indexed by the common reduced denominator of the cycle.


def chain_cycles(den: int, length: int, slots: int) -> list[tuple[int, ...]]:
    """Cycles of ``length`` linked values n_i/den: a_i * n_i = den - n_{i+1}
    cyclically, with every a_i >= 2 and every n_i in [1, den/2] coprime to
    den.  Chains are anchored at their minimal numerator.

    When the cycle fills all ``slots`` the numerators sum to den exactly;
    with one slot left over the sum lies in [den/2, den - 1]."""
    cycles: set[tuple[int, ...]] = set()
    coprime = bytearray(gcd(i, den) == 1 for i in range(den))
    half = den // 2
    if length == slots:
        sum_lo, sum_hi = den, den
    elif length == slots - 1:
        sum_lo, sum_hi = (den + 1) // 2, den - 1
    else:
        sum_lo, sum_hi = length, den - 1

    def extend(path: list[int], total: int) -> None:
        n_first, n_last = path[0], path[-1]
        if len(path) == length:
            if not sum_lo <= total <= sum_hi:
                return
            rest = den - n_first
            if rest % n_last == 0 and rest // n_last >= 2:
                cycles.add(tuple(sorted(path)))
            return
        slots_after = length - len(path)
        hi_next = min(half, den - 2 * n_last, sum_hi - total - (slots_after - 1))
        # Every later numerator is at most den/2.
        lo_next = max(n_first, sum_lo - total - (slots_after - 1) * half)
        if hi_next < lo_next:
            return
        a = -(-(den - hi_next) // n_last)
        while True:
            nxt = den - a * n_last
            if nxt < lo_next:
                break
            if coprime[nxt]:
                path.append(nxt)
                extend(path, total + nxt)
                path.pop()
            a += 1

    for n1 in range(1, half + 1):
        if coprime[n1]:
            extend([n1], n1)
    return sorted(cycles)


def _divisors(n: int) -> list[int]:
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


# ----------------------------------------------------------------------
# Denominator-ordered depth-first search.


class Enumerator:
    def __init__(self, slots: int, cap: int):
        self.slots = slots
        self.cap = cap
        self.solutions: set[tuple[int, tuple[int, ...]]] = set()
        self.tables = {
            length: {den: chain_cycles(den, length, slots) for den in range(2, cap + 1)}
            for length in range(2, slots + 1)
        }

    def run(self) -> None:
        self._descend([], 1, 0, 1)

    def _record(self, values: list[tuple[int, int]]) -> None:
        d = 1
        for _, den in values:
            d = lcm(d, den)
        weights = tuple(sorted(num * (d // den) for num, den in values))
        self.solutions.add((d, weights))

    def _compatible_dens(self, l: int, dmin: int) -> list[int]:
        """All den >= dmin with lcm(l, den) <= cap, via den = e*f with e | l,
        f <= cap // l and gcd(f, l // e) = 1 (so that lcm(l, den) = l*f)."""
        out = set()
        f_max = self.cap // l
        for e in _divisors(l):
            co = l // e
            for f in range(1, f_max + 1):
                if gcd(f, co) == 1:
                    den = e * f
                    if den >= dmin:
                        out.add(den)
        return sorted(out)

    def _descend(
        self, values: list[tuple[int, int]], dmax: int, sum_num: int, l: int
    ) -> None:
        left = self.slots - len(values)
        if left == 0:
            if sum_num == l:
                self._record(values)
            return
        if left == 1:
            rem = l - sum_num
            if rem <= 0 or 2 * rem > l:
                return
            g = gcd(rem, l)
            if l // g >= dmax:  # residual keeps the denominator order
                values.append((rem // g, l // g))
                self._record(values)
                values.pop()
            return

        cap = self.cap
        tried: set[tuple[tuple[int, int], ...]] = set()

        def try_batch(batch: list[tuple[int, int]]) -> None:
            key = tuple(batch)
            if key in tried:
                return
            tried.add(key)
            new_l = l
            for _, den in batch:
                new_l = lcm(new_l, den)
            if new_l > cap:
                return
            new_sum = sum_num * (new_l // l) + sum(
                num * (new_l // den) for num, den in batch
            )
            rem = new_l - new_sum
            remaining = left - len(batch)
            if rem < 0 or (remaining == 0) != (rem == 0):
                return
            if remaining:
                if rem * cap < remaining * new_l or 2 * rem > remaining * new_l:
                    return
            values.extend(batch)
            self._descend(values, batch[-1][1], new_sum, new_l)
            del values[len(values) - len(batch):]

        dens = self._compatible_dens(l, max(dmax, 2))

        for den in dens:
            try_batch([(1, den)])

        for nv, dv in set(values):
            top = dv - nv
            a_hi = top * cap // dv  # beyond this the value drops below 1/cap
            for a in range(2, a_hi + 1):
                g = gcd(top, a)
                num, den = top // g, dv * a // g
                if den < dmax or den > cap or 2 * num > den:
                    continue
                if lcm(l, den) > cap:
                    continue
                try_batch([(num, den)])

        for size, table in self.tables.items():
            if size > left:
                continue
            for den in dens:
                for nums in table[den]:
                    try_batch([(num, den) for num in nums])


def solve(slots: int, cap: int) -> list[tuple[int, tuple[int, ...]]]:
    enum = Enumerator(slots, cap)
    enum.run()
    found = []
    for d, weights in sorted(enum.solutions):
        ws = WeightSystem(d, weights)
        if is_quasismooth(ws) and is_wellformed_hypersurface(ws):
            found.append((d, weights))
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description="regenerate the weight-system list")
    parser.add_argument("--weights", type=int, default=5, choices=(3, 4, 5))
    parser.add_argument("--cap", type=int, default=4000, help="max degree searched")
    parser.add_argument("--stats", action="store_true", help="census statistics")
    parser.add_argument("--out", help="write the database to this path")
    args = parser.parse_args()

    start = time.time()
    found = solve(args.weights, args.cap)
    elapsed = time.time() - start
    print(
        f"{len(found)} weight systems with {args.weights} weights "
        f"(cap {args.cap}, {elapsed:.1f}s)"
    )
    if found:
        print(f"max degree found: {max(d for d, _ in found)}")
    if args.weights == 5:
        lines = [format_record(d, w) for d, w in found]
        layout = "4-weight records omit the\n# weight d/2."
    else:  # a 4-weight census line omits d/2, so shorter systems are written in full
        lines = [" ".join(map(str, (d, *w))) for d, w in found]
        layout = f"every record lists\n# all {args.weights} weights."
    if args.stats and args.weights == 5:
        summary, _ = census_lines(lines)
        print(
            f"not smooth in codim 2: {summary.not_smooth_codim2}; "
            f"of which no edge: {summary.not_smooth_codim2_and_no_edge}"
        )
        if summary.failures or summary.total != len(found):
            print(
                f"error: the census read {summary.total} of {len(found)} "
                f"records back, with {len(summary.failures)} failures",
                file=sys.stderr,
            )
            return 1

    if args.out:
        last = f"w{args.weights - 1}"
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(
                "# General quasismooth wellformed hypersurfaces of degree\n"
                f"# d = w0+...+{last} in P(w0..{last}); {layout}"
                "  Regenerate: scripts/generate_weight_systems.py\n"
            )
            handle.write("\n".join(lines) + "\n")
        print(f"wrote {len(lines)} records to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
