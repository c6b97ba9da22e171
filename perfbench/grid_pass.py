"""One pass of the `grid` workload, run in a fresh interpreter.

    python3 perfbench/grid_pass.py --seed N --seconds S --trace 0|1

Each point (a, b) of a 200x200 grid below sigma_p asks embeds(p, q, a, b)
and the swapped embeds(p, p-q, b, a).  Families are served round-robin, a
chunk of points at a time, so every pass covers all of them in the same
mix; the seed shuffles the family order and each family's point order.
Every query of a chunk shares its family, which is what a per-family cache
or integer kernel would exploit.  Each verdict is checked, outside its
timer, against a box-union oracle built in `oracle.py`.  Prints one JSON
object: verdict times and round rates scaled to reference speed, counts,
failed checks and, when traced, the span summary.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from array import array
from fractions import Fraction
from math import sqrt

import oracle
from common import Speed, memo_entries, peak_rss_mb, require_sources
from tracer import Tracer

FAMILIES = [(1, 1), (2, 1), (5, 1), (5, 4), (29, 7), (433, 104), (7453378, 1807955)]
N = 200  # grid side, as in the acceptance suite
CHUNK = 50  # points served from one family before moving to the next
RESERVOIR = 20_000  # verdict times kept for the percentiles
ANSWERS = ("Embeds", "DoesNotEmbed", "OutsideVisibleRange")
ERROR = len(ANSWERS)


def swapped_companion(p: int, q: int) -> int:
    return p - q if p > 2 else 1


class Family:
    """One staircase family: its grid, oracle thresholds and point order."""

    def __init__(self, p: int, q: int, rng: random.Random):
        self.p, self.q, self.qs = p, q, swapped_companion(p, q)
        sigma = (3 * p + sqrt(9 * p * p - 4)) / (2 * p)
        top = Fraction(int(sigma * 1000), 1001)
        if not oracle.below_sigma(p, top):
            raise AssertionError(f"grid top {top} not below sigma_{p}")
        self.values = [Fraction(i, N) * top for i in range(1, N + 1)]
        self.reach = oracle.grid_thresholds(oracle.boxes_reaching(p, q, top), self.values)
        self.reach_swapped = oracle.grid_thresholds(
            oracle.boxes_reaching(p, self.qs, top), self.values)
        for i in range(N):
            for j in range(N):
                if (j < self.reach[i]) != (i < self.reach_swapped[j]):
                    raise AssertionError(f"oracle not swap-symmetric for ({p},{q})")
        order = list(range(N * N))
        rng.shuffle(order)
        self.order = array("H", order)

    def expected(self, k: int, swapped: bool) -> int:
        i, j = divmod(k, N)
        if swapped:
            return 0 if i < self.reach_swapped[j] else 1
        return 0 if j < self.reach[i] else 1


def prepare(seed: int) -> list[Family]:
    rng = random.Random(seed)
    order = FAMILIES[:]
    rng.shuffle(order)
    return [Family(p, q, rng) for p, q in order]


class Tally:
    """What one serve saw, in memory that does not grow with throughput:
    exact counts, the unscaled time of each window, and a uniform
    reservoir of (verdict ns, window) for the percentiles."""

    def __init__(self, seed: int):
        self.points = self.failed = self.swaps = self.verdicts = 0
        self.answers = [0] * (ERROR + 1)
        self.window_ns: list[int] = []
        self.kept_ns = array("q", bytes(8 * RESERVOIR))
        self.kept_window = array("l", bytes(8 * RESERVOIR))
        self._rng = random.Random(seed)

    def add(self, ns: int, window: int) -> None:
        n = self.verdicts
        j = n if n < RESERVOIR else self._rng.randrange(n + 1)
        if j < RESERVOIR:
            self.kept_ns[j] = ns
            self.kept_window[j] = window
        self.verdicts = n + 1

    def scaled(self, factors) -> tuple[list[float], float]:
        """(kept verdict times, total busy time), in ms at reference speed."""
        kept = min(self.verdicts, RESERVOIR)
        samples = [self.kept_ns[i] * factors[self.kept_window[i]] / 1e6 for i in range(kept)]
        return samples, sum(ns * f for ns, f in zip(self.window_ns, factors)) / 1e6

    def round_rates(self, factors, families: int) -> list[float]:
        """Verdicts per second of each whole round, at reference speed."""
        ms = [ns * f / 1e6 for ns, f in zip(self.window_ns, factors)]
        per_round = 2 * CHUNK * families
        return [per_round * 1e3 / sum(ms[i:i + families])
                for i in range(0, len(ms) - families + 1, families)]


def serve(families, embeds, seed, deadline_ns=None, limit=None) -> tuple[Tally, Speed]:
    """Run the schedule, a round over all families at a time, until the
    deadline or `limit` points.  Each chunk is one window of the speed
    reference; each verdict is checked against the oracle after its timer
    stops."""
    clock = time.perf_counter_ns
    codes = {a: n for n, a in enumerate(ANSWERS)}
    tally = Tally(seed)
    speed = Speed.in_process()
    rounds = N * N // CHUNK
    r = 0
    while True:
        base = (r % rounds) * CHUNK
        for fam in families:
            p, q, qs, vals = fam.p, fam.q, fam.qs, fam.values
            window, window_ns = len(tally.window_ns), 0
            for k in fam.order[base:base + CHUNK]:
                a, b = vals[k // N], vals[k % N]
                got = []
                for qq, x, y in ((q, a, b), (qs, b, a)):
                    t0 = clock()
                    try:
                        code = codes[embeds(p, qq, x, y).answer]
                    except Exception:  # a crash is a failed verdict, not a crashed run
                        code = ERROR
                    dt = clock() - t0
                    tally.add(dt, window)
                    window_ns += dt
                    got.append(code)
                tally.points += 1
                tally.answers[got[0]] += 1
                tally.answers[got[1]] += 1
                tally.failed += (got[0] != fam.expected(k, False)) + (got[1] != fam.expected(k, True))
                tally.swaps += got[0] != got[1]
            speed.mark()
            tally.window_ns.append(window_ns)
        r += 1
        if (limit is not None and tally.points >= limit) or \
                (deadline_ns is not None and clock() >= deadline_ns):
            return tally, speed


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    require_sources()
    families = prepare(args.seed)
    from pinstairs import staircase_oracle

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    deadline = time.perf_counter_ns() + int(args.seconds * 1e9)
    tally, speed = serve(families, staircase_oracle.embeds, args.seed, deadline_ns=deadline)
    factors = speed.factors()
    samples, busy_ms = tally.scaled(factors)
    out = {
        "samples_ms": samples,
        "round_rates": tally.round_rates(factors, len(families)),
        "busy_ms": busy_ms,
        "raw_busy_s": sum(tally.window_ns) / 1e9,
        "factors": factors,
        "verdicts": tally.verdicts,
        "answers": tally.answers,
        "failed": tally.failed,
        "swaps": tally.swaps,
        "families": [(f.p, f.q) for f in families],
        "rss_mb": peak_rss_mb(children=False),
    }
    if tracer is not None:
        tracer.uninstall()
        plain, plain_speed = serve(families, staircase_oracle.embeds, args.seed,
                                   limit=tally.points)
        out.update(summary=tracer.summary(), memo_entries=memo_entries(),
                   plain_busy_ms=plain.scaled(plain_speed.factors())[1])
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
