"""One pass of the `families` workload, run in a fresh interpreter.

    python3 perfbench/family_pass.py --seed N --trace 0|1

Sweeps every pair (p, q) with p >= 2 a Markov number of the tree to DEPTH
and q a companion of p, in a seeded order, running one unit of work per
pair.  A fresh process per pass means no cache of the program outlives the
pass, so every family is seen once.  Prints one JSON object: per-pair
times scaled to reference speed, failed checks, warnings caught and, when
traced, the span summary.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
import warnings
from fractions import Fraction

import oracle
from common import Speed, is_greedy_fallback, memo_entries, peak_rss_mb, require_sources
from tracer import Tracer

DEPTH = 7  # 127 pairs with p >= 2
POINTS_PER_PAIR = 4


def pairs() -> list[tuple[int, int]]:
    numbers = sorted({x for level in oracle.tree(DEPTH) for t in level for x in t if x >= 2})
    return [(p, q) for p in numbers for q in sorted(set(oracle.companion_pair(p)))]


def work_list(seed: int) -> list[tuple]:
    """(p, q, points, certificate index) in the seeded order."""
    rng = random.Random(seed)
    todo = pairs()
    rng.shuffle(todo)
    out = []
    for p, q in todo:
        points = [(Fraction(rng.randint(1, 3100), 1000), Fraction(rng.randint(1, 3100), 1000))
                  for _ in range(POINTS_PER_PAIR)]
        out.append((p, q, points, rng.randint(-5, 5)))
    return out


class Unit:
    """The public calls of one pair, looked up when built, so a tracer
    installed before then sees them."""

    def __init__(self):
        from pinstairs import (atf_geometry, hirzebruch_jung, intersection_theory, markov,
                               regulation, staircase_oracle)

        self.markov, self.hj, self.it = markov, hirzebruch_jung, intersection_theory
        self.reg, self.atf, self.so = regulation, atf_geometry, staircase_oracle

    def __call__(self, p, q, points, index):
        it = self.it
        self.markov.companions(p)
        w = self.hj.wahl_data(p, q)
        it.intersection_matrix(w)
        it.inverse_closed_form(w)
        it.discrepancies(w)
        culet = it.culet_report(p, q)
        square_zero = it.square_zero_class_search(p, q)
        prediction = self.reg.predict_regulation(p, q)
        rays = self.atf.fan_rays(p, q)
        triangle = self.atf.vianna_triangle(*culet.triple)
        capacity = self.so.pin_ball_capacity(p, q)
        cert = self.so.obstruction_certificate(p, q, index)
        verdicts = [self.so.embeds(p, q, a, b) for a, b in points]
        return w, culet, square_zero, prediction, rays, triangle, capacity, cert, verdicts


def check(p, q, points, result) -> list[str]:
    """Names of the checks this pair's outputs fail."""
    w, culet, (c0, chi), prediction, rays, triangle, capacity, cert, verdicts = result
    bad = []
    if w.chain != oracle.hj_chain(p * p, p * q - 1):
        bad.append("chain")
    if culet.manetti_weight not in (4, 7, 10):
        bad.append("culet_weight")
    if tuple(i + 1 for i, x in enumerate(chi) if x) != (culet.culet_index,):
        bad.append("square_zero_support")
    if sum(prediction.contracted_counts()) != len(w.chain) - 1 or prediction.chain != w.chain:
        bad.append("contracted_counts")
    if len(rays) != len(w.chain) + 2 or triangle.triple != culet.triple:
        bad.append("geometry")
    if cert.s * cert.girdle_length + cert.displacement != 0:
        bad.append("certificate")
    x, y = oracle.valley_pair(p)
    if capacity != min(Fraction(x, p * y), Fraction(y, p * x)):
        bad.append("capacity")
    if (p, q) == (29, 7):
        want = oracle.README_29_7
        got = {"chain": w.chain, "culet_index": culet.culet_index,
               "culet_triple": culet.triple, "weight": culet.manetti_weight,
               "attach_positions": prediction.attach_positions}
        if got != want:
            bad.append("readme_29_7")
    for (a, b), v in zip(points, verdicts):
        visible = oracle.below_sigma(p, a) and oracle.below_sigma(p, b)
        if v.answer == "Embeds":
            ok = visible and v.witness.contains(a, b)
        elif v.answer == "DoesNotEmbed":
            ok = visible and a >= v.obstruction[0] and b >= v.obstruction[1]
        else:
            ok = v.answer == "OutsideVisibleRange" and not visible
        if not ok:
            bad.append("verdict")
    return bad


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    require_sources()
    todo = work_list(args.seed)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    unit = Unit()
    clock = time.perf_counter_ns
    speed = Speed.in_process()
    raw, failed = [], []
    fallbacks = other_warnings = 0
    for p, q, points, index in todo:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = clock()
            try:
                result = unit(p, q, points, index)
            except Exception as exc:  # a crash fails this pair, not the pass
                result = exc
            raw.append(clock() - t0)
        speed.mark()
        for w in caught:
            if is_greedy_fallback(w):
                fallbacks += 1
            else:
                other_warnings += 1
        reasons = [type(result).__name__] if isinstance(result, Exception) else \
            check(p, q, points, result)
        if reasons:
            failed.append([p, q, reasons])
    factors = speed.factors()
    json.dump({
        "samples_ms": [ns * f / 1e6 for ns, f in zip(raw, factors)],
        "raw_busy_s": sum(raw) / 1e9,
        "factors": factors,
        "failed": failed,
        "greedy_fallbacks": fallbacks,
        "other_warnings": other_warnings,
        "memo_entries": memo_entries(),
        "summary": tracer.summary() if tracer is not None else None,
        "rss_mb": peak_rss_mb(children=False),
    }, sys.stdout)


if __name__ == "__main__":
    main()
