"""`families`: every Markov pair of the tree to a fixed depth, seen once.

The run repeats passes until its time is up, each pass a fresh interpreter
(`family_pass.py`) that sweeps all pairs in a new seeded order.  No family
repeats within a process, so sharing between queries of one family, which
`grid` rewards, is bypassed here.  Chain length and p grow with depth, so
the deepest pairs carry the tail.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from common import BenchError, run_child, timing_metrics
from family_pass import DEPTH
from tracer import merge

MIN_PASSES = 2  # 254 pairs, enough for a p95 with ten samples beyond it
TAIL = 95
PASS = Path(__file__).with_name("family_pass.py")


def one_pass(seed: int, trace: int) -> dict:
    out = run_child([str(PASS), "--seed", str(seed), "--trace", str(trace)])
    if out.returncode != 0:
        raise BenchError(f"families pass failed:\n{out.stderr}")
    return json.loads(out.stdout)


def run(seed: int, seconds: int, trace: bool) -> dict:
    passes, plain = [], []
    deadline = time.monotonic() + seconds
    while len(passes) < MIN_PASSES or time.monotonic() < deadline:
        pass_seed = seed * 1000 + len(passes)
        passes.append(one_pass(pass_seed, int(trace)))
        if trace:
            plain.append(one_pass(pass_seed, 0))
    samples = [s for p in passes for s in p["samples_ms"]]
    failed = [f for p in passes for f in p["failed"]]
    metrics, detail = timing_metrics(samples, TAIL, [f for p in passes for f in p["factors"]],
                                     sum(p["raw_busy_s"] for p in passes))
    detail.update({
        "unit": "pair",
        "depth": DEPTH,
        "passes": len(passes),
        "pairs_per_s": metrics["ops_per_s"][0],
        "pair_ms.p50": metrics["op_ms.p50"][0],
        "pair_ms.tail": metrics["op_ms.tail"][0],
        "failed_pairs": failed[:20],
        "greedy_fallbacks_per_pass": [p["greedy_fallbacks"] for p in passes],
        "other_warnings": sum(p["other_warnings"] for p in passes),
    })
    out = {"attempted": len(samples), "failed": len(failed), "unexpected": len(failed),
           "detail": detail}
    if not trace:
        out.update(timing=metrics, rss_mb=max(p["rss_mb"] for p in passes))
    else:
        out["layer"] = {
            "summary": merge([p["summary"] for p in passes]),
            "pairs": len(samples),
            "memo_entries": max(p["memo_entries"] for p in passes),
            "warnings": sum(p["greedy_fallbacks"] for p in passes),
            "run_ms": 0.0,
            "overhead": sum(samples) / sum(s for p in plain for s in p["samples_ms"]) - 1,
        }
    return out
