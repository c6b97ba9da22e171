"""`grid`: the acceptance suite's oracle grid, as one long-running client.

The run is split into PASSES fresh interpreters (`grid_pass.py`), each
serving the grid for an equal share of the time in its own seeded order.
A single process carries one string-hash seed and one memory layout for
the whole run, and either can shift its speed by a few per cent; pooling
fresh processes averages them out, as `families` and `cli` do.
"""

from __future__ import annotations

import json
from pathlib import Path

from common import BenchError, median, run_child, timing_metrics
from grid_pass import ANSWERS
from tracer import merge

PASSES = 4
TAIL = 95  # percentile of op_ms.tail; every pass makes at least 700 verdicts
PASS = Path(__file__).with_name("grid_pass.py")


def one_pass(seed: int, seconds: float, trace: int) -> dict:
    out = run_child([str(PASS), "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", str(trace)])
    if out.returncode != 0:
        raise BenchError(f"grid pass failed:\n{out.stderr}")
    return json.loads(out.stdout)


def run(seed: int, seconds: int, trace: bool) -> dict:
    passes = [one_pass(seed * 1000 + i, seconds / PASSES, int(trace)) for i in range(PASSES)]
    samples = [s for p in passes for s in p["samples_ms"]]
    factors = [f for p in passes for f in p["factors"]]
    verdicts = sum(p["verdicts"] for p in passes)
    answers = [sum(col) for col in zip(*(p["answers"] for p in passes))]
    failed = sum(p["failed"] for p in passes)
    metrics, detail = timing_metrics(samples, TAIL, factors,
                                     sum(p["raw_busy_s"] for p in passes), ops=verdicts,
                                     rate=median([r for p in passes for r in p["round_rates"]]))
    detail.update({
        "unit": "verdict",
        "passes": PASSES,
        "verdicts_per_s": metrics["ops_per_s"][0],
        "verdicts": dict(zip(ANSWERS, answers)),
        "errors": answers[len(ANSWERS)],
        "swap_violations": sum(p["swaps"] for p in passes),
        "families": [p["families"] for p in passes],
    })
    out = {"attempted": verdicts, "failed": failed, "unexpected": failed, "detail": detail}
    if not trace:
        out.update(timing=metrics, rss_mb=max(p["rss_mb"] for p in passes))
    else:
        out["layer"] = {
            "summary": merge([p["summary"] for p in passes]),
            "pairs": 0,
            "memo_entries": max(p["memo_entries"] for p in passes),
            "warnings": 0,
            "run_ms": 0.0,
            "overhead": sum(p["busy_ms"] for p in passes)
            / sum(p["plain_busy_ms"] for p in passes) - 1,
        }
    return out
