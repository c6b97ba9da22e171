"""pinstairs benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload grid|families|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout; it measures the `src/pinstairs` found
there and refuses to run without it.  With `--trace 0` the last line holds
the end-to-end metrics, with `--trace 1` the per-layer ones from a traced
run.  The line before it records the run (Python, nproc, git sha, seed)
and details such as sample counts and the workload's own names for its
metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import sys

import common
import tracer
from common import BenchError

WORKLOADS = ("grid", "families", "cli")


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def measure(args) -> None:
    """Run one workload.  Its `run(seed, seconds, trace)` returns attempted,
    failed and unexpected counts, the details, and either `timing` and
    `rss_mb` or, when traced, the `layer` inputs of tracer.layer_metrics."""
    common.require_sources()
    meta = common.metadata(args)
    common.pin_to_one_cpu()
    if not args.trace:
        setup_s, setup_samples = common.measure_setup()
    res = importlib.import_module(args.workload).run(args.seed, args.seconds, bool(args.trace))
    detail = res["detail"]
    detail["ops_failed_frac"] = res["failed"] / res["attempted"]
    if args.trace:
        metrics = tracer.layer_metrics(imports=common.import_profile(), **res["layer"])
    else:
        detail["setup_samples_s"] = setup_samples
        metrics = {"setup_s": (setup_s, "s"), **res["timing"],
                   "peak_rss_mb": (res["rss_mb"], "MB")}
    common.emit(meta, detail, res["unexpected"] == 0, res["attempted"], res["failed"], metrics)




def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
