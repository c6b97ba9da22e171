"""Shared pieces of the benchmark: locations, child processes, statistics,
set-up timing, import profiling and the run metadata.

The benchmark treats `src/pinstairs` as a black box.  It only ever imports
the copy under the checkout it was started from, never an installed one.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "pinstairs"

LAYERS = (
    "exact_core",
    "markov",
    "hirzebruch_jung",
    "intersection_theory",
    "staircase_oracle",
    "atf_geometry",
    "regulation",
    "cli_plot",
)

# Fresh interpreters started to time set-up.  Their median is `setup_s`.
SETUP_REPEATS = 11
IMPORT_REPEATS = 5
CHILD_TIMEOUT_S = 120


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, a broken child)."""


def require_sources() -> None:
    """Put the checkout's `src` first on sys.path, or refuse to run."""
    if not (PACKAGE / "__init__.py").is_file():
        raise BenchError(f"no pinstairs sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pinstairs

    if Path(pinstairs.__file__).resolve().parent != PACKAGE:
        raise BenchError(f"imported pinstairs from {pinstairs.__file__}, not {PACKAGE}")


def child_env() -> dict:
    """Environment for child interpreters: this checkout's sources first, and
    bytecode caching on, as for an installed package."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def run_child(argv: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, env=child_env(), capture_output=True,
        text=True, timeout=CHILD_TIMEOUT_S,
    )


# ---------------------------------------------------------------- speed

# On a shared 2-vCPU VM the same code runs up to 1.5x slower for seconds
# at a time, in user and system time alike.  Every timed window is
# therefore bracketed by probes of a fixed reference, and its times are
# scaled to the reference's nominal duration: a reported time is what the
# window would take on a machine where the reference takes its nominal
# time.  Work done in this process is compared with an in-process
# computation, work done by child interpreters with a child that imports
# fixed stdlib modules.  The unscaled figures stay in the detail line.
REFERENCE_NOMINAL_NS = 500_000
REFERENCE_CHILD_NOMINAL_S = 0.05  # wall time of the reference child
REFERENCE_IMPORT_NOMINAL_S = 0.01  # the import time it reports
SMOOTHING = 3  # probes on each side of a window that set its factor


# Fractions over integers of a few hundred digits: the big-integer
# arithmetic that the staircase searches spend their time in.
_REFERENCE_TERMS = [Fraction(3**200 + i, 7**150 + 2 * i) for i in range(14)]


def _reference() -> Fraction:
    """Fixed pure-Python work that shares nothing with pinstairs.

    Big-integer Fraction sums track the program's speed better than small
    ones: over 4-5 s passes on a shared 2-vCPU VM, a loop of small-integer
    Fractions and dict updates left a per-pass spread (sd/mean) of 5.4% on
    `grid` and 4.4% on `families`; this one left 2.3% and 3.0%.
    """
    s = Fraction(0)
    for a in _REFERENCE_TERMS:
        s += a * a
    return s


def reference_ns() -> int:
    """Best of three runs of the in-process reference, with the collector
    off so the program's heap cannot slow it."""
    clock = time.perf_counter_ns
    enabled = gc.isenabled()
    gc.disable()
    try:
        runs = []
        for _ in range(3):
            t0 = clock()
            _reference()
            runs.append(clock() - t0)
    finally:
        if enabled:
            gc.enable()
    return min(runs)


_REFERENCE_CHILD = (
    "import time; t = time.perf_counter(); "
    "import argparse, dataclasses, fractions, json, typing; "
    "print(time.perf_counter() - t)"
)


def reference_child() -> tuple[float, float]:
    """(wall, own import) seconds of one reference child interpreter."""
    t0 = time.perf_counter()
    out = run_child(["-c", _REFERENCE_CHILD])
    wall = time.perf_counter() - t0
    if out.returncode != 0:
        raise BenchError(f"reference child failed:\n{out.stderr}")
    return wall, float(out.stdout)


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so the reference
    probes see the CPU that the measured work runs on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Speed:
    """Reference probes taken between timed windows, and the factor that
    scales each window to the reference's nominal speed.

    Window w lies between probes w and w+1.  Its factor is the nominal time
    over the median of the SMOOTHING probes on each side: that follows the
    machine's drift over seconds, while one odd probe moves nothing.
    """

    def __init__(self, probe, nominal: float):
        self._probe, self._nominal = probe, nominal
        self.probes = [probe()]

    @classmethod
    def in_process(cls) -> "Speed":
        return cls(reference_ns, REFERENCE_NOMINAL_NS)

    @classmethod
    def child_wall(cls) -> "Speed":
        return cls(lambda: reference_child()[0], REFERENCE_CHILD_NOMINAL_S)

    @classmethod
    def child_import(cls) -> "Speed":
        return cls(lambda: reference_child()[1], REFERENCE_IMPORT_NOMINAL_S)

    def mark(self) -> None:
        """End the current window."""
        self.probes.append(self._probe())

    def factors(self) -> list[float]:
        p, k = self.probes, SMOOTHING
        return [self._nominal / median(p[max(0, w + 1 - k):w + 1 + k])
                for w in range(len(p) - 1)]


# ---------------------------------------------------------------- statistics


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values, pct: int) -> float:
    """The `pct` percentile by nearest rank.

    Each workload fixes its percentile and runs enough ops to leave at
    least ten samples beyond it.  p95 is the ceiling: further out, on a
    shared 2-vCPU VM, the samples measure the host more than the program;
    there the `grid` p99 spread 13% across seeds where its p95 spread 4%.
    """
    s = sorted(values)
    return s[-(-pct * len(s) // 100) - 1] if s else 0.0


def timing_metrics(samples_ms, pct: int, factors, raw_busy_s: float, ops=None,
                   rate=None) -> tuple[dict, dict]:
    """End-to-end timing metrics from per-op samples scaled to reference
    speed, plus details that keep the unscaled throughput.  When the samples
    are a subset of the ops, `ops` counts the whole and `rate` gives the
    throughput.  `factors` are the speed factors applied, reported in the
    details."""
    ops = len(samples_ms) if ops is None else ops
    busy_s = sum(samples_ms) / 1e3
    if rate is None:
        rate = ops / busy_s if busy_s else 0.0
    metrics = {
        "ops_per_s": (rate, "1/s"),
        "op_ms.p50": (median(samples_ms), "ms"),
        "op_ms.tail": (tail(samples_ms, pct), "ms"),
    }
    return metrics, {"samples": ops, "tail_percentile": pct,
                     "unscaled_ops_per_s": ops / raw_busy_s if raw_busy_s else 0.0,
                     "speed_factor": {"min": min(factors), "median": median(factors),
                                      "max": max(factors)}}


def is_greedy_fallback(caught: warnings.WarningMessage) -> bool:
    """A `UserWarning` raised in regulation, where the greedy path falls back."""
    return issubclass(caught.category, UserWarning) and Path(caught.filename).name == "regulation.py"


def memo_entries() -> int:
    """Size of regulation's module-level memo, while the program has one."""
    from pinstairs import regulation

    memo = getattr(regulation, "_RULING_MEMO", None)
    return len(memo) if isinstance(memo, dict) else 0


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


# ---------------------------------------------------------------- set-up

_SETUP_CODE = (
    "import time; t = time.perf_counter(); import pinstairs, pinstairs.cli_plot; "
    "print(time.perf_counter() - t)"
)


def measure_setup() -> tuple[float, list[float]]:
    """Median fresh-interpreter time to import pinstairs and its CLI module,
    scaled by the reference child's import time.

    One untimed import first writes the bytecode cache, so every timed one
    loads what an installed package would.
    """
    run_child(["-c", _SETUP_CODE])
    speed = Speed.child_import()
    raw = []
    for _ in range(SETUP_REPEATS):
        out = run_child(["-c", _SETUP_CODE])
        if out.returncode != 0:
            raise BenchError(f"importing pinstairs failed:\n{out.stderr}")
        raw.append(float(out.stdout))
        speed.mark()
    times = [t * f for t, f in zip(raw, speed.factors())]
    return median(times), times


def import_profile() -> dict[str, float]:
    """Median self time per pinstairs module, and the total, in microseconds,
    from `python -X importtime`."""
    runs: list[dict[str, float]] = []
    for _ in range(IMPORT_REPEATS):
        out = run_child(["-X", "importtime", "-c", "import pinstairs, pinstairs.cli_plot"])
        if out.returncode != 0:
            raise BenchError(f"importtime child failed:\n{out.stderr}")
        runs.append(_parse_importtime(out.stderr))
    keys = sorted({k for r in runs for k in r})
    return {k: median([r.get(k, 0.0) for r in runs]) for k in keys}


def _parse_importtime(text: str) -> dict[str, float]:
    found: dict[str, float] = {"total": 0.0}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue  # the header row
        self_us, cumulative_us, name = parts
        module = name.strip()
        if module != "pinstairs" and not module.startswith("pinstairs."):
            continue
        short = module.rsplit(".", 1)[-1]
        found[short] = found.get(short, 0.0) + float(self_us)
        if len(name) - len(name.lstrip()) == 1:  # imported from the top level
            found["total"] += float(cumulative_us)
    return found


# ---------------------------------------------------------------- metadata


def _git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.is_file():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def source_digest() -> str:
    """SHA-256 over the package sources, naming the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_sha": _git_sha(),
        "source_sha256": source_digest(),
    }


def emit(meta: dict, detail: dict, correct: bool, attempted: int, failed: int,
         metrics: dict) -> None:
    """Print the detail line, then the result line, which comes last."""
    print(json.dumps({"perfbench": meta, "detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
