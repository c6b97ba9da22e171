"""`cli`: a fresh `python -m pinstairs.cli_plot` process per README CLI line.

Almost no computation: the time is interpreter start, import and the CLI
layer.  Passes repeat until the run's time is up, one child at a time, each
pass in a new seeded order.  Three boundary commands ride along with their
contracted outcomes (ROADMAP item 4).  Two of them are known defects at
the baseline: their failures count in `failed` but do not make the run
incorrect.  Every other check failing does.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
import time
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import oracle
from common import (ROOT, Speed, is_greedy_fallback, median, memo_entries, peak_rss_mb,
                    run_child, timing_metrics)
from tracer import Tracer

# the 14-digit Markov number on the Fibonacci branch, F_65
F65 = 17167680177565
MIN_PASSES = 5  # 100 commands, enough for a p90 with ten samples beyond it
TAIL = 90


def _lines(out: str) -> list[str]:
    return out.splitlines()


def _tree_lines(depth: int) -> list[str]:
    return sorted(f"d{d}: ({a}, {b}, {c})"
                  for d, level in enumerate(oracle.tree(depth)) for a, b, c in level)


def _tree_json(out: str) -> bool:
    rows = json.loads(out)
    want = {t for level in oracle.tree(3) for t in level}
    return len(rows) == len(want) and {tuple(r["triple"]) for r in rows} == want


def _companions_line(p: int) -> str:
    lo, hi = oracle.companion_pair(p)
    return f"q ∈ {{{lo}, {hi}}}\n"


def _branch_lines(p: int, q: int, lo: int, hi: int) -> list[str]:
    limit = getattr(sys, "get_int_max_str_digits", None)
    old = limit() if limit else None
    if limit:
        sys.set_int_max_str_digits(0)  # the exact digits, above the 4300 default
    try:
        return [f"m[{i}] = {v}" for i, v in zip(range(lo, hi + 1), oracle.branch(p, q, lo, hi))]
    finally:
        if limit:
            sys.set_int_max_str_digits(old)


def _wahl_text(out: str) -> bool:
    want = oracle.README_29_7
    lines = _lines(out)
    return (f"chain: {list(want['chain'])}" in lines
            and "culet: index 7, triple (29, 5, 2), weight 10" in lines
            and sum(line.startswith("M[") for line in lines) == len(want["chain"]))


def _wahl_json(out: str) -> bool:
    data = json.loads(out)
    want = oracle.README_29_7
    culet = data["culet"]
    return (tuple(data["chain"]) == want["chain"] and culet["culet_index"] == 7
            and tuple(culet["triple"]) == want["culet_triple"] and culet["weight"] == 10)


def _regulation_text(out: str) -> bool:
    lines = _lines(out)
    return (lines[0] == "weight 10, culet index 7, 2 broken ruling(s)"
            and lines[1].endswith("+ E1 at C2") and lines[2].endswith("+ E2 at C9"))


def _regulation_json(out: str) -> bool:
    data = json.loads(out)
    return data["weight"] == 10 and tuple(data["attach_positions"]) == (2, 9)


def _no_traceback(err: str) -> bool:
    return "Traceback" not in err


@dataclass(frozen=True)
class Command:
    """One CLI line, how to judge what came back, and the SVG it writes."""

    name: str
    argv: list
    check: Callable[[Optional[int], str, str], bool]
    svg: Optional[Path] = None
    known_defect: bool = False  # fails at the baseline (ROADMAP item 4)


def commands(tmp: Path) -> list[Command]:
    def exact(text):
        return lambda rc, out, err: rc == 0 and out == text

    def first(text):
        return lambda rc, out, err: rc == 0 and _lines(out)[:1] == [text]

    def ok(pred):
        return lambda rc, out, err: rc == 0 and pred(out)

    def svg(name, argv):
        path = tmp / name
        return Command(name, argv + ["--svg", str(path)], exact(f"wrote {path}\n"), svg=path)

    def branch_ok(rc, out, err):
        if rc not in (0, 1) or not _no_traceback(err):
            return False
        return rc == 1 or _lines(out) == _branch_lines(5, 1, 3990, 4000)

    return [
        Command("tree", ["markov", "tree", "--depth", "3"],
                ok(lambda out: sorted(_lines(out)) == _tree_lines(3))),
        Command("tree_json", ["markov", "tree", "--depth", "3", "--json"], ok(_tree_json)),
        Command("companions", ["markov", "companions", "29"], exact(_companions_line(29))),
        Command("branch", ["markov", "branch", "5", "1", "--lo", "-4", "--hi", "2"],
                ok(lambda out: _lines(out) == _branch_lines(5, 1, -4, 2))),
        Command("wahl", ["wahl", "29", "7"], ok(_wahl_text)),
        Command("wahl_json", ["wahl", "29", "7", "--json"], ok(_wahl_json)),
        Command("stair_embeds", ["stair", "2", "1", "--alpha", "49/100", "--beta", "49/100"],
                exact("Embeds (box i=0, sup 1/2 × 1/2)\n")),
        Command("stair_obstructed", ["stair", "5", "1", "--alpha", "3/10", "--beta", "1/5"],
                exact("DoesNotEmbed (obstruction corner (1/65, 1/10))\n")),
        svg("stair.svg", ["stair", "2", "1", "--steps", "5"]),
        Command("capacity", ["capacity", "5", "1"], exact("1/10\n")),
        Command("pack_two", ["pack", "two", "2", "1", "1/100", "5", "1", "1/100"],
                first("feasible (p3 = 1)")),
        Command("pack_three",
                ["pack", "three", "5", "1", "1/100", "2", "1", "1/100", "1", "1", "1/100"],
                first("feasible")),
        svg("delta.svg", ["atf", "delta", "5", "1", "1/2", "1/3",
                          "--pavilion", "1/100,19/1000,17/1000,1/100"]),
        svg("vianna.svg", ["atf", "vianna", "5", "2", "1"]),
        Command("regulation", ["regulation", "29", "7"], ok(_regulation_text)),
        Command("regulation_json", ["regulation", "29", "7", "--json"], ok(_regulation_json)),
        Command("regulation_dot", ["regulation", "29", "7", "--dot"],
                ok(lambda out: out.startswith("graph dual {") and out.count("graph dual {") == 2)),
        Command("not_markov", ["markov", "companions", "6"],
                lambda rc, out, err: rc == 1 and _no_traceback(err)),
        Command("companions_F65", ["markov", "companions", str(F65)],
                exact(_companions_line(F65)), known_defect=True),
        Command("branch_huge", ["markov", "branch", "5", "1", "--lo", "3990", "--hi", "4000"],
                branch_ok, known_defect=True),
    ]


def _subprocess(cmd: Command, tmp: Path) -> tuple:
    t0 = time.perf_counter()
    out = run_child(["-m", "pinstairs.cli_plot", *cmd.argv], cwd=tmp)
    return time.perf_counter() - t0, out.returncode, out.stdout, out.stderr


def _in_process(run):
    def call(cmd: Command, tmp: Path) -> tuple:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = run(list(cmd.argv))
            except Exception:  # what a console would show as a traceback
                rc = None
                traceback.print_exc()
            elapsed = time.perf_counter() - t0
        return elapsed, rc, out.getvalue(), err.getvalue()
    return call


class Pass:
    """What a serve saw; SVGs must repeat byte for byte across its passes."""

    def __init__(self):
        self.raw_s: list[float] = []  # one per command run
        self.failed: list[str] = []
        self.digests: dict[str, str] = {}
        self.warnings = 0
        self.passes = 0

    def record(self, cmd: Command, elapsed, rc, out, err) -> None:
        self.raw_s.append(elapsed)
        try:
            good = cmd.check(rc, out, err)
        except (ValueError, KeyError, IndexError, TypeError):  # unparsable output
            good = False
        if good and cmd.svg is not None:
            data = cmd.svg.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            good = data.startswith(b"<svg") and self.digests.setdefault(cmd.name, digest) == digest
        if cmd.svg is not None:
            cmd.svg.unlink(missing_ok=True)
        if not good:
            self.failed.append(cmd.name)


def serve(call, speed, cmds, orders, tmp, deadline=None, passes=None) -> Pass:
    """Run whole passes until the deadline, but at least MIN_PASSES, or
    exactly `passes`; each command is one window of `speed`."""
    result = Pass()
    n = 0
    while n < (passes or MIN_PASSES) or (passes is None and time.monotonic() < deadline):
        for k in orders(n):
            cmd = cmds[k]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                outcome = call(cmd, tmp)
            speed.mark()
            result.record(cmd, *outcome)
            result.warnings += sum(map(is_greedy_fallback, caught))
        n += 1
    result.passes = n
    return result


def run(seed: int, seconds: int, trace: bool) -> dict:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as name:
        tmp = Path(name)
        cmds = commands(tmp)
        rng = random.Random(seed)
        schedule: list[list[int]] = []

        def orders(n):
            while len(schedule) <= n:
                schedule.append(rng.sample(range(len(cmds)), len(cmds)))
            return schedule[n]

        deadline = time.monotonic() + seconds
        if not trace:
            speed = Speed.child_wall()
            result = serve(_subprocess, speed, cmds, orders, tmp, deadline=deadline)
        else:
            from pinstairs import cli_plot

            tracer = Tracer()
            tracer.install()
            speed = Speed.in_process()
            result = serve(_in_process(cli_plot.run), speed, cmds, orders, tmp,
                           deadline=deadline)
            tracer.uninstall()
            plain_speed = Speed.in_process()
            plain = serve(_in_process(cli_plot.run), plain_speed, cmds, orders, tmp,
                          passes=result.passes)
    factors = speed.factors()
    samples = [t * f * 1e3 for t, f in zip(result.raw_s, factors)]
    known = {c.name for c in cmds if c.known_defect}
    unexpected = [name for name in result.failed if name not in known]
    attempted = len(samples)
    metrics, detail = timing_metrics(samples, TAIL, factors, sum(result.raw_s))
    detail.update({
        "unit": "command",
        "commands": len(cmds),
        "passes": result.passes,
        "cmd_ms.p50": metrics["op_ms.p50"][0],
        "cmd_ms.tail": metrics["op_ms.tail"][0],
        "failed_commands": sorted(set(result.failed)),
        "known_defect_failed_frac": sum(n in known for n in result.failed) / attempted,
    })
    out = {"attempted": attempted, "failed": len(result.failed),
           "unexpected": len(unexpected), "detail": detail}
    if not trace:
        out.update(timing=metrics, rss_mb=peak_rss_mb(children=True))
    else:
        plain_ms = [t * f * 1e3 for t, f in zip(plain.raw_s, plain_speed.factors())]
        out["layer"] = {
            "summary": tracer.summary(),
            "pairs": 0,
            "memo_entries": memo_entries(),
            "warnings": result.warnings,
            "run_ms": median(plain_ms),
            "overhead": sum(samples) / sum(plain_ms) - 1,
        }
    return out
