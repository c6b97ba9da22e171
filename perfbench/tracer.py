"""Spans around every public function of every pinstairs layer.

`Tracer.install` wraps each function a layer lists in `__all__` and puts the
wrapper in place of every reference to it in the package, including the
names other layers imported (`staircase_oracle.canonical_triple` is
`markov.canonical_triple`), so calls from one layer into another become
child spans.  Each span is (name, start, end, parent), kept in memory in
flat arrays.  A layer's self time is the time of its spans minus the time
of their child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

from common import LAYERS

# functions whose results feed a counter: label -> (counter, increment)
_COUNTERS = {
    "staircase_oracle.embeds": lambda r: ("verdict." + r.answer, 1),
    "hirzebruch_jung.hj_expand": lambda r: ("chain_entries", len(r)),
}
# spans whose truth value is kept, to count attach tests that hit
_MARKED = "regulation.is_ruling_degeneration"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.label = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.marks: dict[int, bool] = {}  # span id -> result, for _MARKED
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        import pinstairs

        modules = [importlib.import_module(f"pinstairs.{name}") for name in LAYERS]
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrapped[id(fn)] = (fn, self._wrap(fn, f"{layer}.{name}"))
        for mod in [pinstairs, *modules]:
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def _wrap(self, fn, label: str):
        idx = len(self.names)
        self.names.append(label)
        labels, parents, starts, ends = self.label, self.parent, self.start, self.end
        stack, marks, counters = self._stack, self.marks, self.counters
        count = _COUNTERS.get(label)
        mark = label == _MARKED
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            labels.append(idx)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if count is not None:
                key, n = count(result)
                counters[key] = counters.get(key, 0) + n
            if mark:
                marks[sid] = bool(result)
            return result

        return traced

    # ------------------------------------------------------------ summary

    def summary(self) -> dict:
        """Per-label calls and inclusive time, per-layer self time, counters."""
        names = self.names
        calls: dict[str, int] = {}
        inclusive: dict[str, int] = {}
        self_ns = {layer: 0 for layer in LAYERS}
        layer_calls = {layer: 0 for layer in LAYERS}
        attach_tests = attach_hits = 0
        attach = names.index("regulation.attach_position") if "regulation.attach_position" in names else -2
        for sid in range(len(self.start)):
            name = names[self.label[sid]]
            layer = name.split(".", 1)[0]
            dur = self.end[sid] - self.start[sid]
            calls[name] = calls.get(name, 0) + 1
            inclusive[name] = inclusive.get(name, 0) + dur
            self_ns[layer] += dur
            layer_calls[layer] += 1
            parent = self.parent[sid]
            if parent >= 0:
                self_ns[names[self.label[parent]].split(".", 1)[0]] -= dur
                if sid in self.marks and self.label[parent] == attach:
                    attach_tests += 1
                    attach_hits += self.marks[sid]
        counters = dict(self.counters)
        counters["attach_tests"] = attach_tests
        counters["attach_hits"] = attach_hits
        return {"calls": calls, "inclusive_ns": inclusive, "self_ns": self_ns,
                "layer_calls": layer_calls, "counters": counters}


def merge(summaries: list[dict]) -> dict:
    """Sum several summaries, as from the passes of one run."""
    out: dict = {"calls": {}, "inclusive_ns": {}, "self_ns": {}, "layer_calls": {},
                 "counters": {}}
    for s in summaries:
        for part, values in s.items():
            for k, v in values.items():
                out[part][k] = out[part].get(k, 0) + v
    return out


def layer_metrics(summary: dict, pairs: int, memo_entries: int, warnings: int,
                  imports: dict[str, float], run_ms: float, overhead: float) -> dict:
    """The per-layer metrics of one traced run, as name -> (value, unit)."""
    calls = summary["calls"]
    counters = summary["counters"]
    verdicts = calls.get("staircase_oracle.embeds", 0)

    def per(n, d):
        return n / d if d else 0.0

    out: dict = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (summary["layer_calls"].get(layer, 0), "count")
        out[f"{layer}.self_ms"] = (summary["self_ns"].get(layer, 0) / 1e6, "ms")
    searches = sum(calls.get(f"markov.{n}", 0)
                   for n in ("companions", "canonical_triple", "is_markov_number"))
    out["markov.companions_per_verdict"] = (per(calls.get("markov.companions", 0), verdicts),
                                            "calls/verdict")
    out["markov.searches_per_pair"] = (per(searches, pairs), "searches/pair")
    out["staircase_oracle.us_per_verdict"] = (
        per(summary["inclusive_ns"].get("staircase_oracle.embeds", 0) / 1e3, verdicts), "us")
    for answer in ("Embeds", "DoesNotEmbed", "OutsideVisibleRange"):
        out[f"staircase_oracle.verdicts.{answer}"] = (counters.get(f"verdict.{answer}", 0),
                                                      "count")
    out["hirzebruch_jung.wahl_data_per_pair"] = (
        per(calls.get("hirzebruch_jung.wahl_data", 0), pairs), "calls/pair")
    out["hirzebruch_jung.chain_entries"] = (counters.get("chain_entries", 0), "count")
    out["intersection_theory.culet_reports_per_pair"] = (
        per(calls.get("intersection_theory.culet_report", 0), pairs), "calls/pair")
    out["regulation.attach_tests"] = (counters["attach_tests"], "count")
    out["regulation.attach_hit_ratio"] = (per(counters["attach_hits"], counters["attach_tests"]),
                                          "frac")
    out["regulation.greedy_fallbacks"] = (warnings, "count")
    out["regulation.memo_entries"] = (memo_entries, "count")
    out["atf_geometry.mutations"] = (calls.get("atf_geometry.mutate_triangle", 0), "count")
    for module in ("pinstairs", *LAYERS, "total"):
        out[f"import.{module}_us"] = (imports.get(module, 0.0), "us")
    out["cli_plot.run_ms"] = (run_ms, "ms")
    out["trace.overhead_frac"] = (overhead, "frac")
    return out
