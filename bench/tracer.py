"""In-memory span tracer for the trihybrid layers, installed from outside.

The layers are the package modules named in ``LAYERS``.  ``Instrumentation``
replaces every public function of a layer with a timing wrapper in every
module namespace that binds it: a ``from .x import f`` binding is a separate
name, so patching ``x.f`` alone would miss calls made through it.
``Scenario.em_channels`` (the EM lift) is wrapped on its class.

Each call records a span: name, start, end, parent span and run id.  The
run id numbers the ``harness.run_single`` calls, so the spans of one result
row share it; spans outside any row (set-up, the batch loop) carry -1.  A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import csv
import functools
import inspect
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("harmonics", "channel", "wmmse", "decomposition", "projection", "harness")

# Span names that differ from "<layer>.<function>".
ALIASES = {
    "wmmse.solve_ac_subproblem": "wmmse.solve_ac",
    "wmmse.refit_digital": "wmmse.refit",
}

REQUEST_SPAN = "harness.run_single"


def _observe_solve(counters, arguments, result):
    counters["wmmse.converged"] += bool(result.converged)
    counters["wmmse.iterations"] += result.iterations
    counters["wmmse.solves_returned"] += 1


def _observe_update_em(counters, arguments, result):
    before = np.asarray(arguments["coeffs"])
    counters["wmmse.em_rows_attempted"] += before.shape[0]
    counters["wmmse.em_rows_changed"] += int(np.any(result != before, axis=1).sum())


def _observe_decompose(counters, arguments, result):
    # residual_history starts with the initial residual; the rest are
    # accepted alternating steps
    counters["decomposition.iterations"] += len(result.residual_history) - 1
    counters["decomposition.calls_returned"] += 1


OBSERVERS = {
    "wmmse.run_algorithm1": _observe_solve,
    "wmmse.update_em": _observe_update_em,
    "decomposition.decompose": _observe_decompose,
}


class Tracer:
    """Spans and counters of one traced batch, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent, run id, failed]
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._run_id = -1
        self._requests = 0
        self._t0 = time.perf_counter()

    def wrap(self, name: str, func):
        name_id = len(self.names)
        self.names.append(name)
        observe = OBSERVERS.get(name)
        signature = inspect.signature(func) if observe is not None else None
        is_request = name == REQUEST_SPAN
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if is_request:
                self._run_id, self._requests = self._requests, self._requests + 1
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, self._run_id, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if is_request:
                    self._run_id = -1
            if observe is not None:
                observe(counters, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def layer_table(self) -> dict:
        """Per span name: calls, failed calls, total and self seconds."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table = {
            name: {"calls": 0, "failures": 0, "total_s": 0.0, "self_s": 0.0}
            for name in self.names
        }
        for idx, (name_id, start, end, _, _, failed) in enumerate(self.spans):
            row = table[self.names[name_id]]
            row["calls"] += 1
            row["failures"] += failed
            row["total_s"] += end - start
            row["self_s"] += end - start - child[idx]
        return table

    def write_spans(self, path) -> None:
        """One CSV row per span; times in seconds from tracer creation."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("span", "name", "start_s", "end_s", "parent", "run_id", "failed"))
            for idx, (name_id, start, end, parent, run_id, failed) in enumerate(self.spans):
                out.writerow(
                    (idx, self.names[name_id], f"{start - self._t0:.9f}",
                     f"{end - self._t0:.9f}", parent, run_id, int(failed))
                )


class Instrumentation:
    """Timing wrappers for the public functions of every layer of the
    trihybrid package, bound in every module namespace that binds them.

    ``install`` puts the wrappers in place and ``remove`` restores the
    originals, so traced and untraced calls can alternate in one process.
    """

    def __init__(self, tracer: Tracer):
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"trihybrid.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue  # bound here by import; wrapped where it is defined
                name = f"{layer}.{attr}"
                wrappers[obj] = tracer.wrap(ALIASES.get(name, name), obj)
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "trihybrid" or name.startswith("trihybrid."))
        ]
        self.bindings = [
            (mod, attr, obj, wrappers[obj])
            for mod in modules
            for attr, obj in vars(mod).items()
            if inspect.isfunction(obj) and obj in wrappers
        ]
        scenario = sys.modules["trihybrid.channel"].Scenario
        lift = scenario.em_channels
        self.bindings.append((scenario, "em_channels", lift, tracer.wrap("channel.em_lift", lift)))

    def install(self) -> None:
        for owner, attr, _, wrapper in self.bindings:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _ in self.bindings:
            setattr(owner, attr, original)
