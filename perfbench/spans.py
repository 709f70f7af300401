"""Span recording for the traced pass, from outside the program.

`Tracer.install` replaces the public functions and methods of each hcflow
module (plus the private helpers that carry a named metric) by wrappers that
record a span (name, start, end, parent) per call.  No program file is
edited: the wrappers are swapped into the module and class namespaces and
swapped back by `uninstall`.  Spans are grouped under a root span that the
benchmark opens around each CLI call; when the root closes its spans are
folded into per-name totals of calls, inclusive time and self time (a span
minus its child spans).  The root's own self time is the `untraced`
remainder: time in the call that no wrapped function accounts for.

The integrator's inner kernels (`_core_py` / `_core_cy` internals) are not
wrapped, so a flow records at most a few thousand spans.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
from contextlib import contextmanager
from time import perf_counter_ns

LAYERS = ("algebra", "analysis", "catalog", "cli", "core", "curvature",
          "geometry", "integrate", "metric", "report", "verify")
UNTRACED = "untraced"

#: private functions that carry a named per-layer metric
PRIVATE_TARGETS = {"cli": ("_execute_run", "_plot_data_csv", "_atomic_write", "_dump_json")}
#: integrator entry points; their returned counters are recorded per flow
CORE_FLOW = ("core.run_closed_flow", "core.run_flow")


def _targets(layer: str, mod):
    """(span name, owner, attribute) of every function to wrap in one module."""
    if layer == "core":
        # core re-exports the lane's functions; wrap them in core's namespace
        # only, so the loop's own kernel calls inside the lane stay unwrapped
        for name, value in vars(mod).items():
            if (not name.startswith("_") and callable(value)
                    and not inspect.isclass(value) and not inspect.ismodule(value)):
                yield f"core.{name}", mod, name
        return
    for name, value in vars(mod).items():
        defined_here = getattr(value, "__module__", None) == mod.__name__
        if name.startswith("_") or not defined_here:
            continue
        if inspect.isfunction(value):
            yield f"{layer}.{name}", mod, name
        elif inspect.isclass(value):
            for mname, mvalue in vars(value).items():
                if not mname.startswith("_") and inspect.isfunction(mvalue):
                    yield f"{layer}.{name}.{mname}", value, mname
    for name in PRIVATE_TARGETS.get(layer, ()):
        if inspect.isfunction(getattr(mod, name, None)):
            yield f"{layer}.{name}", mod, name


class Tracer:
    def __init__(self) -> None:
        self.hooked: set[str] = set()
        self.totals: dict[str, dict] = {}  # root kind -> aggregates
        self.flow_counters = {"calls": 0, "accepted": 0, "rejected": 0, "samples": 0}
        self._spans: list[list] = []  # [name, start, end, parent] under the open root
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self._spans, self._stack
        observe = self._observe_flow if name in CORE_FLOW else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter_ns(), 0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter_ns()
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _observe_flow(self, result) -> None:
        # (status, t_est, rows, n_accept, n_reject, m_final)
        c = self.flow_counters
        c["calls"] += 1
        c["accepted"] += int(result[3])
        c["rejected"] += int(result[4])
        c["samples"] += len(result[2])

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "hcflow" or n.startswith("hcflow."))
                   and not n.startswith("hcflow._core")]
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"hcflow.{layer}")
            except ImportError:
                continue
            for name, owner, attr in list(_targets(layer, mod)):
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original)
                owners = [owner]
                if inspect.ismodule(owner) and layer != "core":
                    # `from .x import f` copies f into other modules: patch those too
                    owners = [m for m in modules if any(
                        v is original for v in vars(m).values())]
                for target in owners:
                    for key, value in list(vars(target).items()):
                        if value is original:
                            self._patches.append((target, key, original))
                            setattr(target, key, wrapper)
                self.hooked.add(name)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    # -- roots and aggregation ----------------------------------------------

    @contextmanager
    def root(self, kind: str):
        """Span around one CLI call; its spans are folded into `totals[kind]`."""
        self._spans.clear()
        self._spans.append([UNTRACED, perf_counter_ns(), 0, -1])
        self._stack.append(0)
        try:
            yield
        finally:
            self._stack.pop()
            self._spans[0][2] = perf_counter_ns()
            self._fold(kind)

    def _fold(self, kind: str) -> None:
        agg = self.totals.setdefault(kind, {"roots": 0, "root_ns": 0, "names": {}})
        spans = self._spans
        child_ns = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, start, end, _) in enumerate(spans):
            calls_incl_self = agg["names"].setdefault(name, [0, 0, 0])
            calls_incl_self[0] += 1
            calls_incl_self[1] += end - start
            calls_incl_self[2] += end - start - child_ns[i]
        agg["roots"] += 1
        agg["root_ns"] += spans[0][2] - spans[0][1]
        spans.clear()

    # -- queries (None when the hook target does not exist) ------------------

    def names(self, kind: str) -> dict:
        return self.totals.get(kind, {"names": {}})["names"]

    def roots(self, kind: str) -> int:
        return self.totals.get(kind, {"roots": 0})["roots"]

    def total(self, kind: str, names, column: int) -> int | None:
        """Summed calls (0), inclusive ns (1) or self ns (2) over span names."""
        names = [names] if isinstance(names, str) else names
        if not any(n in self.hooked for n in names):
            return None
        table = self.names(kind)
        return sum(table[n][column] for n in names if n in table)

    def layer_self_ns(self, kind: str) -> dict[str, int]:
        """Self time per layer (and the untraced remainder) under one root kind."""
        out = {layer: 0 for layer in (*LAYERS, UNTRACED)}
        for name, (_, _, self_ns) in self.names(kind).items():
            out[name.split(".", 1)[0]] += self_ns
        return out
