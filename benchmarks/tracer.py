"""Span tracing of sleepq calls, installed from outside the package.

The package is not instrumented. Instead, each traced function is replaced
by a timing wrapper at every module binding that holds it: modules import
with `from .potential import solve_poisson`, so `sleepq.potential`,
`sleepq.sensitivity`, `sleepq.cli` and the `sleepq` namespace each keep
their own reference, and all of them are rebound. `sleepq.sim` looks its
kernels up on `sleepq._simkernel` at call time, so rebinding that module's
attributes reaches them.

Spans are kept in memory as tuples (id, name, start, end, parent, task,
thread, info) and written out once, at the end of a run. A span opened on a
worker thread with no open span of its own attaches to the innermost open
span of the main thread, which is the `optimize` call waiting on its pool.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import sys
import threading
from time import perf_counter

# (label, module, attribute). Labels are "<module>.<function>"; the two
# kernel entry points share one label because only one of them runs.
TARGETS = (
    ("model.enumerate_policies", "sleepq.model", "enumerate_policies"),
    ("chain.build_generator", "sleepq.chain", "build_generator"),
    ("chain.stationary_closed_form", "sleepq.chain", "stationary_closed_form"),
    ("chain.stationary_numeric", "sleepq.chain", "stationary_numeric"),
    ("reward.build_reward", "sleepq.reward", "build_reward"),
    ("reward.average_profit", "sleepq.reward", "average_profit"),
    ("reward.policy_profit", "sleepq.reward", "policy_profit"),
    ("potential.solve_poisson", "sleepq.potential", "solve_poisson"),
    ("potential.rg_factorize", "sleepq.potential", "rg_factorize"),
    ("potential.invert_reduced", "sleepq.potential", "invert_reduced"),
    ("sensitivity.realization_factors", "sleepq.sensitivity", "realization_factors"),
    ("sensitivity.perturbation_factors", "sleepq.sensitivity", "perturbation_factors"),
    ("sensitivity.critical_prices_global", "sleepq.sensitivity", "critical_prices_global"),
    ("sensitivity.single_coordinate_difference", "sleepq.sensitivity",
     "single_coordinate_difference"),
    ("optimize.optimize", "sleepq.optimize", "optimize"),
    ("optimize.profits_block", "sleepq.optimize", "profits_block"),
    ("optimize.threshold_scan", "sleepq.optimize", "threshold_scan"),
    ("optimize.optimal_extreme_prices", "sleepq.optimize", "optimal_extreme_prices"),
    ("sim.simulate", "sleepq.sim", "simulate"),
    ("_simkernel.kernel", "sleepq._simkernel", "kernel_python"),
    ("_simkernel.kernel", "sleepq._simkernel", "kernel_jit"),
    ("_simkernel.kernel_trace", "sleepq._simkernel", "_kernel_trace"),
    ("cli.main", "sleepq.cli", "main"),
    ("cli.price_sweep", "sleepq.cli", "price_sweep"),
)

# Slot of the int64 counter array among the kernel arguments, and the slot
# of the event counter inside it (sleepq._simkernel.COUNT_EVENTS).
_KERNEL_COUNTS_ARG = 15
_COUNT_EVENTS = 4


def _span_info(label, args, kwargs, result):
    """Per-call facts recorded with a span (method, sizes, results)."""
    if label == "potential.solve_poisson":
        return {"method": kwargs.get("method", args[5] if len(args) > 5 else "rg"),
                "residual": result.residual if result is not None else None}
    if label == "optimize.optimize":
        return {"threads": kwargs.get("threads") or 1,
                "evaluations": result.evaluations if result is not None else 0}
    if label == "optimize.profits_block":
        return {"rows": len(args[1])}
    if label == "sim.simulate":
        return {"events": result.counts.events if result is not None else 0}
    return None


class _Counted:
    """Iterator proxy that counts the items a caller actually draws."""

    def __init__(self, inner, tally):
        self._inner = iter(inner)
        self._tally = tally

    def __iter__(self):
        return self

    def __next__(self):
        item = next(self._inner)
        self._tally[0] += 1
        return item


class Tracer:
    """Collects spans from wrapped sleepq functions."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.task: str | None = None
        self.yielded = [0]
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, label, fn):
        tracer = self
        is_kernel = label.startswith("_simkernel.")
        counts_events = label == "model.enumerate_policies"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = 0
            sid = next(tracer._ids)
            stack.append(sid)
            result = None
            failed = False
            events_before = (int(args[_KERNEL_COUNTS_ARG][_COUNT_EVENTS])
                             if is_kernel else 0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                failed = True
                raise
            finally:
                end = perf_counter()
                stack.pop()
                if is_kernel:
                    info = {"events": int(args[_KERNEL_COUNTS_ARG][_COUNT_EVENTS])
                            - events_before}
                else:
                    info = _span_info(label, args, kwargs, result)
                if failed:
                    info = dict(info or {}, failed=True)
                tracer.spans.append((sid, label, start, end, parent, tracer.task,
                                     threading.get_ident(), info))

        if counts_events:
            # Policies are drawn lazily after the call returns, so count
            # them through a proxy around the returned iterator.
            @functools.wraps(fn)
            def traced_iter(*args, **kwargs):
                return _Counted(traced(*args, **kwargs), tracer.yielded)
            return traced_iter
        return traced

    def install(self):
        """Rebind every traced function at every sleepq module binding."""
        modules = [mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "sleepq" or name.startswith("sleepq."))]
        for label, module_name, attr in TARGETS:
            original = getattr(sys.modules[module_name], attr, None)
            if original is None:
                continue
            wrapped = self.wrap(label, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for mod, key, original in reversed(self._saved):
            setattr(mod, key, original)
        self._saved.clear()

    def write(self, path):
        """Write all spans as gzip'd JSON lines, one span per line."""
        fields = ("id", "name", "start", "end", "parent", "task", "thread", "info")
        with gzip.open(path, "wt", encoding="utf-8") as fp:
            for span in self.spans:
                fp.write(json.dumps(dict(zip(fields, span))) + "\n")


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def aggregate(spans):
    """Per-label calls, total_s, self_s (labels with children) and extras.

    self_s is a span's duration minus the part of it its child spans
    cover; children on worker threads overlap, so their union is taken.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, _, start, end, parent, *_ in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, dict] = {}
    for sid, label, start, end, _, _, _, info in spans:
        row = out.setdefault(label, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                     "has_children": False, "failed": 0})
        row["calls"] += 1
        row["total_s"] += end - start
        kids = children.get(sid)
        if kids:
            row["has_children"] = True
            clipped = [(max(a, start), min(b, end)) for a, b in kids if b > a]
            row["self_s"] += (end - start) - _covered(clipped)
        else:
            row["self_s"] += end - start
        if info and info.get("failed"):
            row["failed"] += 1
    return out
