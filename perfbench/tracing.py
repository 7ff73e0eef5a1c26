"""Span recording around the public functions of vqt's modules.

The tracer wraps every function a module lists in ``__all__`` and rebinds the
wrapper under every name any vqt module binds the original to, so calls are
recorded whichever module makes them (``solver.mat_func``, ``cli.erlang_c``,
the ``lu_factor`` that ``numerics.lu_solve`` looks up, ...).  Nothing in the
package is edited; ``uninstall`` restores every binding.

A span is (id, name, start, end, parent id).  Spans are kept in memory and
folded into per-name tables (calls, total time, self time) by ``drain``.
Self time is a span's duration minus the union of its children's intervals.
A span opened on a worker thread with nothing open on that thread takes as
parent the innermost open span of the thread that installed the tracer, so
the CLI's sweep pool is charged to the CLI call that waits on it.
"""

from __future__ import annotations

import inspect
import itertools
import threading
from collections import defaultdict
from time import perf_counter

LAYERS = ("model", "spectral", "numerics", "solver", "reference", "simulator", "cli")


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[tuple] = []
        self.arrivals = 0                       # asked of simulator.simulate
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._bindings: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        counts_arrivals = name == "simulator.simulate"

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else -1
            sid = next(self._ids)
            stack.append(sid)
            if counts_arrivals:
                self.arrivals += args[1].num_arrivals
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.spans.append((sid, name, t0, t1, parent))
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module."""
        modules = [getattr(self.package, layer) for layer in LAYERS]
        originals = {}
        for layer, mod in zip(LAYERS, modules):
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    originals[id(fn)] = (fn, self._wrap(name, fn))
        for mod in [self.package] + modules:
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bindings.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._bindings):
            setattr(mod, attr, value)
        self._bindings.clear()

    def drain(self) -> dict[str, dict[str, float]]:
        """Fold the recorded spans into {name: {calls, ms, self_ms}} and clear;
        the simulator.simulate row also gets the arrivals its calls asked for."""
        spans, self.spans = self.spans, []
        arrivals, self.arrivals = self.arrivals, 0
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _sid, _name, t0, t1, parent in spans:
            if parent >= 0:
                children[parent].append((t0, t1))
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for sid, name, t0, t1, _parent in spans:
            covered = 0.0
            end = t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            row = table[name]
            row["calls"] += 1
            row["ms"] += (t1 - t0) * 1e3
            row["self_ms"] += (t1 - t0 - covered) * 1e3
        if arrivals:
            table["simulator.simulate"]["arrivals"] = arrivals
        return dict(table)
