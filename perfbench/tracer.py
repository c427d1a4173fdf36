"""In-memory spans around the public functions of bucketrisk's layers.

The tracer wraps each public function of a layer module at every module
attribute the program resolves it through (``bucketrisk.lattice.apply``,
``bucketrisk.lattice.max_disclosure``, ``bucketrisk.cli.load_table``, ...),
so nested calls get parent spans. Functions are found at run time: one that
a later version drops or renames is simply not traced, and metrics derived
from it are reported as absent. ``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("table", "engine", "curves", "lattice", "oracle", "knowledge")


class Tracer:
    def __init__(self) -> None:
        # one span: [name, parent index or -1, start, end]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.traced: set[str] = set()

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0]
        self.spans.append(record)
        self._stack.append(index)
        record[2] = time.perf_counter()
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        span = self.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every public layer function wherever a bucketrisk module holds it."""
        names: dict[int, tuple[str, object]] = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"bucketrisk.{layer}")
            except ImportError:
                continue
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    names[id(value)] = (f"{layer}.{attr}", value)
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in names.items()}
        modules = [
            m for n, m in list(sys.modules.items())
            if n == "bucketrisk" or n.startswith("bucketrisk.")
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._saved.append((module, attr, value))
        self.traced = {name for name, _ in names.values()}

    def restore(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    # -- queries -----------------------------------------------------------

    def durations(self) -> list[float]:
        return [end - start for _, _, start, end in self.spans]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = self.durations()
        for index, (_, parent, start, end) in enumerate(self.spans):
            if parent >= 0:
                own[parent] -= end - start
        return own

    def ancestors(self, index: int):
        parent = self.spans[index][1]
        while parent >= 0:
            yield self.spans[parent][0]
            parent = self.spans[parent][1]

    def select(self, name: str, under=None) -> list[int]:
        """Indices of spans called ``name``, optionally below a span matching ``under``."""
        out = []
        for index, span in enumerate(self.spans):
            if span[0] != name:
                continue
            if under is not None and not any(under(a) for a in self.ancestors(index)):
                continue
            out.append(index)
        return out

    def total(self, name: str, under=None) -> float:
        durations = self.durations()
        return sum((durations[i] for i in self.select(name, under)), 0.0)

    def self_by_prefix(self) -> dict[str, float]:
        """Self time summed per layer (the span name's part before the dot)."""
        totals: dict[str, float] = defaultdict(float)
        for (name, _, _, _), own in zip(self.spans, self.self_times()):
            totals[name.split(".", 1)[0]] += own
        return totals
