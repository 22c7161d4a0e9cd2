"""Span tracer that wraps the package's public functions from outside.

Every public function defined in a layer module of ``junctionplan`` is
replaced, in each module that binds it (the defining module, every layer
that imported it with ``from ... import``, and the package namespace), by
a wrapper that records one span per call: name, start, end, parent span
and operation id. Spans stay in memory until ``write`` is called, and
``uninstall`` puts every original function back.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import time
from collections import Counter
from contextlib import contextmanager
from functools import wraps

PACKAGE = "junctionplan"
LAYERS = ("trajectory", "world", "solver", "game", "oracle", "cli")


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (name id, start, end, parent span index or -1, operation id)
        self.spans: list = []
        self.stack: list[int] = []
        self.op_id = -1
        # (binding module, span name) -> calls made through that binding
        self.calls: Counter = Counter()
        # span name -> callback receiving the wrapped function's return value
        self.on_return: dict = {}
        self._patches: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        index = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, self._name_id(name), start)

    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        return index

    def _close(self, index: int, name_id: int, start: float) -> None:
        end = time.perf_counter()
        self.stack.pop()
        parent = self.stack[-1] if self.stack else -1
        self.spans[index] = (name_id, start, end, parent, self.op_id)

    def _wrap(self, fn, name: str, site: str):
        name_id = self._name_id(name)
        key = (site, name)
        hook = self.on_return.get(name)
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            index = self._open()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, name_id, start)
                self.calls[key] += 1
            if hook is not None:
                hook(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public layer function at every module binding it."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = {
            layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS
        }
        public = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    public[obj] = f"{layer}.{attr}"
        sites = {PACKAGE: importlib.import_module(PACKAGE), **modules}
        try:
            for site, module in sites.items():
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in public:
                        setattr(module, attr, self._wrap(obj, public[obj], site))
                        self._patches.append((module, attr, obj))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Restore every wrapped function; safe to call more than once."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def calls_by_name(self) -> Counter:
        totals: Counter = Counter()
        for (_, name), count in self.calls.items():
            totals[name] += count
        return totals

    def total_times(self) -> Counter:
        """Summed span durations per name, children included."""
        totals: Counter = Counter()
        for name_id, start, end, _, _ in self.spans:
            totals[self.names[name_id]] += end - start
        return totals

    def self_times(self) -> Counter:
        """Span duration minus the time its child spans cover, per name.

        Spans nest on one thread, so the children of a span never overlap
        and their coverage is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: Counter = Counter()
        for index, (name_id, start, end, _, _) in enumerate(self.spans):
            totals[self.names[name_id]] += (end - start) - covered[index]
        return totals

    def write(self, path) -> None:
        """Write the spans as gzipped CSV, times relative to the first span."""
        origin = min((s[1] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index,name,start_s,end_s,parent,op\n")
            for index, (name_id, start, end, parent, op) in enumerate(self.spans):
                fh.write(
                    f"{index},{self.names[name_id]},{start - origin:.9f},"
                    f"{end - origin:.9f},{parent},{op}\n"
                )
