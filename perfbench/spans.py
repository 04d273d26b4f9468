"""Span tracing of polydouble's layers, installed from outside the package.

`Tracer.install()` wraps every public function and public method of the
layer modules and rebinds each wrapped name in every polydouble module
that imported it, so calls between modules are traced too.  The
`bitsets` helpers, private names, dunder methods and properties are left
alone: their time is counted as self time of the nearest traced caller.

Each span records name, start, end and parent in flat arrays that stay
in memory; self times are computed once, after the traced pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

LAYERS = (
    "cli",
    "catalog",
    "fileio",
    "verify",
    "complexes",
    "bipoly",
    "polytope_ring",
    "geometry",
    "moment_angle",
)


class Tracer:
    """Records one span per call of a wrapped polydouble function."""

    def __init__(self, capture: tuple[str, ...] = ()):
        self.names: list[str] = []
        self.name_ids = array("l")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.current = -1
        # Positional arguments of every call to these span names.
        self.captured: dict[str, list[tuple]] = {name: [] for name in capture}
        self._undo: list[tuple[object, str, object]] = []

    # -- installing and removing the wrappers ----------------------------------

    def install(self) -> None:
        # id of each original function -> (original, wrapper)
        wrapped: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"polydouble.{layer}")
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(value):
                    self._wrap_methods(layer, value)
                elif inspect.isfunction(inspect.unwrap(value)):
                    wrapped[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))
        for name, module in list(sys.modules.items()):
            if name != "polydouble" and not name.startswith("polydouble."):
                continue
            for attr, value in list(vars(module).items()):
                original, wrapper = wrapped.get(id(value), (None, None))
                if original is value:
                    self._rebind(module, attr, wrapper)

    def _wrap_methods(self, layer: str, cls: type) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(value, staticmethod):
                self._rebind(cls, attr, staticmethod(self._wrap(f"{layer}.{attr}", value.__func__)))
            elif inspect.isfunction(value):
                self._rebind(cls, attr, self._wrap(f"{layer}.{attr}", value))

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        if name in self.names:
            raise RuntimeError(f"two traced callables would share the span name {name}")
        name_id = len(self.names)
        self.names.append(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        captured = self.captured.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if captured is not None:
                captured.append(args)
            span = len(starts)
            parent = tracer.current
            name_ids.append(name_id)
            parents.append(parent)
            ends.append(0.0)
            tracer.current = span
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                tracer.current = parent

        return traced

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        """Calls and self seconds per span name, and the total root time.

        A span's self time is its duration minus the durations of its
        direct children.  Summed over all spans, self times equal the
        summed durations of the root spans when spans nest properly.
        """
        count = len(self.starts)
        child_time = [0.0] * count
        root_s = 0.0
        for span in range(count):
            duration = self.ends[span] - self.starts[span]
            parent = self.parents[span]
            if parent < 0:
                root_s += duration
            else:
                child_time[parent] += duration
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        negative = 0
        for span in range(count):
            own = self.ends[span] - self.starts[span] - child_time[span]
            if own < -1e-9:
                negative += 1
            name_id = self.name_ids[span]
            calls[name_id] += 1
            self_s[name_id] += own
        return {
            "spans": count,
            "root_s": root_s,
            "negative_self_spans": negative,
            "functions": {
                name: {"calls": calls[i], "self_s": self_s[i]}
                for i, name in enumerate(self.names)
            },
        }

    def write(self, path: Path) -> None:
        """Write every span as [name, start, end, parent] rows, once."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "columns": ["name", "start", "end", "parent"]}, handle)
            handle.write("\n")
            for span in range(len(self.starts)):
                handle.write(
                    f"[{self.name_ids[span]},{self.starts[span]!r},"
                    f"{self.ends[span]!r},{self.parents[span]}]\n"
                )
