"""Span tracer that times qwalk's layers from outside the package.

``Tracer.install`` wraps every public module-level function of the
traced modules (only ``main`` in ``cli``, so that its self time covers
parsing, configuration and output formatting) plus three class
attributes.  Each wrapper is rebound in the defining module and in every
``qwalk`` module that imported the same function object with
``from ... import``, so calls through an alias are traced too.  A
generator function gets a span around each ``next()`` only, never
around the consumer's work between items.

A span's self time is its duration minus the durations of the spans it
directly contains.  Spans are aggregated in memory as they close:
calls, summed self time and longest single span per function, call
counts per (parent, child) edge, items yielded per generator, and the
largest value seen by an observer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

MODULES = ("graphs", "arcs", "coins", "dtqw", "ctqw", "decoherence", "explorer", "cli")
CLASS_ATTRS = (
    ("arcs", "ArcSpace", "from_graph"),
    ("ctqw", "Spectrum", "from_graph"),
    ("ctqw", "Spectrum", "propagate"),
)
# span name -> (observed quantity, function of the span's return value)
OBSERVERS = {"arcs.ArcSpace.from_graph": ("arcs.n_arcs.max", lambda space: space.n_arcs)}


class Tracer:
    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, max_s]
        self.edges: dict[tuple, int] = {}  # (parent name or None, child name) -> calls
        self.items: dict[str, int] = {}  # generator name -> items yielded
        self.observed: dict[str, float] = {}  # quantity -> largest value seen
        self.spans = 0
        self._stack: list[list] = []  # open spans: [name, start, child_s]
        self._restore: list[tuple] = []  # (owner, attribute, original value)

    # ----- spans -----

    def _count(self, name: str) -> None:
        self.stats.setdefault(name, [0, 0.0, 0.0])[0] += 1
        edge = (self._stack[-1][0] if self._stack else None, name)
        self.edges[edge] = self.edges.get(edge, 0) + 1

    def _enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def _exit(self) -> None:
        name, start, child_s = self._stack.pop()
        dur = self.clock() - start
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[1] += dur - child_s
        st[2] = max(st[2], dur)
        if self._stack:
            self._stack[-1][2] += dur
        self.spans += 1

    def wrap(self, name: str, fn):
        observer = OBSERVERS.get(name)
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                self._count(name)
                inner = fn(*args, **kwargs)
                while True:
                    self._enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._exit()
                    self.items[name] = self.items.get(name, 0) + 1
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._count(name)
            self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit()
            if observer is not None:
                key, measure = observer
                self.observed[key] = max(self.observed.get(key, 0), measure(out))
            return out

        return traced

    # ----- installing and removing the wrappers -----

    def install(self) -> None:
        """Wrap the traced functions everywhere qwalk refers to them."""
        wrappers: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for short in MODULES:
            mod = importlib.import_module(f"qwalk.{short}")
            for attr, value in vars(mod).items():
                public = not attr.startswith("_") and (short != "cli" or attr == "main")
                if public and inspect.isfunction(value) and value.__module__ == mod.__name__:
                    wrappers[id(value)] = (value, self.wrap(f"{short}.{attr}", value))
        for modname, mod in list(sys.modules.items()):
            if modname != "qwalk" and not modname.startswith("qwalk."):
                continue
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._rebind(mod, attr, entry[1])
        for short, cls_name, attr in CLASS_ATTRS:
            cls = getattr(importlib.import_module(f"qwalk.{short}"), cls_name)
            raw = cls.__dict__[attr]
            name = f"{short}.{cls_name}.{attr}"
            if isinstance(raw, classmethod):
                self._rebind(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            else:
                self._rebind(cls, attr, self.wrap(name, raw))
        self._check_no_originals(wrappers)

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    @staticmethod
    def _check_no_originals(wrappers: dict) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname == "qwalk" or modname.startswith("qwalk."):
                for attr, value in vars(mod).items():
                    entry = wrappers.get(id(value))
                    if entry is not None and entry[0] is value:
                        raise RuntimeError(f"{modname}.{attr} still bound to the untraced function")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # ----- results -----

    def metrics(self) -> dict[str, float]:
        """Flat per-layer metrics: per function, per module, and derived ratios."""
        out: dict[str, float] = {}
        module_self: dict[str, float] = {short: 0.0 for short in MODULES}
        for name, (calls, self_s, max_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            out[f"{name}.max_s"] = max_s
            module_self[name.split(".", 1)[0]] += self_s
        for short, self_s in module_self.items():
            out[f"{short}.self_s"] = self_s
        out.update(self.observed)

        enum, key = "explorer.enumerate_variants", "graphs.canonical_key"
        tried = self.edges.get((enum, key), 0)
        kept = self.items.get(enum, 0)
        recomputed = self.edges.get(("explorer.pst_search", key), 0)
        out[f"{enum}.unique_ratio"] = kept / tried if tried else 0.0
        out["explorer.keys_per_variant"] = (tried + recomputed) / kept if kept else 0.0
        out["trace.spans"] = self.spans
        return out
