"""In-memory span tracing of the hilbcells layers, installed from outside.

The tracer replaces each public function of a layer module by a wrapper in
every hilbcells namespace that binds it (the defining module, the modules
that import it by name, and the package), so calls between layers and the
intra-module calls that go through module globals both become spans.
Nothing under ``src/`` is edited; ``uninstall`` puts the originals back.

A span is (function id, parent span, top-level call id, start, end,
raised), with times in ns from ``time.perf_counter_ns``.  Spans live in
typed arrays, so that a few million of them fit in memory and add no
objects for the garbage collector to track.
"""

from __future__ import annotations

import functools
import gc
import inspect
import json
import sys
import time
from array import array
from collections import Counter

LAYERS = ("staircases", "tangent", "polynomials", "charts", "strata", "cli")
PACKAGE = "hilbcells"

_FIELDS = (("fn", "i"), ("parent", "i"), ("call", "i"),
           ("start", "q"), ("end", "q"), ("raised", "b"))


class Tracer:
    """Collects spans and boundary counters while installed."""

    def __init__(self, observers=None):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.fn = array("i")
        self.parent = array("i")
        self.call = array("i")
        self.start = array("q")
        self.end = array("q")
        self.raised = array("b")
        self.call_id = -1
        self.counts: Counter = Counter()
        self._observers = dict(observers or {})
        self._stack: list[int] = []
        self._patched: list[tuple[dict, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """A wrapper recording one span per call; results and exceptions pass through."""
        nid = self._name_id(name)
        observe = self._observers.get(name)
        fns, parents, calls = self.fn, self.parent, self.call
        starts, ends, raised = self.start, self.end, self.raised
        stack, counts, clock = self._stack, self.counts, time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            fns.append(nid)
            parents.append(stack[-1] if stack else -1)
            calls.append(tracer.call_id)
            ends.append(0)
            raised.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(result, counts)
            return result

        return traced

    def install(self, layers=LAYERS) -> None:
        """Wrap every public function of the layer modules wherever it is bound."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))}
        wrappers = {}
        for layer in layers:
            mod = modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for mod in modules.values():
            namespace = vars(mod)
            for attr, obj in list(namespace.items()):
                wrapper = wrappers.get(obj) if inspect.isfunction(obj) else None
                if wrapper is not None:
                    self._patched.append((namespace, attr, obj))
                    namespace[attr] = wrapper

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            namespace[attr] = original
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def __len__(self) -> int:
        return len(self.start)

    def columns(self) -> dict[str, array]:
        return {field: getattr(self, field) for field, _code in _FIELDS}

    def write(self, path) -> None:
        """Header line of JSON, then the span arrays back to back."""
        header = {"names": self.names, "count": len(self),
                  "fields": [list(f) for f in _FIELDS]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in self.columns().values():
                column.tofile(fh)


def read_spans(path) -> tuple[list[str], dict[str, array]]:
    """Inverse of ``Tracer.write``: the names and one array per field."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        count = header["count"]
        columns = {}
        for field, code in header["fields"]:
            columns[field] = array(code)
            columns[field].fromfile(fh, count)
    return header["names"], columns


def span_self_ns(parent, start, end) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def summarize(names, spans) -> dict:
    """Per-function and per-layer aggregates of a span set.

    A layer's self time is the time its spans cover minus the time covered
    by child spans of other layers; summing each span's own self time over
    the layer gives exactly that.  ``errors`` counts exceptions leaving a
    layer: spans that raised into a caller outside the layer (or the benchmark loop).
    """
    fn, parent, raised = spans["fn"], spans["parent"], spans["raised"]
    start, end = spans["start"], spans["end"]
    own = span_self_ns(parent, start, end)
    layer_of = [n.split(".", 1)[0] for n in names]
    fn_calls = Counter()
    fn_self = Counter()
    layer = {name: {"calls": 0, "self_ns": 0, "errors": 0} for name in LAYERS}
    root_ns = 0
    for i, f in enumerate(fn):
        fn_calls[f] += 1
        fn_self[f] += own[i]
        entry = layer[layer_of[f]]
        entry["calls"] += 1
        entry["self_ns"] += own[i]
        p = parent[i]
        if p < 0:
            root_ns += end[i] - start[i]
        if raised[i] and (p < 0 or layer_of[fn[p]] != layer_of[f]):
            entry["errors"] += 1
    return {
        "functions": {names[f]: {"calls": fn_calls[f], "self_ns": fn_self[f]} for f in fn_calls},
        "layers": layer,
        "root_ns": root_ns,
    }


class GcStats:
    """Collections and pause time through ``gc.callbacks`` while installed."""

    def __init__(self):
        self.collections = 0
        self.pause_ns = 0
        self._t0 = 0

    def _callback(self, phase, _info):
        if phase == "start":
            self._t0 = time.perf_counter_ns()
        else:
            self.pause_ns += time.perf_counter_ns() - self._t0
            self.collections += 1

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)
        return False
