"""Span tracer that wraps the public functions of every oamix module.

install() replaces each public function of each oamix layer module with a
wrapper that records one span per call, and rebinds that name wherever the
package refers to the original: in every oamix module that imported it and
in module-level dicts such as catalog.CATALOG. Calls made inside the
package are therefore caught too, each recorded once under the layer (the
module) that defines the function. Nothing under src/ is modified; the
returned Installation restores every binding.

Spans stay in memory as parallel arrays (name, parent, op id, start, end,
raised) and can be written out with Trace.dump() when a run ends. Self time
of a span is its duration minus the durations of its direct children, so
the self times of all spans of an op sum to the time covered by its root
spans. A span "raised" across a layer boundary when its call ended in an
exception and its caller is in another layer (or is not traced).
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from array import array
from time import perf_counter

LAYERS = ("cli", "serialize", "catalog", "pwo", "core", "modelmat",
          "linalg", "evaluate", "fit")

_ORIGINAL = "__perfbench_original__"


class Trace:
    """In-memory span store for one process."""

    def __init__(self):
        self.names: list[str] = []      # "<layer>.<function>", index = name id
        self.layers: list[str] = []     # layer of each name id
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.counts: dict[tuple[int, str], float] = {}
        self.op_id = -1
        self._stack: list[int] = []

    def add_name(self, layer: str, func: str) -> int:
        self.names.append(f"{layer}.{func}")
        self.layers.append(layer)
        return len(self.names) - 1

    def count(self, key: str, amount: float) -> None:
        k = (self.op_id, key)
        self.counts[k] = self.counts.get(k, 0.0) + amount

    def __len__(self) -> int:
        return len(self.start)

    def dump(self, directory: str) -> None:
        """Write the spans as binary arrays plus a JSON index."""
        os.makedirs(directory, exist_ok=True)
        for field in ("name", "parent", "op", "start", "end", "raised"):
            with open(os.path.join(directory, f"{field}.bin"), "wb") as fh:
                getattr(self, field).tofile(fh)
        meta = {"names": self.names, "layers": self.layers,
                "counts": [[op, key, v] for (op, key), v in self.counts.items()]}
        with open(os.path.join(directory, "index.json"), "w") as fh:
            json.dump(meta, fh)

    @classmethod
    def load(cls, directory: str) -> "Trace":
        t = cls()
        with open(os.path.join(directory, "index.json")) as fh:
            meta = json.load(fh)
        t.names, t.layers = meta["names"], meta["layers"]
        t.counts = {(op, key): v for op, key, v in meta["counts"]}
        for field in ("name", "parent", "op", "start", "end", "raised"):
            arr = getattr(t, field)
            path = os.path.join(directory, f"{field}.bin")
            with open(path, "rb") as fh:
                arr.frombytes(fh.read())
        return t


def _wrap(trace: Trace, fn, nid: int, counter):
    stack = trace._stack

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = len(trace.start)
        trace.name.append(nid)
        trace.parent.append(stack[-1] if stack else -1)
        trace.op.append(trace.op_id)
        trace.raised.append(0)
        trace.end.append(0.0)
        stack.append(i)
        trace.start.append(perf_counter())
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            trace.raised[i] = 1
            raise
        finally:
            trace.end[i] = perf_counter()
            stack.pop()
        if counter is not None:
            counter(trace, args, result)
        return result

    setattr(traced, _ORIGINAL, fn)
    return traced


class Installation:
    """Handle returned by install(); uninstall() restores every binding."""

    def __init__(self, patches):
        self._patches = patches

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patches):
            container[key] = original
        self._patches = []


def _oamix_modules():
    return {name: mod for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == "oamix" or name.startswith("oamix."))}


def install(trace: Trace, counters=None) -> Installation:
    """Wrap every public function of oamix's layer modules.

    counters maps "<layer>.<function>" to a callable (trace, args, result)
    run after a successful call, for per-layer work counts. Raises
    RuntimeError if the package is already traced.
    """
    counters = counters or {}
    modules = _oamix_modules()
    wrappers = {}
    for modname in sorted(modules):
        layer = modname.rpartition(".")[2]
        if layer not in LAYERS:
            continue
        for attr, obj in sorted(vars(modules[modname]).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if hasattr(obj, _ORIGINAL):
                raise RuntimeError(f"{modname}.{attr} is already traced")
            if obj.__module__ != modname:
                continue
            nid = trace.add_name(layer, attr)
            wrappers[obj] = _wrap(trace, obj, nid,
                                  counters.get(f"{layer}.{attr}"))
    patches = []
    for mod in modules.values():
        namespace = vars(mod)
        for attr, obj in list(namespace.items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patches.append((namespace, attr, obj))
                namespace[attr] = wrappers[obj]
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if inspect.isfunction(value) and value in wrappers:
                        patches.append((obj, key, value))
                        obj[key] = wrappers[value]
    return Installation(patches)


class LayerTotals:
    """Per-layer sums over a set of ops: calls, self seconds, raised."""

    def __init__(self):
        self.calls = {layer: 0 for layer in LAYERS}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.raised = {layer: 0 for layer in LAYERS}
        self.counts: dict[str, float] = {}

    def add_trace(self, trace: Trace, ops=None) -> None:
        """Accumulate the spans of the given op ids (all ops if None)."""
        n = len(trace)
        dur = [e - s for s, e in zip(trace.start, trace.end)]
        child = [0.0] * n
        parent = trace.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        layers, names, op, raised = (trace.layers, trace.name, trace.op,
                                     trace.raised)
        wanted = None if ops is None else set(ops)
        for i in range(n):
            if wanted is not None and op[i] not in wanted:
                continue
            layer = layers[names[i]]
            self.calls[layer] += 1
            self.self_s[layer] += dur[i] - child[i]
            if raised[i]:
                p = parent[i]
                if p < 0 or layers[names[p]] != layer:
                    self.raised[layer] += 1
        for (op_id, key), v in trace.counts.items():
            if wanted is None or op_id in wanted:
                self.counts[key] = self.counts.get(key, 0.0) + v

    def total_self_s(self) -> float:
        return sum(self.self_s.values())


def _rows(trace, args, result):
    trace.count("modelmat.rows", getattr(result, "n", 1))


def _bytes_out(trace, args, result):
    if isinstance(result, str):
        trace.count("serialize.bytes_out", len(result.encode()))
    else:  # (csv path, svg path)
        trace.count("serialize.bytes_out",
                    sum(os.path.getsize(p) for p in result))


def _bytes_in(trace, args, result):
    trace.count("serialize.bytes_in", len(args[0].encode()))


# work counts taken at oamix's layer boundaries (unknown names are ignored,
# so a function that later disappears only stops counting)
OAMIX_COUNTERS = {
    "modelmat.build_model_matrix": _rows,
    "modelmat.coded_model_matrix": _rows,
    "modelmat.model_row": _rows,
    "serialize.write_design_csv": _bytes_out,
    "serialize.write_fds_outputs": _bytes_out,
    "serialize.parse_design_csv": _bytes_in,
}
