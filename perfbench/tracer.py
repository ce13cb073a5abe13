"""In-memory span tracer that instruments treehopf from the outside.

``Tracer.install`` wraps the public functions and methods of the library's
modules (``algebra``, ``trees``, ``hopf``, ``prelie``, ``planar``, ``cli``)
in place, at run time, so no library source is edited.  Each wrapped call
is one span: name, start, end, parent span and the id of the benchmark op
that issued it.  Spans live in flat arrays and are written out at exit by
``Tracer.dump``.

Per-layer self time is derived from the spans as they close: a span's
duration minus the durations of its child spans.  The same closing step
adds to per-name call counts and to the inclusive time of named groups
(outermost span of the group only, so recursion is not counted twice).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
from array import array
from time import perf_counter

LAYERS = ("algebra", "trees", "hopf", "prelie", "planar", "cli")

# Constant-time accessors and scanner primitives: a span around each would
# cost more than the call and swamp the layer's own time.
SKIP = frozenset(
    {
        "is_zero", "is_empty", "is_rational", "is_single_tree", "sort_key",
        "q", "coefficient", "counit", "skip_ws", "peek", "expect", "try_take",
        "integer", "at_end", "error", "check_done", "vertex_ids", "line",
    }
)

# Arithmetic and construction dunders that do a layer's work.
DUNDERS = frozenset(
    {
        "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
        "__rmul__", "__neg__", "__pow__", "__truediv__", "__str__",
    }
)

# Constructors left out: Coeff and the planar/labelled containers are built
# inside their own layer's operations, so a span there only adds overhead.
SKIP_INIT = frozenset({"Coeff", "PlanarTree", "PlanarWord", "LabelledTree", "Scanner"})

SPAN_CAP = 2_000_000


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.dropped = 0
        self.op = -1
        self.layer_self = [0.0] * (len(LAYERS) + 1)  # last slot: the benchmark
        self.calls: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self.group_incl: dict[str, float] = {}
        self._group_depth: dict[str, int] = {}
        self._stack: list[list] = []
        self._restore: list[tuple] = []
        self._op_name = self._name_id("bench.op", len(LAYERS))

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str, layer: int) -> int:
        self.names.append(name)
        self.name_layer.append(layer)
        return len(self.names) - 1

    def _open(self, name_id: int) -> list:
        stack = self._stack
        idx = len(self.span_start)
        if idx < SPAN_CAP:
            self.span_name.append(name_id)
            t0 = perf_counter()
            self.span_start.append(t0)
            self.span_end.append(0.0)
            self.span_parent.append(stack[-1][2] if stack else -1)
            self.span_op.append(self.op)
        else:
            idx = -1
            self.dropped += 1
            t0 = perf_counter()
        frame = [t0, 0.0, idx]
        stack.append(frame)
        return frame

    def _close(self, frame: list, layer: int) -> float:
        t1 = perf_counter()
        stack = self._stack
        stack.pop()
        dur = t1 - frame[0]
        self.layer_self[layer] += dur - frame[1]
        if stack:
            stack[-1][1] += dur
        if frame[2] >= 0:
            self.span_end[frame[2]] = t1
        return dur

    @contextlib.contextmanager
    def op_span(self, op_id: int):
        """One benchmark op: the root span of everything it calls."""
        self.op = op_id
        depth = len(self._stack)
        frame = self._open(self._op_name)
        try:
            yield
        finally:
            # A RecursionError can strike inside a wrapper's own bookkeeping
            # and leave frames or group depths behind; no span outlives its op.
            del self._stack[depth + 1:]
            for g in self._group_depth:
                self._group_depth[g] = 0
            self._close(frame, len(LAYERS))
            self.op = -1

    def wrap(self, fn, name: str, layer: str, groups=(), on_call=None, on_result=None):
        layer_id = LAYERS.index(layer)
        name_id = self._name_id(name, layer_id)
        calls = self.calls
        calls.setdefault(name, 0)
        depth = self._group_depth
        incl = self.group_incl
        for g in groups:
            depth.setdefault(g, 0)
            incl.setdefault(g, 0.0)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            if on_call is not None:
                on_call(tracer.counters, args)
            for g in groups:
                depth[g] += 1
            frame = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer._close(frame, layer_id)
                for g in groups:
                    depth[g] -= 1
                    if not depth[g]:
                        incl[g] += dur
            if on_result is not None:
                on_result(tracer.counters, result)
            return result

        return traced

    # -- instrumentation -------------------------------------------------

    def install(self, package, hooks: dict) -> None:
        """Wrap every public function and method of the package's layers.

        ``hooks`` maps a qualified name (``"hopf.coproduct"``,
        ``"algebra.Coeff.__mul__"``) to keyword arguments for ``wrap``.
        A module-level function is replaced in every treehopf namespace
        that holds it, so calls between modules go through the wrapper.
        """
        modules = [getattr(package, name) for name in LAYERS]
        namespaces = [vars(package)] + [vars(m) for m in modules]
        for layer, module in zip(LAYERS, modules):
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    if not issubclass(obj, BaseException):
                        self._install_class(layer, obj, hooks)
                elif callable(obj) and not inspect.isgeneratorfunction(obj):
                    qual = f"{layer}.{attr}"
                    wrapped = self.wrap(obj, qual, layer, **hooks.get(qual, {}))
                    for ns in namespaces:
                        for key, value in list(ns.items()):
                            if value is obj:
                                self._restore.append((ns, key, value, False))
                                ns[key] = wrapped

    def _install_class(self, layer: str, cls, hooks: dict) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr in SKIP or (attr.startswith("_") and attr not in DUNDERS):
                continue
            if attr == "__init__" and cls.__name__ in SKIP_INIT:
                continue
            qual = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                fn, rewrap = raw.__func__, classmethod
            elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                fn, rewrap = raw, None
            else:
                continue  # properties, static methods, generators
            wrapped = self.wrap(fn, qual, layer, **hooks.get(qual, {}))
            self._restore.append((cls, attr, raw, True))
            setattr(cls, attr, rewrap(wrapped) if rewrap else wrapped)

    def uninstall(self) -> None:
        for target, key, value, is_class in reversed(self._restore):
            if is_class:
                setattr(target, key, value)
            else:
                target[key] = value
        self._restore.clear()

    # -- results ---------------------------------------------------------

    def summary(self) -> dict:
        self_s = {layer: self.layer_self[i] for i, layer in enumerate(LAYERS)}
        self_s["bench"] = self.layer_self[-1]
        return {
            "self_s": self_s,
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "group_incl_s": dict(self.group_incl),
            "spans_kept": len(self.span_start),
            "spans_dropped": self.dropped,
        }

    def dump(self, path: str) -> None:
        """Write the spans: ``path.json`` holds the span names, their layers
        and each column's array typecode; ``path.<column>`` holds the raw
        array (native byte order) of one column: name (index into the
        names), start, end (``perf_counter`` seconds), parent (span index,
        -1 for none) and op (op index, -1 outside ops)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        columns = {
            "name": self.span_name,
            "start": self.span_start,
            "end": self.span_end,
            "parent": self.span_parent,
            "op": self.span_op,
        }
        for col, arr in columns.items():
            with open(f"{path}.{col}", "wb") as fh:
                arr.tofile(fh)
        header = {
            "names": self.names,
            "layers": [(LAYERS + ("bench",))[i] for i in self.name_layer],
            "columns": {col: arr.typecode for col, arr in columns.items()},
            "count": len(self.span_start),
            "dropped": self.dropped,
        }
        with open(f"{path}.json", "w") as fh:
            json.dump(header, fh)

