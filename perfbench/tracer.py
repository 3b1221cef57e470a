"""Span tracer that wraps the public functions of the treehopf modules.

The program is not changed: the tracer rebinds each public function in every
treehopf module that binds it (``gl`` imports ``graft_positions`` by name from
``trees``, so patching ``trees`` alone would miss the calls made from ``gl``),
and replaces the public methods and arithmetic operators of the classes each
module defines.  ``LinComb.__init__`` is wrapped as well, so that
constructions are counted and their coefficient coercion is charged to
``linear``.

Every wrapped call records one span (name, start, end, parent) in flat arrays
kept in memory; :meth:`Tracer.write` stores them when the run ends.  The self
time of a span is its duration minus the time covered by the spans of wrapped
calls made inside it, and is summed per module as the spans close.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import time
from collections import Counter

MODULES = ("trees", "linear", "ck", "gl", "duality", "series", "nsym", "ncs", "orderpoly", "cli")

# What a traced pass reports; run.py adds trace.overhead_s.
LAYER_METRICS = (
    "ncs.theta_calls", "trees.nested_sequences", "ncs.self_s", "ncs.calls",
    "trees.graft_assignments", "trees.interned", "trees.self_s", "trees.calls",
    "gl.self_s", "gl.calls", "gl.mul_term_pairs",
    "linear.self_s", "linear.lincombs",
    "series.self_s", "series.calls",
    "ck.self_s", "ck.calls", "duality.self_s", "duality.calls", "duality.pairings",
    "orderpoly.self_s", "orderpoly.calls", "nsym.self_s", "nsym.calls",
)

# Operator methods count as public: series and polynomial arithmetic goes
# through them.  Comparison and hashing dunders do not: trees and forests use
# them inside every dict lookup.
_OPERATORS = ("__add__", "__sub__", "__mul__", "__rmul__", "__truediv__", "__neg__", "__call__")


class Tracer:
    """Wraps the treehopf modules in place; :meth:`uninstall` restores them."""

    def __init__(self, package):
        self.modules = {name: getattr(package, name) for name in MODULES}
        self.names: list[str] = []
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.interned: set = set()
        self._stack: list[list] = []
        self._restore: list[tuple] = []

    # -- counters at the layer boundaries -----------------------------------

    def _hooks(self):
        counts = self.counts
        interned = self.interned

        def theta(args, result):
            counts["ncs.theta_calls"] += 1

        def nested(args, result):
            counts["trees.nested_sequences"] += len(result)

        def graft(args, result):
            counts["trees.graft_assignments"] += len(result)

        def node(args, result):
            interned.add(result)

        def gl_mul(args, result):
            counts["gl.mul_term_pairs"] += len(args[0].terms) * len(args[1].terms)

        def lincomb(args, result):
            counts["linear.lincombs"] += 1

        def pairing(args, result):
            counts["duality.pairings"] += 1

        return {
            "ncs.theta_recurrence": theta,
            "trees.nested_cut_sequences": nested,
            "trees.graft_positions": graft,
            "trees.node": node,
            "gl.mul": gl_mul,
            "linear.LinComb.__init__": lincomb,
            "duality.pair": pairing,
            "duality.pair_tensor": pairing,
        }

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, qualname: str, module: str, hook):
        name_id = len(self.names)
        self.names.append(qualname)
        stack = self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        self_s, calls = self.self_s, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1][0] if stack else -1)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            span_start.append(start)
            span_end.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span_end[index] = end
                duration = end - start
                self_s[module] += duration - frame[1]
                calls[module] += 1
                if stack:
                    stack[-1][1] += duration
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def install(self) -> None:
        hooks = self._hooks()
        wrapped: dict[int, object] = {}
        for mod_name, mod in self.modules.items():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(value):
                    qual = f"{mod_name}.{attr}"
                    wrapped[id(value)] = self._wrap(value, qual, mod_name, hooks.get(qual))
                elif inspect.isclass(value):
                    self._wrap_class(value, mod_name, hooks)
        # Rebind at every module that holds one of the originals by name.
        for mod in self.modules.values():
            for attr, value in list(vars(mod).items()):
                replacement = wrapped.get(id(value))
                if replacement is not None:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def _wrap_class(self, cls, mod_name: str, hooks) -> None:
        for attr, raw in list(vars(cls).items()):
            public = not attr.startswith("_") or attr in _OPERATORS
            if attr == "__init__" and f"{mod_name}.{cls.__name__}.__init__" in hooks:
                public = True
            if not public:
                continue
            qual = f"{mod_name}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(raw.__func__, qual, mod_name, hooks.get(qual)))
            elif inspect.isfunction(raw):
                new = self._wrap(raw, qual, mod_name, hooks.get(qual))
            else:
                continue
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict[str, float | int]:
        """The per-layer metrics of the benchmark, in :data:`LAYER_METRICS` order."""
        out: dict[str, float | int] = dict(self.counts)
        for mod in MODULES:
            out[f"{mod}.self_s"] = self.self_s[mod]
            out[f"{mod}.calls"] = self.calls[mod]
        out["trees.interned"] = len(self.interned)
        return {key: out.get(key, 0) for key in LAYER_METRICS}

    def write(self, path) -> None:
        """One JSON header line (span count and name table), then the four
        arrays in native byte order: name, parent, start, end."""
        header = {
            "spans": len(self.span_start),
            "names": self.names,
            "arrays": ["name:i", "parent:i", "start:d", "end:d"],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


def read_spans(path) -> tuple[list[str], list[tuple[str, float, float, int]]]:
    """Load a file written by :meth:`Tracer.write` as (names, spans)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array.array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    names = header["names"]
    spans = [
        (names[name], start, end, parent)
        for name, parent, start, end in zip(*arrays)
    ]
    return names, spans
