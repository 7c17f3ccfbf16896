"""Spans and counters around calls into hopf_forge's public functions.

The tracer wraps functions from outside the package.  A function is
imported by name into other modules (``from .hopf import find_grouplikes``
in invariants, the re-exports in ``hopf_forge/__init__``), so install()
rebinds every module attribute that holds the original object; a missed
rebinding would silently drop spans.  uninstall() restores them all.

A span is (id, parent id, request id, name, start, end).  Spans are kept
in memory and written out by the caller at the end.  Functions called
hundreds of thousands of times per request (field arithmetic) only get a
counter, so that tracing stays cheap; their time shows up as self time of
the enclosing span.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
import types
from collections import Counter

LAYERS = ("cli", "zoo", "hopf", "integrals", "invariants", "linalg",
          "cyclofield")

# Private functions that are the natural boundary of a layer's work.
_EXTRA = {"cli": ("_emit",)}

# Layers whose functions only get a call counter.
_COUNT_ONLY_LAYERS = ("cyclofield",)


class Tracer:

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.mul_full = 0
        self.max_dim = 0
        self.stack = []
        self.request = None
        self._ids = itertools.count(1)
        self._patches = []      # (owner, attribute, original)

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, measure_dim=False):
        tracer = self
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            if measure_dim:
                for m in args[:2]:
                    dim = max(getattr(m, "rows", 0), getattr(m, "cols", 0))
                    if dim > tracer.max_dim:
                        tracer.max_dim = dim
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                if stack and stack[-1] == sid:
                    stack.pop()
                spans.append((sid, parent, tracer.request, name, start, end))

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _mul(self, fn):
        tracer = self
        counts = self.counts
        cyc_type = sys.modules["hopf_forge.cyclofield"].CycNumber

        @functools.wraps(fn)
        def wrapper(a, b):
            counts["cyclofield.mul"] += 1
            if type(b) is cyc_type and any(a.coeffs[1:]) \
                    and any(b.coeffs[1:]):
                tracer.mul_full += 1
            return fn(a, b)

        return wrapper

    # -- install / uninstall --------------------------------------------------

    def targets(self):
        """(layer, attribute name, function) for every traced function."""
        out = []
        for layer in LAYERS:
            mod = sys.modules[f"hopf_forge.{layer}"]
            for attr, obj in sorted(vars(mod).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in _EXTRA.get(layer, ()):
                    continue
                out.append((layer, attr, obj))
        return out

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped = {}    # original function -> wrapper
        for layer, attr, fn in self.targets():
            name = f"{layer}.{attr}"
            if layer in _COUNT_ONLY_LAYERS:
                wrapped[fn] = self._counter(name, fn)
            else:
                wrapped[fn] = self._span(name, fn,
                                         measure_dim=(attr == "rref"))
        for mod in package_modules():
            for attr, obj in list(vars(mod).items()):
                wrapper = _lookup(wrapped, obj)
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)
        linalg = sys.modules["hopf_forge.linalg"]
        cyclofield = sys.modules["hopf_forge.cyclofield"]
        mat, cyc = linalg.Mat, cyclofield.CycNumber
        self._patch(mat, "__matmul__",
                    self._span("linalg.matmul", mat.__matmul__,
                               measure_dim=True))
        mul = self._mul(cyc.__mul__)
        self._patch(cyc, "__mul__", mul)
        self._patch(cyc, "__rmul__", mul)
        self._patch(cyc, "inverse",
                    self._counter("cyclofield.inverse", cyc.inverse))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- requests -------------------------------------------------------------

    def begin(self, request_id):
        """Open the root span of one request."""
        self.request = request_id
        self.stack.clear()
        sid = next(self._ids)
        self.stack.append(sid)
        return sid, time.perf_counter()

    def end(self, token):
        sid, start = token
        self.spans.append((sid, 0, self.request, "request", start,
                           time.perf_counter()))
        self.stack.clear()
        self.request = None


def package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and
            (name == "hopf_forge" or name.startswith("hopf_forge."))]


def _lookup(table, obj):
    try:
        return table.get(obj)
    except TypeError:       # unhashable attribute value
        return None


# -- reading the spans back ---------------------------------------------------


class Profile:
    """Aggregates over a list of spans."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}
        child_time = Counter()
        for sid, parent, _rid, _name, start, end in spans:
            if parent:
                child_time[parent] += end - start
        self.child_time = child_time

    def _outermost(self, match):
        """Spans matching the predicate with no matching ancestor."""
        out = []
        for span in self.spans:
            if not match(span[3]):
                continue
            parent = self.by_id.get(span[1])
            while parent is not None and not match(parent[3]):
                parent = self.by_id.get(parent[1])
            if parent is None:
                out.append(span)
        return out

    def inclusive_s(self, name):
        return sum(s[5] - s[4] for s in self._outermost(lambda n: n == name))

    def layer_inclusive_s(self, layer):
        prefix = layer + "."
        return sum(s[5] - s[4]
                   for s in self._outermost(lambda n: n.startswith(prefix)))

    def calls(self, name):
        return sum(1 for s in self.spans if s[3] == name)

    def self_s(self, name=None, layer=None):
        total = 0.0
        for sid, _parent, _rid, span_name, start, end in self.spans:
            if name is not None and span_name != name:
                continue
            if layer is not None and not span_name.startswith(layer + "."):
                continue
            total += (end - start) - self.child_time[sid]
        return total
