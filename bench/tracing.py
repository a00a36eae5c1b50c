"""Spans around every public function of the library, installed from outside.

``Tracer.install`` wraps each public module-level function of the traced
modules and rebinds every module attribute that refers to it, including the
names other modules imported with ``from ... import``, so nested calls are
seen.  Function-local imports read the defining module at call time and see
the wrapper too.  ``MPoly`` addition and multiplication get count-only
wrappers.  ``Tracer.restore`` puts every original object back.

Spans are kept in memory as ``[name, start, end, parent, spec, value]``;
``value`` holds a size observed on the result where one is measured.
``Tracer.fold`` turns the spans of one spec into per-name totals and drops
them, so memory holds one spec's spans at a time.
"""

import sys
import time
import types
from dataclasses import dataclass, field

PACKAGE = "triplecover"
LAYERS = ("polyring", "univar", "polyparse", "cover", "etamap", "torus",
          "classify", "cli")

# Sizes recorded on a function's result.
_OBSERVE = {
    "polyring.resultant": lambda r: r.total_degree(),
    "univar.rational_roots": len,
}

# MPoly operators, counted without spans.  __sub__ and __rsub__ delegate to
# __add__, so each subtraction is counted once, as an addition.
_OPERATORS = {
    "polyring.mpoly_mul": ("__mul__", "__rmul__"),
    "polyring.mpoly_addsub": ("__add__", "__radd__"),
}


@dataclass
class Stat:
    """Totals over the spans of one function name."""

    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    value_sum: int = 0
    value_max: int = 0
    inside: dict = field(default_factory=dict)  # enclosing name -> spans


class Tracer:
    def __init__(self):
        self.spans = []
        self.stats = {}
        self.span_count = 0
        self.counts = {name: 0 for name in _OPERATORS}
        self.spec = -1
        self._stack = []
        self._patches = []

    # -- installation ------------------------------------------------------

    def _modules(self):
        prefix = PACKAGE + "."
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(prefix))]

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules["%s.%s" % (PACKAGE, layer)]
            for attr, value in vars(module).items():
                if (isinstance(value, types.FunctionType)
                        and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    wrappers[id(value)] = (value, self._wrap(
                        "%s.%s" % (layer, attr), value))
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, attr, entry[1])
        mpoly = sys.modules[PACKAGE + ".polyring"].MPoly
        for name, methods in _OPERATORS.items():
            for method in methods:
                self._patch(mpoly, method, self._count(name, vars(mpoly)[method]))

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self):
        """Put every original binding back; returns the number restored."""
        patches, self._patches = self._patches, []
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        return len(patches)

    def unrestored(self):
        """Bindings that still refer to a wrapper (should be none)."""
        owners = self._modules() + [sys.modules[PACKAGE + ".polyring"].MPoly]
        return ["%s.%s" % (owner.__name__, attr)
                for owner in owners for attr, value in vars(owner).items()
                if getattr(value, "__wrapped_by_tracer__", False)]

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        observe = _OBSERVE.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.spec, None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                span[5] = observe(result)
            return result

        traced.__wrapped__ = fn
        traced.__wrapped_by_tracer__ = True
        traced.__name__ = fn.__name__
        return traced

    def _count(self, name, method):
        counts = self.counts

        def counted(*args):
            counts[name] += 1
            return method(*args)

        counted.__wrapped_by_tracer__ = True
        return counted

    # -- metrics -----------------------------------------------------------

    def fold(self):
        """Add the spans recorded so far to ``stats`` and drop them.

        Self time is a span's duration minus the durations of its children.
        Total time sums only spans with no enclosing span of the same name.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        for i, s in enumerate(spans):
            st = self.stats.setdefault(s[0], Stat())
            duration = s[2] - s[1]
            st.calls += 1
            st.self_s += duration - child[i]
            enclosing = set()
            parent = s[3]
            while parent >= 0:
                enclosing.add(spans[parent][0])
                parent = spans[parent][3]
            if s[0] not in enclosing:
                st.total_s += duration
            for name in enclosing:
                st.inside[name] = st.inside.get(name, 0) + 1
            if s[5] is not None:
                st.value_sum += s[5]
                st.value_max = max(st.value_max, s[5])
        self.span_count += len(spans)
        del spans[:]
