"""In-memory span tracing of the imsolve layers, installed from outside.

The library has no tracing hooks, so the traced run swaps each public
function named in ``TRACED`` for a wrapper that records a span: name,
parent span, start and end.  ``solver`` looks up ``reduce_instance``,
``decompose``, ``choose_rule``, ``expand``, ``is_triangle_star`` and
``solve_imba`` as module globals at call time, and ``Graph`` methods are
looked up on the class, so replacing the module attributes (in every
``imsolve`` module that imported the function) and the class attributes
reaches every call.  ``installed`` puts the originals back on exit.

Spans stay in flat arrays until the run ends; ``summary`` then derives
per-function call counts, total time and self time (duration minus the
time covered by direct child spans).
"""

from __future__ import annotations

import sys
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

# (module, attribute) pairs; "Class.method" wraps the method on the class.
TRACED = (
    ("graph", "Graph.local_features"),
    ("graph", "Graph.delete_vertices"),
    ("graph", "Graph.induced"),
    ("kernel", "reduce_instance"),
    ("gallai_edmonds", "decompose"),
    ("matching", "maximum_matching"),
    ("solver", "solve_auto"),
    ("solver", "solve_imba"),
    ("solver", "solve_imbtg"),
    ("solver", "choose_rule"),
    ("solver", "expand"),
    ("oracle", "is_triangle_star"),
    ("instances", "read_instance"),
    ("instances", "reduce_dominating_set"),
)


def span_name(module: str, attr: str) -> str:
    """``graph.local_features`` for ``Graph.local_features`` in ``graph``."""
    return f"{module}.{attr.rpartition('.')[2]}"


TRACED_NAMES = tuple(span_name(m, a) for m, a in TRACED)


class Tracer:
    """Records nested spans of one single-threaded run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("H")
        self._parent = array("i")
        self._start = array("q")
        self._end = array("q")
        self._outer = array("b")  # 0 when nested inside a span of the same name
        self._stack: list[int] = []
        self._active: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        nid = self._id(name)
        stack, active = self._stack, self._active
        names, parents, starts, ends, outer = (
            self._name, self._parent, self._start, self._end, self._outer
        )

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            outer.append(active[nid] == 0)
            ends.append(0)
            stack.append(idx)
            active[nid] += 1
            starts.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                active[nid] -= 1
                stack.pop()

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a root span (an op or the set-up)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def summary(self) -> dict:
        """``{name: {"calls", "total_s", "self_s"}}`` over all spans.

        ``total_s`` counts only the outermost span of a name, so a function
        that reaches itself again is not counted twice.
        """
        count = len(self._start)
        dur = [self._end[i] - self._start[i] for i in range(count)]
        child = [0] * count
        for i, p in enumerate(self._parent):
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "total_s": 0, "self_s": 0} for name in self.names}
        for i in range(count):
            row = out[self.names[self._name[i]]]
            row["calls"] += 1
            row["self_s"] += dur[i] - child[i]
            if self._outer[i]:
                row["total_s"] += dur[i]
        for row in out.values():
            row["total_s"] /= 1e9
            row["self_s"] /= 1e9
        return out


def _imsolve_modules():
    return [
        mod
        for key, mod in sorted(sys.modules.items())
        if mod is not None and (key == "imsolve" or key.startswith("imsolve."))
    ]


@contextmanager
def installed(tracer: Tracer):
    """Route every call of the ``TRACED`` functions through ``tracer``."""
    undo = []
    try:
        for module, attr in TRACED:
            home = sys.modules[f"imsolve.{module}"]
            name = span_name(module, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, tracer.wrap(name, orig))
                undo.append((cls, meth, orig))
                continue
            orig = getattr(home, attr)
            wrapped = tracer.wrap(name, orig)
            for mod in _imsolve_modules():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        undo.append((mod, key, orig))
        yield tracer
    finally:
        for owner, key, orig in reversed(undo):
            setattr(owner, key, orig)
