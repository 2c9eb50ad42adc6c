"""Span tracing for the benchmark's traced run.

The tracer wraps public library functions from outside the library: each
wrapped function is replaced, in every loaded ``makerbreaker`` module that
holds it, by a wrapper that records a span (name, start, end, parent, op id).
Replacing the name wherever it is bound catches both ``module.fn(...)`` calls
and names imported with ``from .x import fn``.  Strategies are traced through
a delegating ``Strategy`` returned by the wrapped ``build_strategy``.

Spans live in flat arrays while the run goes on and are written out once, at
the end.  Recording happens only while the tracer is active, so output checks
that call the same kernels between ops add no spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager

# (module, function, span name) for every traced library function.
TRACED_FUNCTIONS = (
    ("harness", "run_experiment", "harness.run_experiment"),
    ("harness", "build_strategy", "harness.build_strategy"),
    ("generators", "generate", "generators.generate"),
    ("engine", "play", "engine.play"),
    ("engine", "maker_win_witness", "engine.win_check"),
    ("graphs", "induced_subgraph", "graphs.induced_subgraph"),
    ("graphs", "find_odd_cycle", "graphs.find_odd_cycle"),
    ("coloring", "is_k_colorable", "coloring.is_k_colorable"),
    ("connectivity", "vertex_connectivity", "connectivity.vertex_connectivity"),
    ("connectivity", "vertex_cut_below", "connectivity.vertex_cut_below"),
    ("decompose", "highly_connected_partition", "decompose.highly_connected_partition"),
    ("decompose", "robust_partition", "decompose.robust_partition"),
    ("decompose", "extract_bipartite_core", "decompose.extract_bipartite_core"),
    ("decompose", "extract_chromatic_core", "decompose.extract_chromatic_core"),
    ("solver", "solve", "solver.solve"),
)

SETUP_OP = -1


def replace_everywhere(original, replacement) -> list:
    """Bind ``replacement`` wherever a makerbreaker module binds ``original``.

    Returns the (module, attribute) pairs changed, for ``restore``.
    """
    changed = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "makerbreaker" or name.startswith("makerbreaker.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed.append((module, attr, original))
    return changed


def restore(changed):
    for module, attr, original in reversed(changed):
        setattr(module, attr, original)


class Tracer:
    """Spans in flat arrays; ``op`` is the id shared by the spans of one op."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op_of = array("q")
        self._stack: list[int] = []
        self.op = SETUP_OP
        self.active = False

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(nid)
        self.op_of.append(self.op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    @contextmanager
    def installed(self, modules, maker_idents=()):
        """Wrap every traced function; undo all of it on exit."""
        changed = []
        try:
            for mod_name, fn_name, span_name in TRACED_FUNCTIONS:
                original = getattr(modules[mod_name], fn_name)
                wrapped = self.wrap(span_name, original)
                if fn_name == "build_strategy":
                    wrapped = self._strategy_builder(wrapped, modules, set(maker_idents))
                changed += replace_everywhere(original, wrapped)
            yield self
        finally:
            restore(changed)

    def _strategy_builder(self, build, modules, maker_idents):
        tracer = self
        parse_ident = modules["harness"].parse_ident
        base = modules["engine"].Strategy

        class TracedStrategy(base):
            """Delegates to a built strategy, timing each ``propose``."""

            def __init__(self, inner, span_name):
                self.inner = inner
                self.ident = inner.ident
                self.position_pure = inner.position_pure
                self._propose = tracer.wrap(span_name, inner.propose)

            def reset(self, spec, seed):
                self.inner.reset(spec, seed)

            def propose(self, spec, pos):
                return self._propose(spec, pos)

            def __getattr__(self, attr):
                return getattr(self.inner, attr)

        @functools.wraps(build)
        def traced_build(ident, g):
            inner = build(ident, g)
            if ident in maker_idents:
                span_name = "strategies.maker_propose"
            else:
                span_name = "strategies.breaker_propose." + parse_ident(ident)[0]
            return TracedStrategy(inner, span_name)

        return traced_build

    # -- reductions ---------------------------------------------------------

    def __len__(self):
        return len(self.start)

    def totals(self, *, ops_only: bool = False) -> dict:
        """name -> [calls, total seconds, self seconds]."""
        child_time = [0.0] * len(self.start)
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        out: dict = {}
        for i in range(len(self.start)):
            if ops_only and self.op_of[i] == SETUP_OP:
                continue
            dur = self.end[i] - self.start[i]
            row = out.setdefault(self.names[self.name[i]], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - child_time[i]
        return out

    def child_totals(self, child: str, parent: str, *, below_op: int | None = None):
        """(calls, seconds) of ``child`` spans whose direct parent is ``parent``."""
        cid, pid = self._name_ids.get(child), self._name_ids.get(parent)
        calls, secs = 0, 0.0
        if cid is None or pid is None:
            return calls, secs
        for i in range(len(self.start)):
            p = self.parent[i]
            if self.name[i] != cid or p < 0 or self.name[p] != pid:
                continue
            if below_op is not None and not (0 <= self.op_of[i] < below_op):
                continue
            calls += 1
            secs += self.end[i] - self.start[i]
        return calls, secs

    def write(self, path):
        """One line per span: op, id, parent, name, start, end (seconds)."""
        with open(path, "w") as f:
            f.write("op\tid\tparent\tname\tstart\tend\n")
            for i in range(len(self.start)):
                f.write(
                    f"{self.op_of[i]}\t{i}\t{self.parent[i]}\t{self.names[self.name[i]]}"
                    f"\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )
