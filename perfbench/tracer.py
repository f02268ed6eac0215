"""Outside-in span tracer for the benchmark's traced run.

The tracer wraps, for the duration of one traced pass, every package function
that ``cyclecover.search`` references by module global (so recursive calls of
``_node`` and every call the engine makes into reductions, kernel, selection,
structure, treecover and oracle are seen), the heavy ``Graph`` methods, and
``parse_dimacs``. Nothing inside the package is edited; uninstalling restores
the original attributes.

Each span records name, start, end, parent span and operation id. Spans are
kept in flat arrays until the run ends, then folded into per-name and
per-layer self times: a span's self time is its duration minus the durations
of its direct children. The benchmark opens a root span around each traced
pass, so the self times of all spans add up to the traced wall time.
"""

from __future__ import annotations

import inspect
from array import array
from collections import Counter
from time import perf_counter

import cyclecover.dimacs as dimacs_mod
import cyclecover.search as search_mod
from cyclecover.graph import Graph

GRAPH_METHODS = ("clone", "connected_components", "induced_subgraph")
MARK = "_perfbench_span"


def targets() -> list[tuple[object, str]]:
    """(owner, attribute) pairs the tracer wraps."""
    found = [
        (search_mod, name)
        for name, obj in vars(search_mod).items()
        if inspect.isfunction(obj)
        and (hasattr(obj, MARK) or obj.__module__.startswith("cyclecover."))
    ]
    found += [(Graph, name) for name in GRAPH_METHODS]
    found.append((dimacs_mod, "parse_dimacs"))
    return found


def installed() -> list[str]:
    """Names of targets that currently carry a tracing wrapper."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr in targets()
        if hasattr(getattr(owner, attr), MARK)
    ]


def span_name(fn) -> str:
    """'<layer>.<function>', the layer being the defining module's name."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Collects spans while installed; use as a context manager, as often as
    needed. The caller numbers operations through ``op``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.code = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self.op = 0
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # spans

    def register(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def open(self, code: int) -> int:
        idx = len(self.start)
        self.code.append(code)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self.op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def duration(self, idx: int) -> float:
        return self.end[idx] - self.start[idx]

    # wrappers

    def _wrap(self, fn, name: str):
        code = self.register(name)
        counted = name in ("selection.select", "kernel.nt_kernelize")
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            idx = open_(code)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if counted:
                self._count(name, result)
            return result

        setattr(traced, MARK, name)
        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, result) -> None:
        """Counts read off a layer's result where it returns."""
        if name == "selection.select":
            self.counts[f"search.nodes.{result.rule_tag.value}"] += 1
        elif not result.feasible:
            self.counts["kernel.nt_kernelize.infeasible"] += 1

    def __enter__(self) -> "Tracer":
        for owner, attr in targets():
            fn = inspect.getattr_static(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, span_name(fn)))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    # results

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self seconds)."""
        count = len(self.start)
        child = array("d", bytes(8 * count))
        start, end, parent = self.start, self.end, self.parent
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        code = self.code
        for i in range(count):
            c = code[i]
            calls[c] += 1
            own[c] += end[i] - start[i] - child[i]
        return {name: (calls[c], own[c]) for c, name in enumerate(self.names)}
