"""Cycle-structure measures.

The central quantity is tau, the largest number of simple cycles that can be
listed so that each cycle after the first contributes an edge unseen by its
predecessors. For any graph it equals the circuit rank m - n + c; this module
computes it the structural way (strip pendant paths, then count surplus degree)
and cross-checks the two on every call.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph


def extra_degree(g: Graph, v: int) -> int:
    """Degree above two: max(0, deg(v) - 2)."""
    return max(0, g.degree(v) - 2)


def extra_degree_graph(g: Graph) -> int:
    return sum(extra_degree(g, v) for v in g.vertices())


@dataclass(frozen=True)
class LineSegment:
    """A pendant path: degree-1 start, interior of degree-2 vertices, and the
    first vertex of degree != 2 as terminal. The terminal survives stripping
    when its degree is 3 or more."""

    path: tuple[int, ...]
    terminal: int


def line_from(g: Graph, start: int) -> LineSegment:
    """Walk the pendant path beginning at a degree-1 vertex."""
    if g.degree(start) != 1:
        raise ValueError(f"line must start at a degree-1 vertex, got degree {g.degree(start)}")
    path = [start]
    prev = start
    cur = next(iter(g.neighbors(start)))
    while g.degree(cur) == 2:
        path.append(cur)
        nxt = next(iter(g.neighbors(cur) - {prev}))
        prev, cur = cur, nxt
    return LineSegment(path=tuple(path), terminal=cur)


def strip_lines(g: Graph) -> Graph:
    """Copy of g with all pendant paths and isolated vertices removed.

    Repeats until every remaining vertex has degree >= 2. Terminals of degree
    >= 3 survive; a path whose far end is another degree-1 vertex disappears
    entirely.
    """
    s = g.clone()
    while True:
        worklist = sorted(v for v in s.vertices() if s.degree(v) <= 1)
        if not worklist:
            return s
        for v in worklist:
            if not s.has_vertex(v):
                continue
            if s.degree(v) == 0:
                s.remove_vertex(v)
                continue
            seg = line_from(s, v)
            for u in seg.path:
                s.remove_vertex(u)
            # a degree-1 terminal belonged to a pure path and is isolated now
            if s.degree(seg.terminal) == 0:
                s.remove_vertex(seg.terminal)


def circuit_rank(g: Graph) -> int:
    return g.num_edges() - g.num_vertices() + g.num_components()


def tau(g: Graph) -> int:
    """Independent-cycle count via the stripped-structure formula.

    Sums ex(component)/2 + 1 over the components of the stripped graph (each
    has minimum degree >= 2), then asserts agreement with the circuit rank of
    the original graph. A mismatch means a broken invariant, not bad input.
    """
    stripped = strip_lines(g)
    total = 0
    for comp in stripped.connected_components():
        ex = sum(extra_degree(stripped, v) for v in comp)
        if ex % 2 != 0:
            raise AssertionError(f"component surplus degree {ex} is odd")
        total += ex // 2 + 1
    rank = circuit_rank(g)
    if total != rank:
        raise AssertionError(f"structural cycle count {total} != circuit rank {rank}")
    return total


def tau_upper_bound(g: Graph) -> int:
    """floor(ex(G)/2) + 1 for a connected graph."""
    if g.num_vertices() == 0 or not g.is_connected():
        raise ValueError("tau_upper_bound needs a nonempty connected graph")
    return extra_degree_graph(g) // 2 + 1
