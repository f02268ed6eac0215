"""Cycle-structure measures.

The central quantity is tau, the largest number of simple cycles that can be
listed so that each cycle after the first contributes an edge unseen by its
predecessors. For any graph it equals the circuit rank m - n + c; this module
computes it the structural way (strip pendant paths, then count surplus degree)
and cross-checks the two on every call.
"""

from __future__ import annotations

from .graph import Graph


def extra_degree(g: Graph, v: int) -> int:
    """Degree above two: max(0, deg(v) - 2)."""
    return max(0, g.degree(v) - 2)


def extra_degree_graph(g: Graph) -> int:
    return sum(extra_degree(g, v) for v in g.vertices())


def strip_lines(g: Graph) -> Graph:
    """Copy of g with all pendant paths and isolated vertices removed: its
    2-core, in which every vertex has degree >= 2.

    A vertex of degree <= 1 is deleted, and each neighbor it leaves at
    degree <= 1 joins the queue, until none is left.
    """
    s = g.clone()
    adj = s.adjacency()
    low = [v for v, nbrs in adj.items() if len(nbrs) <= 1]
    while low:
        v = low.pop()
        if v in adj:  # a degree-1 vertex may be queued again at degree 0
            low += [w for w in s.remove_vertex(v) if len(adj[w]) <= 1]
    return s


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
