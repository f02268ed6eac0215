"""Graph queries that only the tests use, written against Graph's public API."""

from cyclecover.graph import Graph


def closed_neighborhood(g: Graph, v: int) -> set[int]:
    return g.neighbors(v) | {v}


def edge_set(g: Graph) -> frozenset[frozenset[int]]:
    return frozenset(frozenset(e) for e in g.edges())


def is_forest(g: Graph) -> bool:
    # acyclic iff m = n - c
    return g.num_edges() == g.num_vertices() - g.num_components()


def check_invariants(g: Graph) -> None:
    """Symmetry, no self-loops, and an edge count that agrees with the edge
    list; raises AssertionError."""
    adj = g.adjacency()
    for u, nbrs in adj.items():
        if u in nbrs:
            raise AssertionError(f"self-loop at {u}")
        for v in nbrs:
            if u not in adj.get(v, ()):
                raise AssertionError(f"asymmetric edge {{{u}, {v}}}")
    listed = len(list(g.edges()))
    if g.num_edges() != listed:
        raise AssertionError(f"num_edges() {g.num_edges()} != {listed} listed edges")


def check_triangle_index(g: Graph) -> None:
    """Every live vertex on a triangle is in the triangle index whenever g
    has built it; raises AssertionError. Reads the private slot, so that
    the check never builds the index itself."""
    index = g._triangles
    if index is None:
        return
    for v in g.vertices():
        nbrs = g.neighbors(v)
        if any(g.neighbors(w) & nbrs for w in nbrs) and v not in index:
            raise AssertionError(f"vertex {v} lies on a triangle but is not indexed")


def estimate_vector(g: Graph, v: int) -> tuple[int, int]:
    """(include, exclude) estimates of the tau drop.

    Include: removing v costs its degree minus one circuit-rank units.
    Exclude: removing N[v] costs at least the neighbors' degree sum minus
    2 deg(v) minus 1, clamped at zero.
    """
    d = g.degree(v)
    if d < 3:
        raise ValueError(f"estimate needs degree >= 3, got {d}")
    neighbor_sum = sum(g.degree(w) for w in g.neighbors(v))
    include = d - 1
    exclude = max(0, neighbor_sum - 2 * d + 1)
    return include, exclude
