"""Graph queries that only the tests use, written against Graph's public API,
and the degree rules written rule by rule, as a reference for the peel."""

import heapq

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


def snapshot(g: Graph):
    """Everything a mutation may change, in iteration order: the vertices,
    each neighbor set, the edge count and the triangle index, which it
    reads without building it."""
    adj = g.adjacency()
    return (
        [(v, list(nbrs)) for v, nbrs in adj.items()],
        g.num_edges(),
        None if g._triangles is None else set(g._triangles),
    )


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


def fold_degree2(g: Graph, u: int, trace: list, changed: set[int] | None = None) -> set[int]:
    """Resolve a degree-2 vertex; returns the live vertices whose degree fell.

    Adjacent neighbors: both join the cover (two id entries) and the
    isolated u goes for free. Otherwise the triple {s, u, r} contracts into r
    (one (u, s, r) entry) and the lift decides between {s, r} and {u}.
    A given changed set gains every live vertex whose neighborhood changed:
    r and s's other neighbors for a fold, the vertices that lost s or r
    otherwise.
    """
    adj = g.adjacency()
    nbrs = adj.get(u)
    if nbrs is None or len(nbrs) != 2:
        raise ValueError(f"fold needs a degree-2 vertex, got degree {g.degree(u)}")
    s, r = nbrs
    if s > r:
        s, r = r, s
    if r in adj[s]:
        trace.extend((s, r))
        fell = g.remove_vertex(s)
        fell |= g.remove_vertex(r)
        g.remove_vertex(u)
        fell.discard(u)
        fell.discard(r)
        if changed is not None:
            changed |= fell
    else:
        if changed is not None:
            changed |= adj[s]  # and u, which the fold deletes
            changed.add(r)
        fell = g.fold(u, s, r)
        fell.add(r)
        trace.append((u, s, r))
    return fell


def reduce_low_degree_by_rules(g: Graph, trace: list, changed: set[int] | None = None) -> None:
    """Reference for ``reductions.reduce_low_degree``: the same rules in the
    same order, one graph method call per deletion and per rule. A vertex
    whose degree fell to 2 or less waits in a heap, an isolated one too, and
    the lowest-id queued vertex of degree <= 2 fires next."""
    adj = g.adjacency()
    if changed is None:
        todo = [v for v, nbrs in adj.items() if len(nbrs) <= 2]
    else:
        todo = [v for v in changed if v in adj and len(adj[v]) <= 2]
    heapq.heapify(todo)
    while todo:
        v = heapq.heappop(todo)
        nbrs = adj.get(v)
        if nbrs is None or len(nbrs) > 2:
            continue
        if not nbrs:
            g.remove_vertex(v)
            continue
        if len(nbrs) == 1:
            (w,) = nbrs
            trace.append(w)
            fell = g.remove_vertex(w)
            if changed is not None:
                changed |= fell
        else:
            fell = fold_degree2(g, v, trace, changed)
        for x in fell:
            if len(adj[x]) <= 2:
                heapq.heappush(todo, x)
