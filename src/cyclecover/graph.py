"""Mutable undirected simple graph on caller-chosen vertex ids."""

from __future__ import annotations

from typing import Iterable, Iterator

VertexId = int


class Graph:
    """Adjacency-set graph: no self-loops, no parallel edges.

    Ids are arbitrary non-negative ints, chosen by whoever adds a vertex, and
    need not be contiguous. The graph keeps no record of deleted ids. The
    search and the reductions only delete and fold, so every id a trace or a
    certificate names is one of the input's, and never stands for two
    vertices. It keeps no edge count: ``num_edges`` sums the neighbor sets,
    in O(n). Nor does it record which neighborhoods a mutation changed:
    ``remove_vertex`` returns the vertices whose neighborhood it changed,
    and a caller that wants the record, as the search does for
    ``reduce_fixpoint``, collects it. One caller deletes without calling
    ``remove_vertex``: ``reductions.reduce_low_degree`` deletes the vertices
    its rules take through ``adjacency()``, as ``remove_vertex`` does. It
    discards each from its neighbors' sets one member at a time, since a
    bulk difference can rebuild a set and reorder it, and the packing
    follows set order.

    ``triangles`` is the triangle index: a superset of the live vertices
    that lie on a triangle. The first read builds it exactly, and later
    reads return that set. Deletions may leave members that no longer lie
    on a triangle, or are no longer live; ``fold`` adds the vertices of
    every triangle it closes, and ``add_edge`` drops a built index, so the
    next read builds it again. Copies and induced subgraphs carry a built
    index and leave an unbuilt one unbuilt.

    Isolated vertices cost no walk: ``num_components`` counts them in one
    pass, and ``clone_without_isolated`` leaves them out of a copy.
    """

    __slots__ = ("_adj", "_triangles")

    def __init__(self) -> None:
        self._adj: dict[int, set[int]] = {}
        self._triangles: set[int] | None = None

    @classmethod
    def from_edges(cls, edges: Iterable[Iterable[int]], vertices: Iterable[int] = ()) -> "Graph":
        """Build a graph from unordered id pairs; duplicates dedup silently.

        The vertices come first, then the pairs in order, with the checks and
        the set insertions that ``add_vertex`` and ``add_edge`` would make, so
        the graph, down to the iteration order of every neighbor set, is the
        one those calls build; the sets are filled here without a method call
        per pair.
        """
        g = cls()
        adj = g._adj
        for v in vertices:
            if v not in adj:
                if v < 0:
                    g.add_vertex(v)  # raises: ids are non-negative
                adj[v] = set()
        for pair in edges:
            u, v = pair
            if u == v:
                raise ValueError(f"self-loop at vertex {u} is not allowed")
            if u not in adj:
                g.add_vertex(u)
            if v not in adj:
                g.add_vertex(v)
            adj[u].add(v)
            adj[v].add(u)
        return g

    # mutation

    def add_vertex(self, v: int) -> None:
        if v < 0:
            raise ValueError(f"vertex id must be non-negative, got {v}")
        if v in self._adj:
            raise ValueError(f"vertex {v} is already present")
        self._adj[v] = set()

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError(f"self-loop at vertex {u} is not allowed")
        for x in (u, v):
            if x not in self._adj:
                self.add_vertex(x)
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._triangles = None

    def remove_vertex(self, v: int) -> set[int]:
        """Delete v with its edges; returns its former neighbor set, which
        the graph no longer holds, so the caller may keep or change it."""
        nbrs = self._adj.pop(v, None)
        if nbrs is None:
            return self._require(v)  # raises for an id not live
        adj = self._adj
        for w in nbrs:
            adj[w].discard(v)
        return nbrs

    def fold(self, u: int, s: int, r: int) -> set[int]:
        """Delete the degree-2 vertex u and merge its neighbor s into its
        other neighbor r, which must not be adjacent to s.

        Parallel edges collapse. Returns the common neighbors of s and r, the
        vertices whose degree fell. Every triangle the fold closes holds r and
        one of s's neighbors w, and a built triangle index gains its vertices.
        """
        adj = self._adj
        nu = adj.get(u)
        if s == r or nu is None or len(nu) != 2 or s not in nu or r not in nu or r in adj[s]:
            raise ValueError(f"fold needs a degree-2 vertex {u} with non-adjacent neighbors {s}, {r}")
        absorbed = adj.pop(s)
        del adj[u]
        absorbed.discard(u)
        kept = adj[r]
        kept.discard(u)
        common = absorbed & kept
        for w in absorbed:
            moved = adj[w]
            moved.discard(s)
            moved.add(r)
        kept |= absorbed
        tri = self._triangles
        if tri is not None:
            for w in absorbed:
                if not kept.isdisjoint(adj[w]):
                    tri |= adj[w] & kept
                    tri.update((w, r))
        return common

    # queries

    @property
    def triangles(self) -> set[int]:
        """The triangle index, built on first read.

        The build scans every live vertex, so it is put off until a reader
        needs it. In a search that is after the root's first degree peel,
        which on a large sparse input deletes most of the vertices the build
        would scan: on one seed-1 ``sparse-blocks`` graph of the benchmark it
        takes 21,240 vertices to about 1,000. A vertex v with two adjacent
        neighbors w and x marks v, w and every such x, and a marked vertex is
        not tested again: the set is the one an ``on_triangle`` test per
        vertex gives, and every reader uses it by membership, so the order
        the marks make never shows.
        """
        if self._triangles is None:
            adj = self._adj
            tri: set[int] = set()
            for v, nv in adj.items():
                if v not in tri:
                    for w in nv:
                        if not nv.isdisjoint(adj[w]):
                            tri |= nv & adj[w]
                            tri.add(v)
                            tri.add(w)
                            break
            self._triangles = tri
        return self._triangles

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj.get(u, ())

    def degree(self, v: int) -> int:
        try:
            return len(self._adj[v])
        except KeyError:
            return len(self._require(v))  # raises for an id not live

    def adjacency(self) -> dict[int, set[int]]:
        """Live vertex -> neighbor set, for hot loops that would otherwise
        pay a method call per lookup. Read-only, like ``neighbors``, except
        to the degree peel (see the class docstring)."""
        return self._adj

    def on_triangle(self, v: int) -> bool:
        """Do two neighbors of the live vertex v share an edge?"""
        adj = self._adj
        nv = adj[v]
        return any(not nv.isdisjoint(adj[w]) for w in nv)

    def neighbors(self, v: int) -> set[int]:
        """Live neighbor set. Treat as read-only; mutate via graph methods."""
        try:
            return self._adj[v]
        except KeyError:
            return self._require(v)  # raises for an id not live

    def vertices(self) -> Iterator[int]:
        return iter(self._adj)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def num_vertices(self) -> int:
        return len(self._adj)

    def num_edges(self) -> int:
        """Counted from the adjacency, in O(n)."""
        return sum(map(len, self._adj.values())) // 2

    def connected_components(self) -> list[list[int]]:
        """Components as sorted id lists, ordered by smallest member."""
        return sorted(sorted(comp) for comp in self._components())

    def num_components(self) -> int:
        """The number of components, counted without sorting them. The
        isolated vertices are counted in one pass and only the others are
        walked: in a large sparse input many vertices can be isolated (2,583
        of 21,240 on one seed-1 ``sparse-blocks`` graph of the benchmark)."""
        isolated = [*map(len, self._adj.values())].count(0)
        return isolated + sum(1 for _ in self._components(isolated))

    def _components(self, isolated: int = 0) -> Iterator[list[int]]:
        """Each component's vertices in breadth-first order from its first
        vertex in iteration order. The list is the walk's queue, so it
        grows while it is walked; the walk stops once every vertex is seen.
        Told that the graph has isolated vertices, it skips them and stops
        once every other vertex is seen."""
        adj = self._adj
        seen: set[int] = set()
        rest = len(adj) - isolated
        for s in adj:
            if s in seen or (isolated and not adj[s]):
                continue
            seen.add(s)
            comp = [s]
            for u in comp:
                for w in adj[u]:
                    if w not in seen:
                        seen.add(w)
                        comp.append(w)
            yield comp
            if len(seen) == rest:
                return

    def is_connected(self) -> bool:
        """Whether the first component holds every vertex. Only that
        component is walked, so a graph that splits is walked in full once,
        by the ``connected_components`` call that follows."""
        return len(next(self._components(), ())) == len(self._adj)

    def induced_subgraph(self, keep: Iterable[int]) -> "Graph":
        keep_set = set(keep)
        sub = Graph()
        sub._adj = {v: self._require(v) & keep_set for v in keep_set}
        if self._triangles is not None:
            sub._triangles = self._triangles & keep_set
        return sub

    def clone(self) -> "Graph":
        """An independent copy: the same vertices, edges and index.

        A copy does not keep the iteration order of a neighbor set, since a
        set copy re-inserts its members. ``kernel.bound_exceeds``'s greedy
        packing and matching follow that order, so a graph and its copy may
        answer the same check differently; both answers are sound. The
        search stays deterministic because ``_search`` always copies its
        root, with ``clone_without_isolated``, and ``parse_dimacs`` builds
        the sets in edge-line order.
        """
        g = Graph()
        g._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        g._triangles = None if self._triangles is None else set(self._triangles)
        return g

    def clone_without_isolated(self) -> "Graph":
        """``clone`` less the isolated vertices: every other neighbor set is
        copied as ``clone`` copies it, in the same dict order, and a built
        index is carried as ``clone`` carries it. So each set iterates as it
        would in a clone from which the isolated vertices were then deleted.
        """
        g = Graph()
        g._adj = {v: set(nbrs) for v, nbrs in self._adj.items() if nbrs}
        g._triangles = None if self._triangles is None else set(self._triangles)
        return g

    def _require(self, v: int) -> set[int]:
        try:
            return self._adj[v]
        except KeyError:
            raise ValueError(f"vertex {v} is not live") from None

    def __repr__(self) -> str:
        return f"Graph(n={len(self._adj)}, m={self.num_edges()})"
