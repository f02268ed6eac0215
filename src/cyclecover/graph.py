"""Mutable undirected simple graph with stable, never-reused vertex ids."""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator

VertexId = int


class Graph:
    """Adjacency-set graph: no self-loops, no parallel edges.

    Ids are arbitrary non-negative ints and need not be contiguous. Once an id
    has been used it is retired forever on deletion; fresh ids from
    ``add_vertex()`` are strictly larger than any id ever seen, so traces and
    certificates can refer to deleted vertices without ambiguity.

    ``touched`` is None, or a set to which every mutation adds the vertices
    whose neighborhood it changed; a new vertex counts as changed, a
    ``fold`` marks what deleting u and moving s's edges onto r would, and
    ids deleted later stay in the set. A set vouches that the graph had just
    left ``reduce_fixpoint`` when the set began, so that only the marked
    vertices and their neighbors need another look: no vertex had degree
    below 3, and none was unconfined where the rule's local scan looks. An
    unconfined vertex farther from the changes may remain, so the marks
    promise less than a full rescan would. None, as on a new graph, vouches
    nothing. ``reduce_fixpoint`` leaves it empty, copies carry it, and an
    induced subgraph keeps the marks of its vertices and marks each one that
    lost a neighbor.
    """

    __slots__ = ("_adj", "_m", "_next_id", "_retired", "touched")

    def __init__(self) -> None:
        self._adj: dict[int, set[int]] = {}
        self._m = 0
        self._next_id = 0
        self._retired: set[int] = set()
        self.touched: set[int] | None = None

    @classmethod
    def from_edges(cls, edges: Iterable[Iterable[int]], vertices: Iterable[int] = ()) -> "Graph":
        """Build a graph from unordered id pairs; duplicates dedup silently."""
        g = cls()
        for v in vertices:
            if not g.has_vertex(v):
                g.add_vertex(v)
        for pair in edges:
            u, v = pair
            g.add_edge(u, v)
        return g

    # mutation

    def add_vertex(self, v: int | None = None) -> int:
        if v is None:
            v = self._next_id
        if v < 0:
            raise ValueError(f"vertex id must be non-negative, got {v}")
        if v in self._adj:
            raise ValueError(f"vertex {v} is already present")
        if v in self._retired:
            raise ValueError(f"vertex id {v} was deleted and may not be reused")
        self._adj[v] = set()
        self._next_id = max(self._next_id, v + 1)
        if self.touched is not None:
            self.touched.add(v)
        return v

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError(f"self-loop at vertex {u} is not allowed")
        for x in (u, v):
            if x not in self._adj:
                self.add_vertex(x)
        if v not in self._adj[u]:
            self._adj[u].add(v)
            self._adj[v].add(u)
            self._m += 1
            if self.touched is not None:
                self.touched.update((u, v))

    def remove_edge(self, u: int, v: int) -> None:
        if v not in self._adj.get(u, ()):
            raise ValueError(f"edge {{{u}, {v}}} is not present")
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._m -= 1
        if self.touched is not None:
            self.touched.update((u, v))

    def remove_vertex(self, v: int) -> set[int]:
        """Delete v with its edges; returns its former neighbor set."""
        nbrs = self._require(v)
        for w in nbrs:
            self._adj[w].discard(v)
        self._m -= len(nbrs)
        del self._adj[v]
        self._retired.add(v)
        if self.touched is not None:
            self.touched.update(nbrs)
        return nbrs

    def fold(self, u: int, s: int, r: int) -> set[int]:
        """Delete the degree-2 vertex u and merge its neighbor s into its
        other neighbor r, which must not be adjacent to s.

        Parallel edges collapse. Returns the common neighbors of s and r, the
        vertices whose degree fell. ``touched`` gains r and s's neighbors but
        u, as deleting u and moving s's edges onto r one by one would.
        """
        adj = self._adj
        absorbed = adj.get(s)
        if s == r or adj.get(u) != {s, r} or r in absorbed:
            raise ValueError(f"fold needs a degree-2 vertex {u} with non-adjacent neighbors {s}, {r}")
        del adj[u], adj[s]
        self._retired.update((u, s))
        absorbed.discard(u)
        kept = adj[r]
        kept.discard(u)
        common = absorbed & kept
        for w in absorbed:
            moved = adj[w]
            moved.discard(s)
            moved.add(r)
        kept |= absorbed
        self._m -= 2 + len(common)
        if self.touched is not None:
            self.touched |= absorbed
            self.touched.add(r)
        return common

    # queries

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj.get(u, ())

    def degree(self, v: int) -> int:
        try:
            return len(self._adj[v])
        except KeyError:
            return len(self._require(v))  # raises for a dead id

    def adjacency(self) -> dict[int, set[int]]:
        """Live vertex -> neighbor set. Read-only, like ``neighbors``; for
        hot loops that would otherwise pay a method call per lookup."""
        return self._adj

    def neighbors(self, v: int) -> set[int]:
        """Live neighbor set. Treat as read-only; mutate via graph methods."""
        try:
            return self._adj[v]
        except KeyError:
            return self._require(v)  # raises for a dead id

    def closed_neighborhood(self, v: int) -> set[int]:
        return self._require(v) | {v}

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
        return self._m

    def connected_components(self) -> list[list[int]]:
        """Components as sorted id lists, ordered by smallest member."""
        seen: set[int] = set()
        comps: list[list[int]] = []
        for s in sorted(self._adj):
            if s in seen:
                continue
            comp = [s]
            seen.add(s)
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for w in self._adj[u]:
                    if w not in seen:
                        seen.add(w)
                        comp.append(w)
                        queue.append(w)
            comp.sort()
            comps.append(comp)
        return comps

    def num_components(self) -> int:
        """The number of components, counted without listing them."""
        adj = self._adj
        seen: set[int] = set()
        count = 0
        for s in adj:
            if s in seen:
                continue
            count += 1
            seen.add(s)
            stack = [s]
            while stack:
                for w in adj[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) == len(adj):
                break
        return count

    def is_connected(self) -> bool:
        return self.num_components() <= 1

    def is_forest(self) -> bool:
        # acyclic iff m = n - c
        return self._m == len(self._adj) - self.num_components()

    def induced_subgraph(self, keep: Iterable[int]) -> "Graph":
        keep_set = set(keep)
        sub = Graph()
        sub._adj = {v: self._require(v) & keep_set for v in keep_set}
        sub._m = sum(map(len, sub._adj.values())) // 2
        sub._next_id = self._next_id
        if self.touched is not None:
            marks, adj = self.touched, self._adj
            sub.touched = {v for v, ns in sub._adj.items() if v in marks or len(ns) < len(adj[v])}
        return sub

    def clone(self) -> "Graph":
        g = Graph()
        g._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        g._m = self._m
        g._next_id = self._next_id
        g._retired = set(self._retired)
        g.touched = None if self.touched is None else set(self.touched)
        return g

    def edge_set(self) -> frozenset[frozenset[int]]:
        return frozenset(frozenset(e) for e in self.edges())

    def check_invariants(self) -> None:
        """Symmetry and the degree-sum identity; raises AssertionError."""
        total = 0
        for u, nbrs in self._adj.items():
            if u in nbrs:
                raise AssertionError(f"self-loop at {u}")
            for v in nbrs:
                if u not in self._adj.get(v, ()):
                    raise AssertionError(f"asymmetric edge {{{u}, {v}}}")
            total += len(nbrs)
        if total != 2 * self._m:
            raise AssertionError(f"degree sum {total} != 2m = {2 * self._m}")

    def _require(self, v: int) -> set[int]:
        try:
            return self._adj[v]
        except KeyError:
            raise ValueError(f"vertex {v} is not live") from None

    def __repr__(self) -> str:
        return f"Graph(n={len(self._adj)}, m={self._m})"
