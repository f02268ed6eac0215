"""Parameter-preserving reductions with a replayable trace.

Every rule mutates the graph, appends trace entries, and accounts its cover
cost in k_delta: a cover of size s for the reduced graph lifts to a cover of
size s + k_delta for the original. ``reduce_fixpoint`` runs the degree rules
(isolated, degree-1, degree-2 folding in one ``Graph.fold`` call) and includes
unconfined vertices, a rule that covers domination. The struction is a library
rule that the search does not run; ``lift_cover`` still undoes it.

Trace entries are slotted, mutable dataclasses rather than frozen ones: a
frozen ``__init__`` pays one ``object.__setattr__`` per field, and the degree
rules create an entry at every firing. They still compare by value.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Union

from .graph import Graph


@dataclass(slots=True)
class Include:
    """v goes into the cover; its edges are covered and v is deleted."""
    v: int

@dataclass(slots=True)
class DeleteIsolated:
    v: int

@dataclass(slots=True)
class FoldDeg2:
    """Degree-2 u with non-adjacent neighbors s, r merged into kept (= r):
    kept in the lifted cover means {s, r}, otherwise u."""
    u: int
    s: int
    r: int
    kept: int

@dataclass(slots=True)
class Struction:
    """Degree-3 center with one edge inside its neighborhood replaced by two
    new vertices, one per non-adjacent neighbor pair."""
    center: int
    neighbors: tuple[int, int, int]
    inside_pair: tuple[int, int]
    created: tuple[tuple[tuple[int, int], int], ...]  # ((pair, new_id), ...)


TraceEntry = Union[Include, DeleteIsolated, FoldDeg2, Struction]


@dataclass
class ReductionTrace:
    entries: list[TraceEntry] = field(default_factory=list)
    k_delta: int = 0

    def include(self, v: int) -> None:
        self.entries.append(Include(v))
        self.k_delta += 1

    def delete_isolated(self, v: int) -> None:
        self.entries.append(DeleteIsolated(v))

    def fold(self, u: int, s: int, r: int, kept: int) -> None:
        self.entries.append(FoldDeg2(u, s, r, kept))
        self.k_delta += 1

    def struction(self, entry: Struction) -> None:
        self.entries.append(entry)
        self.k_delta += 1


def lift_cover(trace: ReductionTrace, reduced_cover: Iterable[int]) -> set[int]:
    """Replay the trace backwards, mapping a cover of the reduced graph to a
    cover of the original. The input must cover the reduced graph."""
    cover = set(reduced_cover)
    for entry in reversed(trace.entries):
        if isinstance(entry, Include):
            cover.add(entry.v)
        elif isinstance(entry, FoldDeg2):
            if entry.kept in cover:
                cover.add(entry.s)
                cover.add(entry.r)
            else:
                cover.add(entry.u)
        elif isinstance(entry, Struction):
            chosen = [(pair, nid) for pair, nid in entry.created if nid in cover]
            for _, nid in chosen:
                cover.discard(nid)
            if len(chosen) == len(entry.created):
                cover.update(entry.neighbors)
            elif len(chosen) == 1:
                pair, _ = chosen[0]
                inside = set(entry.inside_pair)
                cover.add(entry.center)
                cover.update(set(pair) & inside)
            else:
                # the created vertices are mutually adjacent, so a real cover
                # picks at least one of them
                raise ValueError("reduced cover misses every created vertex of a struction")
    return cover


def fold_degree2(g: Graph, u: int, trace: ReductionTrace) -> set[int]:
    """Resolve a degree-2 vertex; returns the live vertices whose degree fell.

    Adjacent neighbors: both join the cover (k_delta += 2). Otherwise the
    triple {s, u, r} contracts into r (k_delta += 1) and the lift decides
    between {s, r} and {u}.
    """
    nbrs = g.neighbors(u)
    if len(nbrs) != 2:
        raise ValueError(f"fold needs a degree-2 vertex, got degree {len(nbrs)}")
    s, r = nbrs
    if s > r:
        s, r = r, s
    if g.has_edge(s, r):
        trace.include(s)
        trace.include(r)
        fell = g.remove_vertex(s)
        fell |= g.remove_vertex(r)
        trace.delete_isolated(u)
        g.remove_vertex(u)
        fell.discard(u)
        fell.discard(r)
    else:
        fell = g.fold(u, s, r)
        fell.add(r)
        trace.fold(u, s, r, r)
    return fell


def reduce_low_degree(
    g: Graph, trace: ReductionTrace, candidates: Iterable[int] | None = None
) -> None:
    """Fixpoint of the isolated, degree-1, and degree-2 rules.

    Ends with every live vertex at degree >= 3 (possibly the empty graph).
    The lowest-id low-degree vertex is handled first for reproducibility.
    Given candidates, the caller vouches that no other vertex starts at
    degree <= 2; ids no longer live are skipped.
    """
    adj = g.adjacency()
    if candidates is None:
        candidates = adj
    heap = [v for v in candidates if v in adj and len(adj[v]) <= 2]
    heapq.heapify(heap)
    # every live vertex of degree <= 2 stays queued, so only a vertex whose
    # degree fell can newly qualify
    heappush, heappop = heapq.heappush, heapq.heappop
    while heap:
        v = heappop(heap)
        nbrs = adj.get(v)
        if nbrs is None or len(nbrs) > 2:
            continue
        if not nbrs:
            trace.delete_isolated(v)
            g.remove_vertex(v)
            continue
        if len(nbrs) == 1:
            # the neighbor of a pendant vertex lies in some minimum cover
            (w,) = nbrs
            trace.include(w)
            fell = g.remove_vertex(w)
        else:
            fell = fold_degree2(g, v, trace)
        for x in fell:
            if len(adj[x]) <= 2:
                heappush(heap, x)


def dominated_vertex(g: Graph, trace: ReductionTrace) -> bool:
    """Include one vertex u whose closed neighborhood swallows an adjacent
    vertex v's: u is the only neighbor of v outside N(u). Lowest dominator
    id first. Returns whether a rule fired. ``reduce_fixpoint`` finds every
    dominator as an unconfined vertex."""
    adj = g.adjacency()
    u = next((u for u in sorted(adj) if any(len(adj[v] - adj[u]) == 1 for v in adj[u])), None)
    if u is None:
        return False
    trace.include(u)
    g.remove_vertex(u)
    return True


def struction(g: Graph, u: int, trace: ReductionTrace) -> bool:
    """Rewire a degree-3 vertex whose neighborhood holds exactly one edge.

    The closed neighborhood {u, a, b, c} is replaced by one new vertex per
    non-adjacent neighbor pair; the new vertices are adjacent to each other and
    to the outside neighbors of their pair's members. Costs 1 cover vertex.
    Returns False without touching the graph when the shape does not match.
    """
    if not g.has_vertex(u) or g.degree(u) != 3:
        return False
    a, b, c = sorted(g.neighbors(u))
    inside = [(x, y) for x, y in ((a, b), (a, c), (b, c)) if g.has_edge(x, y)]
    if len(inside) != 1:
        return False
    closed = {u, a, b, c}
    anti = [(x, y) for x, y in ((a, b), (a, c), (b, c)) if not g.has_edge(x, y)]
    outside = {w: set(g.neighbors(w)) - closed for w in (a, b, c)}
    for w in closed:
        g.remove_vertex(w)
    created = []
    for pair in anti:
        nid = g.add_vertex()
        created.append((pair, nid))
    for i in range(len(created)):
        for j in range(i + 1, len(created)):
            g.add_edge(created[i][1], created[j][1])
    for (x, y), nid in created:
        for w in sorted(outside[x] | outside[y]):
            g.add_edge(nid, w)
    trace.struction(
        Struction(center=u, neighbors=(a, b, c), inside_pair=inside[0], created=tuple(created))
    )
    return True


def reduce_fixpoint(g: Graph, trace: ReductionTrace) -> None:
    """Run the degree rules and the unconfined-vertex rule until neither
    applies.

    The degree rules fire exactly as repeated full scans would fire them,
    lowest id first, but only vertices that may newly match a rule are
    examined: for the degree rules those whose neighborhood changed, for the
    unconfined-vertex rule those and their neighbors. A ``g.touched`` set
    vouches that g left this function when the set began, so only its
    members count as changed; None means all do. Whether a vertex is
    unconfined depends on more than its neighbors, so a change can also free
    a vertex the local scan does not re-examine; missing it costs search
    nodes, never correctness. Always leaves ``g.touched`` empty.
    """
    adj = g.adjacency()
    changed = g.touched  # None: every vertex may match a rule
    unchecked: set[int] = set()  # unconfined-rule candidates not yet examined
    while True:
        g.touched = None if changed is None else set()
        reduce_low_degree(g, trace, changed)
        if changed is None:
            unchecked = set(adj)
        else:
            changed |= g.touched
            for x in changed:
                nbrs = adj.get(x)
                if nbrs is not None:
                    unchecked.add(x)
                    unchecked |= nbrs
        g.touched = set()
        v = _first_unconfined(adj, unchecked)
        if v is None:
            return
        trace.include(v)
        g.remove_vertex(v)
        changed = g.touched


def _first_unconfined(adj: dict[int, set[int]], unchecked: set[int]) -> int | None:
    """Lowest-id unconfined vertex among unchecked; the ids examined leave
    the set."""
    order = sorted(unchecked)
    for i, v in enumerate(order):
        if v in adj and _unconfined(adj, v):
            unchecked.difference_update(order[: i + 1])
            return v
    unchecked.clear()
    return None


def _unconfined(adj: dict[int, set[int]], v: int) -> bool:
    """Is v unconfined (Xiao & Nagamochi, TCS 2013)? If so, some minimum
    cover contains v.

    S starts as {v} and stays independent. Of the u in N(S) with exactly one
    neighbor in S, take the one with the fewest neighbors outside N[S],
    lowest id first: none outside means v is unconfined, one (w) joins S,
    more, or no such u, means v is confined. At |S| = 1 this is the
    domination test; there, and at every later step, a u of degree 3 or more
    with no neighbor in N(S) has too many outside, which the disjointness
    test settles without building a set.
    """
    s = None  # S = {v} until the walk extends it, built only then
    ns = once = adj[v]  # N(S), and its vertices with one neighbor in S
    while True:
        u = None
        for x in once:
            nx = adj[x]
            if len(nx) > 2 and nx.isdisjoint(ns):
                continue
            out = nx - ns  # x's neighbor in S, and those outside N[S]
            if len(out) == 1:
                return True
            if len(out) == 2 and (u is None or x < u):
                u, rest = x, out
        if u is None:
            return False
        s = s or {v}
        a, b = rest
        w = b if a in s else a
        s.add(w)
        nw = adj[w]
        once = once - nw
        once |= nw - ns
        ns = ns | nw
