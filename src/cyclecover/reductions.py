"""Parameter-preserving reductions with a replayable trace.

Every rule mutates the graph, appends trace entries, and accounts its cover
cost in k_delta: a cover of size s for the reduced graph lifts to a cover of
size s + k_delta for the original (satellite couplings are the one exception,
priced by the search at branch time instead).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Union

from .graph import Graph


@dataclass(frozen=True)
class Include:
    """v goes into the cover; its edges are covered and v is deleted."""
    v: int

@dataclass(frozen=True)
class DeleteIsolated:
    v: int

@dataclass(frozen=True)
class FoldDeg2:
    """Degree-2 u with non-adjacent neighbors s, r merged into kept (= r):
    kept in the lifted cover means {s, r}, otherwise u."""
    u: int
    s: int
    r: int
    kept: int

@dataclass(frozen=True)
class SatelliteCouple:
    """satellite joins the cover exactly when center does. Contributes nothing
    to k_delta; the branch that includes center pays for it."""
    center: int
    satellite: int

@dataclass(frozen=True)
class Struction:
    """Degree-3 center with one edge inside its neighborhood replaced by two
    new vertices, one per non-adjacent neighbor pair."""
    center: int
    neighbors: tuple[int, int, int]
    inside_pair: tuple[int, int]
    created: tuple[tuple[tuple[int, int], int], ...]  # ((pair, new_id), ...)


TraceEntry = Union[Include, DeleteIsolated, FoldDeg2, SatelliteCouple, Struction]


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

    def couple(self, center: int, satellite: int) -> None:
        self.entries.append(SatelliteCouple(center, satellite))

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
        elif isinstance(entry, SatelliteCouple):
            if entry.center in cover:
                cover.add(entry.satellite)
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
    if g.degree(u) != 2:
        raise ValueError(f"fold needs a degree-2 vertex, got degree {g.degree(u)}")
    s, r = sorted(g.neighbors(u))
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
        g.remove_vertex(u)
        fell = g.contract_pair(r, s)
        fell.add(r)
        trace.fold(u=u, s=s, r=r, kept=r)
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
    """Include one vertex whose closed neighborhood swallows an adjacent
    vertex's. Lowest dominator id first. Returns whether a rule fired."""
    u = _first_dominator(g, set(g.vertices()))
    if u is None:
        return False
    trace.include(u)
    g.remove_vertex(u)
    return True


def satellites(g: Graph, u: int) -> set[int]:
    """Vertices z outside N[u], at distance two, with N(z) inside N(u)."""
    base = g.neighbors(u)
    cands: set[int] = set()
    for w in base:
        cands |= g.neighbors(w)
    cands -= base
    cands.discard(u)
    return {z for z in cands if g.neighbors(z) <= base}


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


def reduce_fixpoint(g: Graph, trace: ReductionTrace, use_struction: bool = False) -> None:
    """Run all enabled rules until none applies.

    Rules fire exactly as repeated full scans would fire them, lowest id
    first, but only vertices that may newly match a rule are examined: for
    the degree rules those whose neighborhood changed, for domination those
    and their neighbors. A graph with ``g.touched`` set vouches that it was
    at a fixpoint when tracking began, so only its touched vertices count as
    changed; otherwise every vertex does. The struction scan is always full.
    Leaves ``g.touched`` empty when it was set, None otherwise.
    """
    adj = g.adjacency()
    tracking = g.touched is not None
    changed = g.touched  # None: every vertex may match a rule
    unchecked: set[int] = set()  # domination candidates not yet examined
    try:
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
            u = _first_dominator(g, unchecked)
            if u is not None:
                trace.include(u)
                g.remove_vertex(u)
            elif not (use_struction and _any_struction(g, trace)):
                return
            changed = g.touched
    finally:
        if not tracking:
            g.touched = None


def _first_dominator(g: Graph, unchecked: set[int]) -> int | None:
    """Lowest-id dominator among unchecked; the ids examined leave the set.

    u dominates a neighbor v when N(v) <= N[u]. As u lies in N(v) but not
    in N(u), that holds iff v has no other neighbor or every other neighbor
    of v lies in N(u); the disjointness test settles the common triangle-free
    case without building a set.
    """
    adj = g.adjacency()
    order = sorted(unchecked)
    for i, u in enumerate(order):
        nu = adj.get(u)
        if nu is None:
            continue
        for v in nu:
            nv = adj[v]
            if len(nv) == 1 or (not nv.isdisjoint(nu) and len(nv & nu) == len(nv) - 1):
                unchecked.difference_update(order[: i + 1])
                return u
    unchecked.clear()
    return None


def _any_struction(g: Graph, trace: ReductionTrace) -> bool:
    for u in sorted(g.vertices()):
        if g.degree(u) == 3 and struction(g, u, trace):
            return True
    return False
