"""Parameter-preserving reductions with a replayable trace.

Every rule mutates the graph, appends trace entries, and accounts its cover
cost in k_delta: a cover of size s for the reduced graph lifts to a cover of
size s + k_delta for the original. ``reduce_fixpoint`` runs the degree rules
(isolated, degree-1, degree-2 folding in one ``Graph.fold`` call) and includes
unconfined vertices, a rule that covers domination.

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
    """Degree-2 u with non-adjacent neighbors s, r merged into r: r in the
    lifted cover means {s, r}, otherwise u."""
    u: int
    s: int
    r: int


TraceEntry = Union[Include, DeleteIsolated, FoldDeg2]


@dataclass
class ReductionTrace:
    entries: list[TraceEntry] = field(default_factory=list)
    k_delta: int = 0

    def include(self, v: int) -> None:
        self.entries.append(Include(v))
        self.k_delta += 1

    def delete_isolated(self, v: int) -> None:
        self.entries.append(DeleteIsolated(v))

    def fold(self, u: int, s: int, r: int) -> None:
        self.entries.append(FoldDeg2(u, s, r))
        self.k_delta += 1


def lift_cover(trace: ReductionTrace, reduced_cover: Iterable[int]) -> set[int]:
    """Replay the trace backwards, mapping a cover of the reduced graph to a
    cover of the original. The input must cover the reduced graph."""
    cover = set(reduced_cover)
    for entry in reversed(trace.entries):
        if isinstance(entry, Include):
            cover.add(entry.v)
        elif isinstance(entry, FoldDeg2):
            if entry.r in cover:
                cover.add(entry.s)
            else:
                cover.add(entry.u)
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
        trace.fold(u, s, r)
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
