"""Parameter-preserving reductions with a replayable trace.

A trace is a plain list of entries in firing order. Every rule mutates the
graph and appends one entry for each vertex the lift will add to the cover:
a cover of size s for the reduced graph lifts to a cover of size
s + len(trace) for the original. Deleting an isolated vertex costs nothing
and leaves no entry. ``reduce_fixpoint`` runs the degree rules (isolated,
degree-1, degree-2 folding in one ``Graph.fold`` call) and includes
unconfined vertices, a rule that covers domination.

Entries are plain values: a vertex that joins the cover is its int id, and
a degree-2 fold is the tuple (u, s, r). The degree rules write one at most
firings, so an entry costs no constructor call, and ints and tuples still
compare by value.
"""

from __future__ import annotations

import heapq
from typing import Iterable

from .graph import Graph

# The rules' decisions in firing order. Each entry puts exactly one vertex in
# the lifted cover, so the cost of the reductions is the trace's length: an
# id v is in the cover, and a fold (u, s, r), which merged u's non-adjacent
# neighbors s and r into r, means {s, r} if r is in the cover, otherwise u.
ReductionTrace = list[int | tuple[int, int, int]]


def lift_cover(trace: ReductionTrace, reduced_cover: Iterable[int]) -> set[int]:
    """Replay the trace backwards, mapping a cover of the reduced graph to a
    cover of the original with len(trace) more vertices. The input must
    cover the reduced graph."""
    cover = set(reduced_cover)
    for entry in reversed(trace):
        if type(entry) is int:
            cover.add(entry)
        else:
            u, s, r = entry
            cover.add(s if r in cover else u)
    return cover


def reduce_low_degree(g: Graph, trace: ReductionTrace, changed: set[int] | None = None) -> None:
    """Fixpoint of the isolated, degree-1, and degree-2 rules.

    Ends with every live vertex at degree >= 3 (possibly the empty graph).
    The lowest-id low-degree vertex is handled first for reproducibility.
    None examines every vertex. Given a changed set, the caller vouches that
    no vertex outside it starts at degree <= 2; ids no longer live are
    skipped, and the rules add to it every live vertex whose neighborhood
    they change.

    A pendant vertex's neighbor joins the cover. So do both neighbors of a
    degree-2 vertex u if they are adjacent, and u goes for free; otherwise
    ``Graph.fold`` merges them and the lift decides. A vertex that joins the
    cover is deleted here, through ``g.adjacency()``, as ``remove_vertex``
    would delete it: each neighbor discards it, one member at a time, and
    is queued if that leaves it at degree 1 or 2, or deleted on the spot at
    degree 0.
    """
    adj = g.adjacency()
    if changed is None:
        todo = [v for v, nbrs in adj.items() if len(nbrs) <= 2]
    else:
        todo = [v for v in changed if v in adj and len(adj[v]) <= 2]
    # every live vertex of degree <= 2 stays queued, so only a vertex whose
    # degree fell can newly qualify. The first ones wait in a list sorted
    # downwards, the others in a heap, and the lower of the two heads goes
    # next: a pop from the list's end is cheaper than one from a large heap
    todo.sort(reverse=True)
    heap: list[int] = []
    heappush, heappop, next_todo = heapq.heappush, heapq.heappop, todo.pop
    append, fold = trace.append, g.fold
    while True:
        if heap and (not todo or heap[0] < todo[-1]):
            v = heappop(heap)
        elif todo:
            v = next_todo()
        else:
            return
        nbrs = adj.get(v)
        if nbrs is None or len(nbrs) > 2:
            continue
        if not nbrs:
            del adj[v]
            continue
        if len(nbrs) == 1:
            taken = tuple(nbrs)  # in some minimum cover
        else:
            s, r = nbrs
            if s > r:
                s, r = r, s
            if r in adj[s]:
                taken = (s, r)  # v is left isolated and goes for free
            else:
                append((v, s, r))
                if changed is not None:
                    changed |= adj[s]  # and v, which the fold deletes
                    changed.add(r)
                fell = fold(v, s, r)
                fell.add(r)
                for x in fell:
                    if len(adj[x]) <= 2:
                        heappush(heap, x)
                continue
        for w in taken:
            append(w)
            nw = adj.pop(w)
            if changed is not None:
                changed |= nw
            for x in nw:
                nx = adj[x]
                nx.discard(w)
                if len(nx) <= 2:
                    if nx:
                        heappush(heap, x)
                    else:
                        del adj[x]


def reduce_fixpoint(g: Graph, trace: ReductionTrace, changed: set[int] | None = None) -> None:
    """Run the degree rules and the unconfined-vertex rule until neither
    applies.

    The degree rules fire exactly as repeated full scans would fire them,
    lowest id first, but only vertices that may newly match a rule are
    examined: for the degree rules those whose neighborhood changed, for the
    unconfined-vertex rule those and their neighbors. A changed set vouches
    that g left this function and that every live vertex whose neighborhood
    changed since is in it, so only its members count as changed; None, as
    at the search's root, means all do. Whether a vertex is unconfined
    depends on more than its neighbors, so a change can also free a vertex
    the local scan does not re-examine; missing it costs search nodes, never
    correctness. The set also gains every live vertex whose neighborhood
    the rules change.

    Of those, the unconfined rule examines only the members of the triangle
    index ``g.triangles`` (see ``Graph`` for when it is built), which gives
    the same answers: at minimum degree 3 each neighbor of a vertex v on no
    triangle has two or more neighbors outside N[v], so v is confined. The
    first read comes after the first degree-rule pass.
    """
    adj = g.adjacency()
    fresh = changed  # the changes no scan has looked at yet
    unchecked: set[int] = set()  # unconfined-rule candidates not yet examined
    while True:
        reduce_low_degree(g, trace, fresh)
        if fresh is None:
            unchecked = g.triangles & adj.keys()
        else:
            if changed is not None and fresh is not changed:
                changed |= fresh
            for x in fresh:
                nbrs = adj.get(x)
                if nbrs is not None:
                    unchecked.add(x)
                    unchecked |= nbrs
            unchecked &= g.triangles
        v = _first_unconfined(adj, unchecked)
        if v is None:
            return
        trace.append(v)
        fresh = g.remove_vertex(v)


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
