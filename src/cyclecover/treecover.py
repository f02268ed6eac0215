"""Linear-time minimum vertex cover for forests."""

from __future__ import annotations

import heapq

from .graph import Graph


def min_vc_forest(g: Graph) -> tuple[int, set[int]]:
    """Greedy leaf stripping: the neighbor of a leaf always lies in some
    minimum cover, so take it, discard the covered star, repeat.

    Leaves are consumed in ascending id order, which fixes the certificate.
    Isolated vertices never enter the cover. Every step is the safe leaf rule,
    so a run that strips every edge returns a minimum cover, even of a graph
    whose cycles a taken vertex broke; raises ValueError when a cycle
    survives stripping.
    """
    adj = {v: set(g.neighbors(v)) for v in g.vertices()}
    heap = [v for v, nbrs in adj.items() if len(nbrs) == 1]
    heapq.heapify(heap)
    cover: set[int] = set()
    while heap:
        v = heapq.heappop(heap)
        nbrs = adj.get(v)
        if nbrs is None or len(nbrs) != 1:
            continue
        w = next(iter(nbrs))
        cover.add(w)
        for x in adj[w]:
            adj[x].discard(w)
            if len(adj[x]) == 1:
                heapq.heappush(heap, x)
        del adj[w]
    if any(adj.values()):
        raise ValueError("min_vc_forest needs an acyclic graph: a cycle survived leaf stripping")
    return len(cover), cover
