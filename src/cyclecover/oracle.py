"""Exhaustive reference implementations, independent of the production solver.

Used by the test suite as ground truth. The minimum-cover routine works on the
complement formulation (a minimum vertex cover is the complement of a maximum
independent set) with a meet-in-the-middle bitmask sweep, so it shares no code
path with the branch-and-reduce engine it validates.
"""

from __future__ import annotations

from typing import Iterable

from .errors import ResourceLimitError
from .graph import Graph

BRUTEFORCE_MAX_VERTICES = 26


def is_vertex_cover(g: Graph, cover: Iterable[int]) -> bool:
    cset = set(cover)
    adj = g.adjacency()
    for v in cset:
        if v not in adj:
            raise ValueError(f"cover vertex {v} is not in the graph")
    return all(v in cset or nbrs <= cset for v, nbrs in adj.items())


def min_vc_bruteforce(g: Graph) -> tuple[int, set[int]]:
    """Exact minimum vertex cover with certificate, for n <= 26.

    Splits the vertex set in half, enumerates independent subsets of one half,
    and finishes the other half with a subset DP for maximum independent sets.
    """
    n = g.num_vertices()
    if n > BRUTEFORCE_MAX_VERTICES:
        raise ResourceLimitError(
            f"brute force accepts at most {BRUTEFORCE_MAX_VERTICES} vertices, got {n}"
        )
    ids = sorted(g.vertices())
    if n == 0:
        return 0, set()
    index = {v: i for i, v in enumerate(ids)}
    adj = [0] * n
    for u, v in g.edges():
        adj[index[u]] |= 1 << index[v]
        adj[index[v]] |= 1 << index[u]

    half = (n + 1) // 2
    a_ids = list(range(half))
    b_ids = list(range(half, n))
    b_off = half
    nb = len(b_ids)

    # DP over subsets of the B half: best[mask] = max independent set size
    # within the allowed mask.
    adj_b = [(adj[b_off + i] >> b_off) for i in range(nb)]
    best = [0] * (1 << nb)
    for mask in range(1, 1 << nb):
        low = (mask & -mask).bit_length() - 1
        skip = best[mask & ~(1 << low)]
        take = 1 + best[mask & ~adj_b[low] & ~(1 << low)]
        best[mask] = max(skip, take)

    def rebuild_b(mask: int) -> int:
        chosen = 0
        while mask:
            low = (mask & -mask).bit_length() - 1
            without = mask & ~(1 << low)
            if best[mask] == best[without]:
                mask = without
            else:
                chosen |= 1 << low
                mask = mask & ~adj_b[low] & ~(1 << low)
        return chosen

    full_b = (1 << nb) - 1
    best_size = -1
    best_a = 0
    best_allowed = 0
    for sa in range(1 << half):
        ok = True
        m = sa
        while m:
            low = (m & -m).bit_length() - 1
            if adj[low] & sa:
                ok = False
                break
            m &= m - 1
        if not ok:
            continue
        blocked = 0
        m = sa
        while m:
            low = (m & -m).bit_length() - 1
            blocked |= adj[low]
            m &= m - 1
        allowed = full_b & ~(blocked >> b_off)
        size = bin(sa).count("1") + best[allowed]
        if size > best_size:
            best_size = size
            best_a = sa
            best_allowed = allowed

    chosen_b = rebuild_b(best_allowed)
    independent = {ids[i] for i in range(half) if best_a >> i & 1}
    independent |= {ids[b_off + i] for i in range(nb) if chosen_b >> i & 1}
    cover = set(ids) - independent
    return len(cover), cover
