"""Exhaustive reference implementations, independent of the production solver.

Used by the test suite as ground truth. The minimum-cover routine works on the
complement formulation (a minimum vertex cover is the complement of a maximum
independent set) with a meet-in-the-middle bitmask sweep, so it shares no code
path with the branch-and-reduce engine it validates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ResourceLimitError
from .graph import Graph

BRUTEFORCE_MAX_VERTICES = 26
CYCLE_ENUM_LIMIT = 100_000


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


def enumerate_simple_cycles(g: Graph, limit: int = CYCLE_ENUM_LIMIT) -> list[tuple[int, ...]]:
    """All simple cycles, one canonical tuple each.

    Canonical form: starts at the cycle's smallest vertex and runs in the
    direction whose second vertex is smaller than its last. Guarded by a count
    limit.
    """
    cycles: list[tuple[int, ...]] = []
    path: list[int] = []
    on_path: set[int] = set()

    def extend(start: int, u: int) -> None:
        for w in sorted(g.neighbors(u)):
            if w == start and len(path) >= 3:
                if path[1] < path[-1]:
                    cycles.append(tuple(path))
                    if len(cycles) > limit:
                        raise ResourceLimitError(f"more than {limit} simple cycles")
            elif w > start and w not in on_path:
                path.append(w)
                on_path.add(w)
                extend(start, w)
                path.pop()
                on_path.remove(w)

    for s in sorted(g.vertices()):
        path = [s]
        on_path = {s}
        extend(s, s)
    return cycles


def cycle_edges(cycle: tuple[int, ...]) -> frozenset[frozenset[int]]:
    return frozenset(
        frozenset((cycle[i], cycle[(i + 1) % len(cycle)])) for i in range(len(cycle))
    )


@dataclass
class CycleList:
    """Witness ordering: cycles[i] for i > 0 carries fresh_edges[i], an edge on
    it that no earlier cycle uses. fresh_edges[0] is just any first edge."""

    cycles: list[tuple[int, ...]]
    fresh_edges: list[tuple[int, int]]


def is_valid_cycle_order(g: Graph, witness: CycleList) -> bool:
    known = {c: cycle_edges(c) for c in enumerate_simple_cycles(g)}
    seen_edges: set[frozenset[int]] = set()
    seen_cycles: set[tuple[int, ...]] = set()
    for i, cyc in enumerate(witness.cycles):
        if cyc not in known or cyc in seen_cycles:
            return False
        fresh = frozenset(witness.fresh_edges[i])
        if fresh not in known[cyc]:
            return False
        if i > 0 and fresh in seen_edges:
            return False
        seen_cycles.add(cyc)
        seen_edges |= known[cyc]
    return True


def max_real_cycle_bruteforce(
    g: Graph, max_cycles: int = 40, max_states: int = 200_000
) -> tuple[int, CycleList]:
    """Longest ordering of simple cycles in which every cycle after the first
    contributes an edge unseen so far. Backtracking over orderings, memoized on
    the set of edges covered (the only state the freshness rule depends on)."""
    cycles = enumerate_simple_cycles(g)
    if len(cycles) > max_cycles:
        raise ResourceLimitError(f"{len(cycles)} simple cycles exceeds the guard {max_cycles}")
    edge_sets = [cycle_edges(c) for c in cycles]
    memo: dict[frozenset[frozenset[int]], tuple[int, int]] = {}

    def search(covered: frozenset[frozenset[int]]) -> tuple[int, int]:
        hit = memo.get(covered)
        if hit is not None:
            return hit
        if len(memo) > max_states:
            raise ResourceLimitError(f"ordering search exceeded {max_states} states")
        result = (0, -1)
        for i, es in enumerate(edge_sets):
            if es <= covered:
                continue
            count, _ = search(covered | es)
            if count + 1 > result[0]:
                result = (count + 1, i)
        memo[covered] = result
        return result

    total, _ = search(frozenset())
    ordered: list[tuple[int, ...]] = []
    fresh: list[tuple[int, int]] = []
    covered: frozenset[frozenset[int]] = frozenset()
    while True:
        _, choice = memo[covered]
        if choice < 0:
            break
        es = edge_sets[choice]
        first_fresh = min(es - covered, key=lambda e: tuple(sorted(e)))
        ordered.append(cycles[choice])
        fresh.append(tuple(sorted(first_fresh)))  # type: ignore[arg-type]
        covered = covered | es
    return total, CycleList(cycles=ordered, fresh_edges=fresh)
