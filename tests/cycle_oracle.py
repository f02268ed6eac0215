"""Real-cycle oracle: exhaustive simple-cycle enumeration and the longest
ordering of cycles in which each one brings an edge no earlier one used.

Only the tests call it; it checks ``tau`` and the circuit rank on small
graphs, independently of the solver's structure code.
"""

from __future__ import annotations

from dataclasses import dataclass

from cyclecover.errors import ResourceLimitError
from cyclecover.graph import Graph

CYCLE_ENUM_LIMIT = 100_000


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
