"""Half-integral LP kernelization.

The vertex cover LP relaxation always has a half-integral optimum. It is found
combinatorially: duplicate every vertex into a left and a right copy, connect
u_left with v_right for every edge {u, v}, take a maximum matching of that
bipartite double cover, and read a minimum bipartite cover off it. A vertex
whose two copies are both covered gets LP value 1, neither copy 0, one copy
1/2. Value-1 vertices belong to some minimum cover, value-0 vertices to none,
and the halves induce the kernel, which has at most 2k vertices or the answer
is NO.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graph import Graph
from .reductions import ReductionTrace


@dataclass(frozen=True)
class NTPartition:
    ones: frozenset[int]
    zeros: frozenset[int]
    halves: frozenset[int]


@dataclass
class KernelResult:
    kernel: Graph
    k_residual: int
    partition: NTPartition
    trace: ReductionTrace
    feasible: bool
    lp_times_two: int

    @property
    def lp_value(self) -> float:
        return self.lp_times_two / 2


def _double_cover_matching(g: Graph) -> tuple[int, dict[int, int | None], dict[int, int | None]]:
    """Hopcroft-Karp maximum matching of the bipartite double cover.

    Returns (matching size, left pairing, right pairing); both sides are keyed
    by original vertex ids. Deterministic via sorted adjacency.
    """
    order = sorted(g.vertices())
    nbrs = {v: sorted(g.neighbors(v)) for v in order}
    pair_l: dict[int, int | None] = {v: None for v in order}
    pair_r: dict[int, int | None] = {v: None for v in order}
    INF = float("inf")
    dist: dict[int, float] = {}

    def bfs() -> bool:
        queue: deque[int] = deque()
        for u in order:
            if pair_l[u] is None:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INF
        found = False
        while queue:
            u = queue.popleft()
            for w in nbrs[u]:
                mate = pair_r[w]
                if mate is None:
                    found = True
                elif dist[mate] == INF:
                    dist[mate] = dist[u] + 1
                    queue.append(mate)
        return found

    def augment(root: int) -> bool:
        """Augment from a free left vertex along the BFS layers, depth first.

        Neighbors are tried in sorted order, as the textbook recursive search
        tries them, so the matching is the same; deeper vertices go on an
        explicit stack, so path length is not bounded by the recursion limit.
        """
        for w in nbrs[root]:
            mate = pair_r[w]
            if mate is None:
                pair_l[root] = w
                pair_r[w] = root
                return True
            if dist[mate] != dist[root] + 1:
                continue
            path = [root, mate]  # each vertex is matched to the right vertex its parent tried
            pending = [iter(nbrs[mate])]
            while pending:
                u = path[-1]
                for x in pending[-1]:
                    mate = pair_r[x]
                    if mate is None:
                        # flip: every path vertex takes the right vertex its child held
                        for y in reversed(path):
                            pair_l[y], x = x, pair_l[y]
                            pair_r[pair_l[y]] = y
                        return True
                    if dist[mate] == dist[u] + 1:
                        path.append(mate)
                        pending.append(iter(nbrs[mate]))
                        break
                else:
                    dist[u] = INF
                    path.pop()
                    pending.pop()
        dist[root] = INF
        return False

    matching = 0
    while bfs():
        for u in order:
            if pair_l[u] is None and augment(u):
                matching += 1
    return matching, pair_l, pair_r


def _half_integral_partition(g: Graph) -> tuple[NTPartition, int]:
    matching, pair_l, pair_r = _double_cover_matching(g)
    # Koenig: from the free left vertices, alternate non-matching then
    # matching edges; the bipartite cover is (L minus reached) + reached rights.
    z_left: set[int] = {u for u in g.vertices() if pair_l[u] is None}
    z_right: set[int] = set()
    queue = deque(sorted(z_left))
    while queue:
        u = queue.popleft()
        for w in g.neighbors(u):
            if w not in z_right and pair_l[u] != w:
                z_right.add(w)
                mate = pair_r[w]
                if mate is not None and mate not in z_left:
                    z_left.add(mate)
                    queue.append(mate)
    cover_left = {v for v in g.vertices() if v not in z_left}
    cover_right = z_right
    ones = frozenset(cover_left & cover_right)
    zeros = frozenset(v for v in g.vertices() if v not in cover_left and v not in cover_right)
    halves = frozenset(v for v in g.vertices() if v not in ones and v not in zeros)
    if len(cover_left) + len(cover_right) != matching:
        raise AssertionError("bipartite cover size disagrees with the matching")
    return NTPartition(ones=ones, zeros=zeros, halves=halves), matching


def lp_lower_bound(g: Graph) -> int:
    """ceil of the LP optimum; every cover is at least this large."""
    matching, _, _ = _double_cover_matching(g)
    return (matching + 1) // 2


def nt_kernelize(g: Graph, k: int, trace: ReductionTrace | None = None) -> KernelResult:
    """Shrink g in place to the kernel induced by the LP halves.

    Value-1 vertices are included via the trace (k_residual = k - #ones),
    value-0 vertices become isolated once the ones are gone and are deleted.
    When the LP value already exceeds k the result is an authoritative NO and
    the graph is left untouched.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if trace is None:
        trace = ReductionTrace()
    partition, matching = _half_integral_partition(g)
    k_residual = k - len(partition.ones)
    feasible = k_residual >= 0 and len(partition.halves) <= 2 * k_residual
    if not feasible:
        return KernelResult(
            kernel=g, k_residual=k_residual, partition=partition, trace=trace,
            feasible=False, lp_times_two=matching,
        )
    for v in sorted(partition.ones):
        trace.include(v)
        g.remove_vertex(v)
    for v in sorted(partition.zeros):
        if g.degree(v) != 0:
            raise AssertionError(f"LP-zero vertex {v} still has a neighbor")
        trace.delete_isolated(v)
        g.remove_vertex(v)
    return KernelResult(
        kernel=g, k_residual=k_residual, partition=partition, trace=trace,
        feasible=True, lp_times_two=matching,
    )
