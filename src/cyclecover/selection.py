"""Branch-vertex selection for graphs of minimum degree 3.

The dispatch is a greedy heuristic: take the highest-degree vertex, and among
degree-4 candidates prefer one with coupled satellites, otherwise maximize a
conservative estimate of how much cycle structure each branch destroys. The
estimate components are lower bounds on the tau drop only for children that
stay connected (and, on the exclude side, only while the neighborhood stays
sparse); correctness never depends on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .graph import Graph
from .reductions import satellites


class RuleTag(Enum):
    HIGH_DEGREE = "high_degree_ge5"
    DEGREE4 = "degree4"
    DEGREE3_REGULAR = "degree3_regular"


@dataclass(frozen=True)
class BranchPlan:
    vertex: int
    satellites: frozenset[int]
    rule_tag: RuleTag
    est_vector: tuple[int, int]


def estimate_vector(g: Graph, v: int) -> tuple[int, int]:
    """(include, exclude) estimates of the tau drop.

    Include: removing v costs its degree minus one circuit-rank units.
    Exclude: removing N[v] costs at least the neighbors' degree sum minus
    2 deg(v) minus 1, clamped at zero.
    """
    d = g.degree(v)
    if d < 3:
        raise ValueError(f"estimate needs degree >= 3, got {d}")
    neighbor_sum = sum(g.degree(w) for w in g.neighbors(v))
    include = d - 1
    exclude = max(0, neighbor_sum - 2 * d + 1)
    return include, exclude


def coupled_satellites(g: Graph, v: int) -> frozenset[int]:
    """Satellites safe for coupled branching.

    Coupling z with v is justified by an exchange argument that needs at least
    one excluded neighbor of v inside N(z), which holds whenever
    deg(z) >= deg(v) - 1. Lower-degree satellites are left uncoupled.
    """
    d = g.degree(v)
    return frozenset(z for z in satellites(g, v) if g.degree(z) >= d - 1)


def shortest_cycle_through(g: Graph, v: int, stop: int | None = None) -> int:
    """Length of the shortest cycle containing v; n + 1 when v lies on none.

    One BFS from v labels every vertex with the neighbor of v it hangs from.
    An edge between differently labelled x and y closes a cycle through v of
    length d(x) + d(y) + 1, and the shortest such cycle has one. Every cycle
    still unseen when the BFS starts on depth d is at least 2d + 1 long, so
    with stop the BFS ends once none can be shorter than stop, and the result
    is min(length, stop).
    """
    best = g.num_vertices() + 1
    if stop is not None and stop < best:
        best = stop
    seen = {w: (1, w) for w in g.neighbors(v)}  # vertex -> (depth, label)
    frontier = list(seen)
    depth = 1
    while frontier and 2 * depth + 1 < best:
        nxt = []
        for x in frontier:
            label = seen[x][1]
            for y in g.neighbors(x):
                hit = seen.get(y)
                if hit is None:
                    if y != v:
                        seen[y] = (depth + 1, label)
                        nxt.append(y)
                elif hit[1] != label and depth + hit[0] + 1 < best:
                    best = depth + hit[0] + 1
        frontier = nxt
        depth += 1
    return best


def select(g: Graph) -> BranchPlan:
    """Pick the branch vertex for a reduced graph (minimum degree >= 3)."""
    if g.num_vertices() == 0:
        raise ValueError("cannot select from an empty graph")
    if g.min_degree() < 3:
        raise ValueError("selection expects minimum degree >= 3; reduce first")
    maxdeg = g.max_degree()
    if maxdeg >= 5:
        v = min(u for u in g.vertices() if g.degree(u) == maxdeg)
        return BranchPlan(
            vertex=v,
            satellites=coupled_satellites(g, v),
            rule_tag=RuleTag.HIGH_DEGREE,
            est_vector=estimate_vector(g, v),
        )
    if maxdeg == 4:
        cands = [u for u in sorted(g.vertices()) if g.degree(u) == 4]
        sats = {u: coupled_satellites(g, u) for u in cands}
        pool = [u for u in cands if sats[u]] or cands
        v = max(pool, key=lambda u: (estimate_vector(g, u)[1], -u))
        return BranchPlan(
            vertex=v,
            satellites=sats[v],
            rule_tag=RuleTag.DEGREE4,
            est_vector=estimate_vector(g, v),
        )
    # 3-regular: the exclude estimate ties, so bias toward short cycles; the
    # lowest id wins ties, so a later vertex must lie on a strictly shorter one
    v, shortest = -1, g.num_vertices() + 2
    for u in sorted(g.vertices()):
        length = shortest_cycle_through(g, u, stop=shortest)
        if length < shortest:
            v, shortest = u, length
    return BranchPlan(
        vertex=v,
        satellites=coupled_satellites(g, v),
        rule_tag=RuleTag.DEGREE3_REGULAR,
        est_vector=estimate_vector(g, v),
    )
