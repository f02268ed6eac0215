"""Branch-vertex selection for graphs of minimum degree 3.

The dispatch is a greedy heuristic: take the highest-degree vertex. Among
candidates of degree 5 and up take the one with the sparsest neighbourhood,
the smallest sum over its neighbours w of deg(w) + |N(w) & N(v)|, which
counts each edge from N(v) outward once and each edge inside N(v) four
times; on degree-capped graphs it gives smaller trees than the lowest id,
together with the packing bound's second packing (``kernel``). Among
degree-4 candidates prefer one with mirrors, otherwise maximize a
conservative estimate of how much cycle structure the exclude branch
destroys: the neighbors' degree sum minus 2 deg(v) minus 1. That estimate
is a lower bound on the tau drop only for children that stay connected and
only while the neighborhood stays sparse; the test fixture
``checked_branchings`` checks it at every branching, and correctness never
depends on it.

Every plan carries the mirrors of its vertex, which the include branch takes
along with it: some minimum cover holds either N(v) or v and all its mirrors
(Fomin, Grandoni & Kratsch, J. ACM 2009).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import islice

from .graph import Graph


class RuleTag(Enum):
    HIGH_DEGREE = "high_degree_ge5"
    DEGREE4 = "degree4"
    DEGREE3_REGULAR = "degree3_regular"


@dataclass(frozen=True)
class BranchPlan:
    vertex: int
    mirrors: frozenset[int]
    rule_tag: RuleTag


def mirrors(g: Graph, v: int) -> frozenset[int]:
    """Vertices u at distance two from v such that N(v) minus N(u) is a clique.

    A cover that holds v but misses a mirror u holds N(u), so it misses at
    most one vertex w of that clique; trading v for w gives a cover of the
    same size that holds all of N(v). Hence some minimum cover holds either
    N(v) or v with all its mirrors.

    A v outside the triangle index ``g.triangles`` (see ``Graph``) has an
    independent neighborhood, whose cliques have one vertex at most: a
    mirror misses at most one neighbor of v, so it is adjacent to two of any
    three of them (one of any two), and counting the neighbors it shares
    with v decides it.
    """
    adj = g.adjacency()
    nv = adj[v]
    d = len(nv)
    if v not in g.triangles:
        if d < 3:
            cands = set().union(*(adj[w] for w in nv))
        else:
            a, b, c = (adj[w] for w in islice(nv, 3))
            cands = (a & b) | (a & c) | (b & c)
        cands.discard(v)
        return frozenset(u for u in cands if len(adj[u] & nv) >= d - 1)
    inner = {x: len(adj[x] & nv) for x in nv}  # neighbors inside N(v)
    widest = max(inner.values(), default=0) + 1  # no clique in N(v) is larger
    # the vertices of N(v) a mirror misses form a clique, so it is adjacent to
    # at least `need` of N(v), hence to one of any d - need + 1 of them
    need = max(1, d - widest)
    cands: set[int] = set()
    for w in islice(nv, d - need + 1):
        cands |= adj[w]
    cands -= nv
    cands.discard(v)
    found = []
    for u in cands:
        rest = d - len(adj[u] & nv)
        if rest <= 1:
            found.append(u)
        elif rest <= widest:
            missed = nv - adj[u]
            # each member of a clique of `rest` vertices has rest - 1
            # neighbors inside N(v); check that count before the pairs
            if all(inner[x] >= rest - 1 and len(adj[x] & missed) == rest - 1 for x in missed):
                found.append(u)
    return frozenset(found)


def shortest_cycle_through(g: Graph, v: int, stop: int) -> int:
    """min(length, stop), where length is that of the shortest cycle
    containing v, and n + 1 when v lies on none.

    One BFS from v labels every vertex with the neighbor of v it hangs from.
    An edge between differently labelled x and y closes a cycle through v of
    length d(x) + d(y) + 1, and the shortest such cycle has one. Every cycle
    still unseen when the BFS starts on depth d is at least 2d + 1 long, so
    the BFS ends once none can be shorter than stop.
    """
    best = min(g.num_vertices() + 1, stop)
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
    """Pick the branch vertex for a reduced graph (minimum degree >= 3).

    At maximum degree 5 and up: the maximum-degree vertex v with the
    smallest sum over w in N(v) of deg(w) + |N(w) & N(v)|, lowest id on
    ties. At degree 4: the best exclude estimate, preferring a vertex with
    mirrors. On a 3-regular graph: the lowest vertex on a triangle, else
    the one on the shortest cycle."""
    adj = g.adjacency()
    if not adj:
        raise ValueError("cannot select from an empty graph")
    # one pass: check the precondition and collect the highest-degree vertices
    maxdeg, top = 0, []
    for u, nbrs in adj.items():
        d = len(nbrs)
        if d < 3:
            raise ValueError("selection expects minimum degree >= 3; reduce first")
        if d > maxdeg:
            maxdeg, top = d, [u]
        elif d == maxdeg:
            top.append(u)
    if maxdeg >= 5:
        # the sparsest neighbourhood: each neighbour counts its degree and
        # its neighbours inside N(v), lowest id on ties
        v = top[0]
        if len(top) > 1:
            v = min(top, key=lambda u: (sum(len(adj[w]) + len(adj[w] & adj[u]) for w in adj[u]), u))
        return BranchPlan(vertex=v, mirrors=mirrors(g, v), rule_tag=RuleTag.HIGH_DEGREE)
    if maxdeg == 4:
        # best exclude estimate first, lowest id on ties; the first candidate
        # with mirrors wins, and without one the first candidate does. At
        # degree 4 and minimum degree 3 the estimate is the neighbors' degree
        # sum minus 7, never clamped, so the sum orders them alike
        cands = sorted(top, key=lambda u: (-sum(len(adj[w]) for w in adj[u]), u))
        v, found = cands[0], frozenset()
        for u in cands:
            found = mirrors(g, u)
            if found:
                v = u
                break
        return BranchPlan(vertex=v, mirrors=found, rule_tag=RuleTag.DEGREE4)
    # 3-regular: the exclude estimate ties, so bias toward short cycles; the
    # lowest id wins ties, so a later vertex must lie on a strictly shorter one,
    # and the lowest vertex on a triangle, where there is one, wins outright
    for u in sorted(g.triangles):
        if u in adj and g.on_triangle(u):
            return BranchPlan(vertex=u, mirrors=mirrors(g, u), rule_tag=RuleTag.DEGREE3_REGULAR)
    v, shortest = -1, len(adj) + 2
    for u in sorted(top):
        length = shortest_cycle_through(g, u, stop=shortest)
        if length < shortest:
            v, shortest = u, length
    return BranchPlan(vertex=v, mirrors=mirrors(g, v), rule_tag=RuleTag.DEGREE3_REGULAR)
