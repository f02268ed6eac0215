"""Branch-and-reduce decision and minimization engines.

One node procedure serves both entry points. A node reduces to
minimum degree 3 with no unconfined vertex near what its parent deleted
(an unconfined vertex lies in some minimum cover, and dominating vertices
are among them), answers the empty graph (the only forest reductions leave)
with the linear forest solver, prunes when a lower bound exceeds the
budget, splits into components (solved independently to their minima), and
otherwise branches on a selected vertex v (``selection.select``; at degree
5 and up, the one with the sparsest neighbourhood): include v with its
mirrors, or exclude v by taking its whole neighborhood. Some minimum cover
falls in one of the two branches (see ``selection.mirrors``).
Decision mode returns on the first branch that fits the budget; minimization
mode keeps the best and tightens the bound. After reduction, budgets and
covers refer to the reduced graph: a node charges the reductions' cost once
and lifts its cover through the reduction trace once, on the way out.

The LP value of an n-vertex graph is at most n/2 (x = 1/2 everywhere is
feasible). Where the LP bound can at most tie the budget, cap >= n/2, an
odd-cycle packing bound lifts it: (|C| + 1) / 2 vertices of each of t
disjoint odd cycles C, triangles first, plus the LP bound of the rest. It
can prune only with need = 2 * cap - n + 1 cycles packed, and on reduced
cubic-like graphs, whose LP bound is almost always ceil(n/2), it prunes
where the LP bound cannot. One kernel call, ``bound_exceeds``, checks
whichever bound applies and stops once it knows the answer; where the
first packing leaves a vertex next to its cycles that rules the bound out,
it packs once more in reverse vertex order. Every node checks after its
reductions, packing up to need 6; that check is at least as strong as
the Nemhauser-Trotter kernel's infeasibility test before them, so the
search runs no NT kernel. Every branch child also checks before its
reductions, packing up to need 2: every rule keeps
LP(G) <= LP(G') + cost, so a graph the LP check prunes would be pruned
after its reductions too, and the reductions are skipped. Most pruned
leaves end there. The root skips the early check, because reductions
shrink a handed-in graph first, and on a large sparse input the matching
would run to the end only to answer no. A component part skips it too:
its reductions examine nothing, so its late check, on the same graph at
the same cap, would repeat the early answer.

A node pays only for what decides its answer: one connectivity test (component
lists only when the graph splits), one graph copy (the include branch; the
exclude branch consumes the node's graph), and reductions that re-examine only
the vertices around what the branch deleted. Each child is handed, with its
graph, the set of vertices whose neighborhood changed since its parent's
reductions: the union of the neighbor sets ``remove_vertex`` returned for a
branch child, and the empty set for a component child, which is a whole
component of a reduced graph. The root is handed None, so a handed-in graph
is scanned in full once, whatever reduced it before. A node is a generator
that yields the children it needs solved, and ``_search`` runs the nodes on
an explicit stack: no recursion, so the node budget is the search's one
guard, and it raises ResourceLimitError.

Every YES certificate is re-verified before it is returned. Along every
branch the independent-cycle count tau never increases, and deleting a
degree-d vertex from a connected graph with a connected result drops it by
exactly d - 1; the test fixture ``checked_branchings`` checks this at every
branching the test suite runs.
"""

from __future__ import annotations

import math
from collections.abc import Generator
from dataclasses import dataclass

from .errors import ResourceLimitError
from .graph import Graph
from .kernel import bound_exceeds, lp_lower_bound
from .oracle import is_vertex_cover
from .reductions import ReductionTrace, lift_cover, reduce_fixpoint
from .selection import select
from .structure import circuit_rank
from .treecover import min_vc_forest

# The largest need (2 * cap - n + 1) a node packs odd cycles for, before its
# reductions and after them. Before: a failed check is repeated after the
# reductions at the same or a lower need, so it is kept cheap.
EARLY_PACKING_MOST = 2
# After: it is the node's last bound before it branches or splits. Against
# 4, on the benchmark's seed-1 corpora, 6 adds checks at need 5 and 6 that
# prune 12% and 7% of the time on ``cubic`` and 29% and 19% on ``maxdeg5``;
# nodes fall 4% and 8% there, and 15% on the 12 cubic graphs
# tests/test_search.py pins. On ``cubic`` those checks cost about 5% of
# process CPU, which a faster greedy matching (kernel) wins back; on cubic
# graphs with n = 280-320, where they prune far more often, CPU fell.
LATE_PACKING_MOST = 6
ENVELOPE_BASE_PLAIN = 1.15855
ENVELOPE_BASE_INTERLEAVED = 1.1504
NODE_BUDGET = 10**8


@dataclass
class SearchStats:
    nodes_expanded: int = 0
    max_depth: int = 0
    tree_leaf_count: int = 0
    k_exhausted_leaves: int = 0
    lp_prunes: int = 0
    packing_prunes: int = 0
    late_packing_prunes: int = 0
    tau_root: int = 0


@dataclass
class Verdict:
    answer: str  # "YES" or "NO"
    cover: set[int] | None
    k: int
    stats: SearchStats


_Result = tuple[int, set[int]] | None
# a node yields each child as (graph, cap, first_fit, changed) and is sent
# its result
_Node = Generator[tuple[Graph, int, bool, set[int]], _Result, _Result]


def _node(
    g: Graph, cap: int, first_fit: bool, changed: set[int] | None, budget: int, stats: SearchStats
) -> _Node:
    """Smallest cover of g not exceeding cap, or None.

    Decision mode (first_fit) may return any cover within cap; minimization
    mode returns the exact minimum when it is within cap. changed is what
    ``reduce_fixpoint`` takes: a child's set, or None at the root. A branch
    child, whose set is never empty, is checked against the lower bounds
    before the reductions as well as after them; the root (None) and a
    component part (an empty set) only after. The result refers to g as
    handed in; g itself is consumed.
    """
    if stats.nodes_expanded >= budget:
        raise ResourceLimitError(f"node budget {budget} exhausted")
    stats.nodes_expanded += 1
    adj = g.adjacency()
    if cap < 0 or (cap == 0 and any(adj.values())):
        stats.k_exhausted_leaves += 1
        return None
    if not any(adj.values()):
        return 0, set()
    if changed and _bound_exceeds(g, cap, stats, late=False):
        return None

    trace: ReductionTrace = []
    reduce_fixpoint(g, trace, changed)
    cap -= len(trace)
    if cap < 0:
        stats.k_exhausted_leaves += 1
        return None
    if not any(adj.values()):  # the empty graph; perfbench counts treecover calls
        size, cover = min_vc_forest(g)
        stats.tree_leaf_count += 1
    elif _bound_exceeds(g, cap, stats, late=True):
        return None
    elif not g.is_connected():
        r = yield from _solve_components(g, g.connected_components(), cap, stats)
        if r is None:
            return None
        size, cover = r
    else:
        plan = select(g)
        take = (plan.vertex, *plan.mirrors)
        g_inc = g.clone()
        changed = set().union(*map(g_inc.remove_vertex, take))
        inc = yield g_inc, cap - len(take), first_fit, changed
        if inc is not None:
            size, cover = len(take) + inc[0], inc[1].union(take)
            cap = size - 1  # the exclude branch has to beat it
        if inc is None or not first_fit:
            nlist = sorted(g.neighbors(plan.vertex))
            changed = set().union(*map(g.remove_vertex, (*nlist, plan.vertex)))
            exc = yield g, cap - len(nlist), first_fit, changed
            if exc is not None:
                size, cover = len(nlist) + exc[0], exc[1].union(nlist)
            elif inc is None:
                return None
    return len(trace) + size, lift_cover(trace, cover)


def _bound_exceeds(g: Graph, cap: int, stats: SearchStats, late: bool) -> bool:
    """Whether a lower bound on g's covers exceeds cap, packing odd cycles
    up to need LATE_PACKING_MOST after a node's reductions (late) and
    EARLY_PACKING_MOST before them. Counts the prune: an LP prune where
    need = 2 * cap - n + 1 <= 0, a packing prune otherwise."""
    if not bound_exceeds(g, cap, LATE_PACKING_MOST if late else EARLY_PACKING_MOST):
        return False
    if 2 * cap < g.num_vertices():
        stats.lp_prunes += 1
    else:
        stats.packing_prunes += 1
        stats.late_packing_prunes += late
    stats.k_exhausted_leaves += 1
    return True


def _solve_components(g: Graph, comps: list[list[int]], cap: int, stats: SearchStats) -> _Node:
    """Components are independent: their minima add. Each is minimized under
    the budget left over after lower-bounding the others by LP.

    Where cap >= n, as in a minimization until it finds its first cover, the
    bounds are skipped: no sum of them can exceed cap, and each part gets a
    budget of at least its own size with or without them. Under such a
    budget a part's search meets no bound that prunes before its first
    cover, and takes every later budget from the covers it finds, so the
    parts search the same trees."""
    subs = [g.induced_subgraph(c) for c in comps]
    bounds = [0] * len(subs) if cap >= g.num_vertices() else [lp_lower_bound(s) for s in subs]
    if sum(bounds) > cap:
        stats.k_exhausted_leaves += 1
        return None
    total = 0
    cover: set[int] = set()
    for i, sub in enumerate(subs):
        sub_cap = cap - total - sum(bounds[i + 1 :])
        r = yield sub, sub_cap, False, set()
        if r is None:
            return None
        total += r[0]
        cover |= r[1]
    return total, cover


def _search(g: Graph, cap: int, budget: int, first_fit: bool) -> tuple[_Result, SearchStats]:
    """Run the search on a copy of g and certify what it finds. The stack holds
    the open nodes, root first; the top one is sent its last child's result.

    The copy leaves out g's isolated vertices, which on a large sparse input
    can be an eighth of it. That is exact: the root's degree peel, handed
    None, would delete each of them with no trace entry and no effect on
    another vertex, so it leaves the graph, down to each neighbor set's
    order, as it leaves a full clone. ``tau_root`` is read off the copy:
    an isolated vertex adds one to both n and c in m - n + c."""
    stats = SearchStats()
    root = g.clone_without_isolated()
    stats.tau_root = circuit_rank(root)
    stack = [_node(root, cap, first_fit, None, budget, stats)]
    result: _Result = None
    while stack:
        try:
            child = stack[-1].send(result)
        except StopIteration as done:
            stack.pop()
            result = done.value
        else:
            stack.append(_node(*child, budget, stats))
            stats.max_depth = max(stats.max_depth, len(stack) - 1)
            result = None
    if result is not None:
        _check_certificate(g, result[1], result[0], cap)
    return result, stats


def vc_decide(g: Graph, k: int, node_budget: int = NODE_BUDGET) -> Verdict:
    """Does g have a vertex cover of size at most k? Certificates on YES."""
    if k < 0:
        raise ValueError("k must be non-negative")
    result, stats = _search(g, k, node_budget, first_fit=True)
    if result is None:
        return Verdict(answer="NO", cover=None, k=k, stats=stats)
    return Verdict(answer="YES", cover=result[1], k=k, stats=stats)


def vc_minimum(g: Graph, node_budget: int = NODE_BUDGET) -> tuple[int, set[int], SearchStats]:
    """Exact minimum vertex cover with certificate."""
    result, stats = _search(g, g.num_vertices(), node_budget, first_fit=False)
    if result is None:
        raise AssertionError("minimization found no cover within n, which is impossible")
    return result[0], result[1], stats


def _check_certificate(g: Graph, cover: set[int], size: int, cap: int) -> None:
    if len(cover) != size:
        raise AssertionError(f"certificate size {len(cover)} disagrees with accounting {size}")
    if size > cap:
        raise AssertionError(f"certificate size {size} exceeds the budget {cap}")
    if not is_vertex_cover(g, cover):
        raise AssertionError("certificate fails to cover the graph")


def check_node_budget(stats: SearchStats, k: int) -> dict:
    """Report-only comparison of the explored tree against the analytical
    envelopes. Never raises: an envelope beyond float range is None, and
    every tree lies within it."""
    plain, interleaved = (_envelope(b, k) for b in (ENVELOPE_BASE_PLAIN, ENVELOPE_BASE_INTERLEAVED))
    nodes = stats.nodes_expanded
    return {
        "k": k,
        "nodes_expanded": nodes,
        "tau_root": stats.tau_root,
        "envelope_1_15855": plain,
        "envelope_1_1504": interleaved,
        "within_envelope_1_15855": plain is None or nodes <= plain,
        "within_envelope_1_1504": interleaved is None or nodes <= interleaved,
        "log_nodes_over_k": (math.log(nodes) / k) if k > 0 and nodes > 0 else None,
    }


def _envelope(growth: float, k: int) -> float | None:
    try:
        return growth**k
    except OverflowError:  # 1.15855**k once k is above about 4,820
        return None
