"""Branch-and-reduce decision and minimization engines.

One recursive node procedure serves both entry points. A node reduces to
minimum degree 3, hands forests to the linear solver, prunes when the LP
lower bound exceeds the budget, splits into components (solved independently
to their minima), and otherwise branches on a selected vertex v: include v
with its mirrors, or exclude v by taking its whole neighborhood. Some minimum
cover falls in one of the two branches (see ``selection.mirrors``).
Decision mode returns on the first branch that fits the budget; minimization
mode keeps the best and tightens the bound. After reduction, budgets and
covers refer to the reduced graph: a node charges the reductions' cost once
and lifts its cover through the reduction trace once, on the way out.

The LP value of an n-vertex graph is at most n/2 (x = 1/2 everywhere is
feasible), so a node pays for the matching behind the LP bound only when
ceil(n/2) could exceed its budget. The LP bound after reductions is at least
as strong as the Nemhauser-Trotter kernel's infeasibility test before them
(every rule keeps LP(G) <= LP(G') + cost), so the search runs no NT kernel.

A node pays only for what decides its answer: one component scan, one graph
copy (the include branch; the exclude branch consumes the node's graph), and
reductions that re-examine only the vertices around what the branch deleted.
The graph and the reductions keep that record (``Graph.touched``) between
themselves; the engine never reads or writes it. Two guards raise
ResourceLimitError: the node budget and the interpreter's recursion limit.

Every YES certificate is re-verified before it is returned. Along every
branch the independent-cycle count tau never increases, and deleting a
degree-d vertex from a connected graph with a connected result drops it by
exactly d - 1; the test fixture ``checked_branchings`` checks this at every
branching the test suite runs.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass

from .errors import ResourceLimitError
from .graph import Graph
from .kernel import lp_lower_bound
from .oracle import is_vertex_cover
from .reductions import ReductionTrace, lift_cover, reduce_fixpoint
from .selection import select
from .structure import circuit_rank
from .treecover import min_vc_forest

ENVELOPE_BASE_PLAIN = 1.15855
ENVELOPE_BASE_INTERLEAVED = 1.1504


@dataclass
class SolverConfig:
    struction: bool = False
    node_budget: int = 10**8


@dataclass
class SearchStats:
    nodes_expanded: int = 0
    max_depth: int = 0
    tree_leaf_count: int = 0
    k_exhausted_leaves: int = 0
    tau_root: int = 0
    wallclock: float = 0.0


@dataclass
class Verdict:
    answer: str  # "YES" or "NO"
    cover: set[int] | None
    k: int
    stats: SearchStats


def _node(
    g: Graph, cap: int, depth: int, cfg: SolverConfig, stats: SearchStats, first_fit: bool
) -> tuple[int, set[int]] | None:
    """Smallest cover of g not exceeding cap, or None.

    Decision mode (first_fit) may return any cover within cap; minimization
    mode returns the exact minimum when it is within cap. The result refers to
    g as handed in; g itself is consumed.
    """
    if stats.nodes_expanded >= cfg.node_budget:
        raise ResourceLimitError(f"node budget {cfg.node_budget} exhausted")
    stats.nodes_expanded += 1
    stats.max_depth = max(stats.max_depth, depth)
    if cap < 0 or (cap == 0 and g.num_edges()):
        stats.k_exhausted_leaves += 1
        return None
    if g.num_edges() == 0:
        return 0, set()

    trace = ReductionTrace()
    reduce_fixpoint(g, trace, use_struction=cfg.struction)
    cap -= trace.k_delta
    if cap < 0:
        stats.k_exhausted_leaves += 1
        return None
    comps = g.connected_components()
    if g.num_edges() == g.num_vertices() - len(comps):  # a forest
        size, cover = min_vc_forest(g)
        stats.tree_leaf_count += 1
        if size > cap:
            stats.k_exhausted_leaves += 1
            return None
    elif (g.num_vertices() + 1) // 2 > cap and lp_lower_bound(g) > cap:
        stats.k_exhausted_leaves += 1
        return None
    elif len(comps) > 1:
        r = _solve_components(g, comps, cap, depth, cfg, stats)
        if r is None:
            return None
        size, cover = r
    else:
        plan = select(g)
        take = (plan.vertex, *plan.mirrors)
        g_inc = g.clone()
        for u in take:
            g_inc.remove_vertex(u)
        inc = _node(g_inc, cap - len(take), depth + 1, cfg, stats, first_fit)
        if inc is not None:
            size, cover = len(take) + inc[0], inc[1].union(take)
            cap = size - 1  # the exclude branch has to beat it
        if inc is None or not first_fit:
            nlist = sorted(g.neighbors(plan.vertex))
            for u in (*nlist, plan.vertex):
                g.remove_vertex(u)
            exc = _node(g, cap - len(nlist), depth + 1, cfg, stats, first_fit)
            if exc is not None:
                size, cover = len(nlist) + exc[0], exc[1].union(nlist)
            elif inc is None:
                return None
    return trace.k_delta + size, lift_cover(trace, cover)


def _solve_components(
    g: Graph, comps: list[list[int]], cap: int, depth: int, cfg: SolverConfig, stats: SearchStats
) -> tuple[int, set[int]] | None:
    """Components are independent: their minima add. Each is minimized under
    the budget left over after lower-bounding the others."""
    subs = [g.induced_subgraph(c) for c in comps]
    bounds = [lp_lower_bound(s) for s in subs]
    if sum(bounds) > cap:
        stats.k_exhausted_leaves += 1
        return None
    total = 0
    cover: set[int] = set()
    for i, sub in enumerate(subs):
        r = _node(sub, cap - total - sum(bounds[i + 1 :]), depth + 1, cfg, stats, first_fit=False)
        if r is None:
            return None
        total += r[0]
        cover |= r[1]
    return total, cover


def _search(
    g: Graph, cap: int, config: SolverConfig | None, first_fit: bool
) -> tuple[tuple[int, set[int]] | None, SearchStats]:
    """Run the search on a copy of g and certify what it finds.

    A dive deeper than the interpreter's recursion limit becomes a
    ResourceLimitError, as the node budget does.
    """
    cfg = config or SolverConfig()
    stats = SearchStats()
    start = time.perf_counter()
    stats.tau_root = circuit_rank(g)
    try:
        result = _node(g.clone(), cap, 0, cfg, stats, first_fit)
    except RecursionError:
        raise ResourceLimitError(
            f"search depth {stats.max_depth} reached the interpreter's recursion limit "
            f"{sys.getrecursionlimit()}"
        ) from None
    stats.wallclock = time.perf_counter() - start
    if result is not None:
        _check_certificate(g, result[1], result[0], cap)
    return result, stats


def vc_decide(g: Graph, k: int, config: SolverConfig | None = None) -> Verdict:
    """Does g have a vertex cover of size at most k? Certificates on YES."""
    if k < 0:
        raise ValueError("k must be non-negative")
    result, stats = _search(g, k, config, first_fit=True)
    if result is None:
        return Verdict(answer="NO", cover=None, k=k, stats=stats)
    return Verdict(answer="YES", cover=result[1], k=k, stats=stats)


def vc_minimum(g: Graph, config: SolverConfig | None = None) -> tuple[int, set[int], SearchStats]:
    """Exact minimum vertex cover with certificate."""
    result, stats = _search(g, g.num_vertices(), config, first_fit=False)
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
