"""Branch-and-reduce decision and minimization engines.

One recursive node procedure serves both entry points. A node reduces to
minimum degree 3, hands forests to the linear solver, prunes when the LP
lower bound exceeds the budget, splits into components (solved independently
to their minima), and otherwise branches on a selected vertex: include it with
its coupled satellites, or exclude it by taking its whole neighborhood.
Decision mode returns on the first branch that fits the budget; minimization
mode keeps the best and tightens the bound.

The LP value of an n-vertex graph is at most n/2 (x = 1/2 everywhere is
feasible), so a node pays for the matching behind the LP bound only when
ceil(n/2) could exceed its budget. The LP bound after reductions is at least
as strong as the Nemhauser-Trotter kernel's infeasibility test before them
(every rule keeps LP(G) <= LP(G') + cost), so the search runs no NT kernel.

A node pays only for what decides its answer: one component scan, one graph
copy (the include branch; the exclude branch consumes the node's graph), and
reductions that re-examine only the vertices around what the branch deleted,
which the graph tracks in ``Graph.touched``.

Every YES certificate is re-verified before it is returned. Runs with
``instrument_tau`` (off by default; the test suite turns it on) track the
independent-cycle count tau along all branches: it never increases, and
deleting a degree-d vertex from a connected graph with a connected result
drops it by exactly d - 1.
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
from .structure import circuit_rank, tau
from .treecover import min_vc_forest

ENVELOPE_BASE_PLAIN = 1.15855
ENVELOPE_BASE_INTERLEAVED = 1.1504


@dataclass
class SolverConfig:
    struction: bool = False
    node_budget: int = 10**8
    depth_limit: int = 10_000
    instrument_tau: bool = False  # check the tau invariants at every branching


@dataclass
class SearchStats:
    nodes_expanded: int = 0
    max_depth: int = 0
    tree_leaf_count: int = 0
    k_exhausted_leaves: int = 0
    tau_root: int = 0
    tau_trajectory_ok: bool = True
    tau_drop_ok: bool = True
    est_bound_ok: bool = True
    wallclock: float = 0.0


@dataclass
class Verdict:
    answer: str  # "YES" or "NO"
    cover: set[int] | None
    k: int
    stats: SearchStats


@dataclass
class _Ctx:
    cfg: SolverConfig
    stats: SearchStats


def _node(g: Graph, cap: int, depth: int, ctx: _Ctx, first_fit: bool) -> tuple[int, set[int]] | None:
    """Smallest cover of g not exceeding cap, or None.

    Decision mode (first_fit) may return any cover within cap; minimization
    mode returns the exact minimum when it is within cap. The result refers to
    g as handed in; g itself is consumed.
    """
    stats = ctx.stats
    if stats.nodes_expanded >= ctx.cfg.node_budget:
        raise ResourceLimitError(f"node budget {ctx.cfg.node_budget} exhausted")
    if depth > ctx.cfg.depth_limit:
        raise ResourceLimitError(f"depth limit {ctx.cfg.depth_limit} exceeded")
    stats.nodes_expanded += 1
    if depth > stats.max_depth:
        stats.max_depth = depth
    if cap < 0:
        stats.k_exhausted_leaves += 1
        return None
    if g.num_edges() == 0:
        return 0, set()
    if cap == 0:
        stats.k_exhausted_leaves += 1
        return None

    trace = ReductionTrace()
    reduce_fixpoint(g, trace, use_struction=ctx.cfg.struction)
    g.touched = set()  # g is reduced; the children re-examine only what changes
    base = trace.k_delta
    if base > cap:
        stats.k_exhausted_leaves += 1
        return None
    comps = g.connected_components()
    if g.num_edges() == g.num_vertices() - len(comps):  # a forest
        size, fcover = min_vc_forest(g)
        stats.tree_leaf_count += 1
        if base + size > cap:
            stats.k_exhausted_leaves += 1
            return None
        return base + size, lift_cover(trace, fcover)
    if base + (g.num_vertices() + 1) // 2 > cap and base + lp_lower_bound(g) > cap:
        stats.k_exhausted_leaves += 1
        return None

    if len(comps) > 1:
        return _solve_components(g, comps, cap, base, depth, ctx, trace)

    plan = select(g)
    v = plan.vertex
    for z in sorted(plan.satellites):
        trace.couple(v, z)
        g.remove_vertex(z)
    nlist = sorted(g.neighbors(v))
    d = len(nlist)
    inc_cost = 1 + len(plan.satellites)

    inst = ctx.cfg.instrument_tau
    if inst:
        tau_here = tau(g)
        base_connected = g.is_connected()
        nset = set(nlist)
        inside_edges = sum(len(g.neighbors(w) & nset) for w in nlist) // 2

    g_inc = g.clone()
    g_inc.touched = set(g.touched)
    g_inc.remove_vertex(v)
    if inst:
        tau_inc = tau(g_inc)
        if tau_inc > tau_here:
            stats.tau_trajectory_ok = False
        if base_connected and g_inc.is_connected():
            if tau_here - tau_inc != d - 1:
                stats.tau_drop_ok = False
            if tau_here - tau_inc < plan.est_vector[0]:
                stats.est_bound_ok = False
    best: tuple[int, set[int]] | None = None
    r = _node(g_inc, cap - base - inc_cost, depth + 1, ctx, first_fit)
    if r is not None:
        size, cov = r
        best = (base + inc_cost + size, lift_cover(trace, cov | {v}))
        if first_fit:
            return best

    for w in nlist:
        g.remove_vertex(w)
    g.remove_vertex(v)
    if inst:
        tau_exc = tau(g)
        if tau_exc > tau_here:
            stats.tau_trajectory_ok = False
        # the exclude estimate is certified only for sparse neighborhoods
        if (
            not plan.satellites
            and base_connected
            and g.is_connected()
            and g.num_vertices() > 0
            and inside_edges <= d - 2
            and tau_here - tau_exc < plan.est_vector[1]
        ):
            stats.est_bound_ok = False
    cap_exc = cap if best is None else best[0] - 1
    r = _node(g, cap_exc - base - d, depth + 1, ctx, first_fit)
    if r is not None:
        size, cov = r
        total = base + d + size
        if best is None or total < best[0]:
            best = (total, lift_cover(trace, cov | set(nlist)))
    return best


def _solve_components(
    g: Graph,
    comps: list[list[int]],
    cap: int,
    base: int,
    depth: int,
    ctx: _Ctx,
    trace: ReductionTrace,
) -> tuple[int, set[int]] | None:
    """Components are independent: their minima add. Each is minimized under
    the budget left over after lower-bounding the others."""
    remaining = cap - base
    subs = [g.induced_subgraph(c) for c in comps]
    for sub in subs:
        sub.touched = set()  # a component of a reduced graph is reduced
    bounds = [lp_lower_bound(s) for s in subs]
    if sum(bounds) > remaining:
        ctx.stats.k_exhausted_leaves += 1
        return None
    total = 0
    cover: set[int] = set()
    for i, sub in enumerate(subs):
        sub_cap = remaining - sum(bounds[i + 1 :])
        r = _node(sub, sub_cap, depth + 1, ctx, first_fit=False)
        if r is None:
            return None
        size, cov = r
        total += size
        remaining -= size
        cover |= cov
    return base + total, lift_cover(trace, cover)


def _search(g: Graph, cap: int, ctx: _Ctx, first_fit: bool) -> tuple[int, set[int]] | None:
    """Run the search on a copy of g; a dive deeper than the interpreter's
    recursion limit becomes a ResourceLimitError, as the other guards are."""
    try:
        return _node(g.clone(), cap, 0, ctx, first_fit)
    except RecursionError:
        raise ResourceLimitError(
            f"search depth {ctx.stats.max_depth} reached the interpreter's recursion limit "
            f"{sys.getrecursionlimit()}"
        ) from None


def vc_decide(g: Graph, k: int, config: SolverConfig | None = None) -> Verdict:
    """Does g have a vertex cover of size at most k? Certificates on YES."""
    if k < 0:
        raise ValueError("k must be non-negative")
    cfg = config or SolverConfig()
    stats = SearchStats()
    ctx = _Ctx(cfg=cfg, stats=stats)
    start = time.perf_counter()
    stats.tau_root = tau(g) if cfg.instrument_tau else circuit_rank(g)
    result = _search(g, k, ctx, first_fit=True)
    stats.wallclock = time.perf_counter() - start
    if result is None:
        return Verdict(answer="NO", cover=None, k=k, stats=stats)
    size, cover = result
    _check_certificate(g, cover, size, k)
    return Verdict(answer="YES", cover=cover, k=k, stats=stats)


def vc_minimum(g: Graph, config: SolverConfig | None = None) -> tuple[int, set[int], SearchStats]:
    """Exact minimum vertex cover with certificate."""
    cfg = config or SolverConfig()
    stats = SearchStats()
    ctx = _Ctx(cfg=cfg, stats=stats)
    start = time.perf_counter()
    stats.tau_root = tau(g) if cfg.instrument_tau else circuit_rank(g)
    result = _search(g, g.num_vertices(), ctx, first_fit=False)
    stats.wallclock = time.perf_counter() - start
    if result is None:
        raise AssertionError("minimization found no cover within n, which is impossible")
    size, cover = result
    _check_certificate(g, cover, size, None)
    return size, cover, stats


def _check_certificate(g: Graph, cover: set[int], size: int, k: int | None) -> None:
    if len(cover) != size:
        raise AssertionError(f"certificate size {len(cover)} disagrees with accounting {size}")
    if k is not None and size > k:
        raise AssertionError(f"certificate size {size} exceeds the budget {k}")
    if not is_vertex_cover(g, cover):
        raise AssertionError("certificate fails to cover the graph")


def check_node_budget(stats: SearchStats, k: int) -> dict:
    """Report-only comparison of the explored tree against the analytical
    envelopes. Never raises; consumers decide what to do with it."""
    plain = ENVELOPE_BASE_PLAIN**k
    interleaved = ENVELOPE_BASE_INTERLEAVED**k
    nodes = stats.nodes_expanded
    return {
        "k": k,
        "nodes_expanded": nodes,
        "tau_root": stats.tau_root,
        "envelope_1_15855": plain,
        "envelope_1_1504": interleaved,
        "within_envelope_1_15855": nodes <= plain,
        "within_envelope_1_1504": nodes <= interleaved,
        "log_nodes_over_k": (math.log(nodes) / k) if k > 0 and nodes > 0 else None,
    }
