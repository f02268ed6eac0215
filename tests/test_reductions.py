import random

import pytest

from cyclecover.generators import generate, random_max_degree
from cyclecover.graph import Graph
from cyclecover.oracle import is_vertex_cover, min_vc_bruteforce
from cyclecover.reductions import (
    FoldDeg2,
    ReductionTrace,
    dominated_vertex,
    fold_degree2,
    lift_cover,
    reduce_fixpoint,
    reduce_low_degree,
    struction,
)

from conftest import mixed_instance


def residual_optimum(g, trace):
    """k_delta plus the reduced graph's optimum, lifted and re-checked."""
    size, cover = min_vc_bruteforce(g)
    return trace.k_delta + size, lift_cover(trace, cover)


def test_degree1_takes_the_neighbor():
    g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])  # path
    t = ReductionTrace()
    reduce_low_degree(g, t)
    assert g.num_vertices() == 0
    lifted = lift_cover(t, set())
    assert t.k_delta == len(lifted) == 2


def test_isolated_vertices_dropped_for_free():
    g = Graph.from_edges([(0, 1)], vertices=[5, 6])
    t = ReductionTrace()
    reduce_low_degree(g, t)
    assert t.k_delta == 1
    assert g.num_vertices() == 0


def test_fold_nonadjacent_contracts():
    # 1-0-2 with tails; folding 0 merges 1 and 2
    g = Graph.from_edges([(0, 1), (0, 2), (1, 3), (2, 4)])
    t = ReductionTrace()
    fold_degree2(g, 0, t)
    assert t.k_delta == 1
    assert not g.has_vertex(0)
    entry = t.entries[-1]
    assert isinstance(entry, FoldDeg2)
    # kept endpoint inherits both tails
    assert g.degree(entry.kept) == 2


def test_fold_adjacent_takes_both_neighbors():
    g = Graph.from_edges([(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)])  # triangle + tails
    t = ReductionTrace()
    fold_degree2(g, 0, t)
    assert t.k_delta == 2
    lifted = lift_cover(t, set())
    assert lifted == {1, 2}


def test_fold_lift_both_sides():
    # C5: fold any degree-2 vertex, optimum must survive through the lift
    g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    opt, _ = min_vc_bruteforce(g)
    t = ReductionTrace()
    fold_degree2(g, 0, t)
    size, lifted = residual_optimum(g, t)
    assert size == opt == 3
    orig = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert is_vertex_cover(orig, lifted)


def test_domination_adjacent_superset():
    # N[1] inside N[0]: 0 is safe to take
    g = Graph.from_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4), (0, 4)])
    t = ReductionTrace()
    assert dominated_vertex(g, t)
    assert t.k_delta == 1
    assert not g.has_vertex(0)


def test_struction_single_inside_edge():
    # degree-3 center 0 with one edge inside its neighborhood
    g = Graph.from_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 5), (3, 6), (3, 7)])
    opt, _ = min_vc_bruteforce(g)
    t = ReductionTrace()
    assert struction(g, 0, t)
    assert t.k_delta == 1
    size, lifted = residual_optimum(g, t)
    assert size == opt
    orig = Graph.from_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 5), (3, 6), (3, 7)])
    assert is_vertex_cover(orig, lifted)


def test_struction_declines_other_shapes():
    tri_free = Graph.from_edges([(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)])
    t = ReductionTrace()
    assert not struction(tri_free, 0, t)
    two_inside = Graph.from_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 5)])
    assert not struction(two_inside, 0, t)
    assert t.k_delta == 0 and two_inside.num_vertices() == 6


def test_fixpoint_reaches_min_degree_three():
    for seed in range(30):
        g = mixed_instance(seed, max_n=14)
        t = ReductionTrace()
        reduce_fixpoint(g, t)
        assert all(g.degree(v) >= 3 for v in g.vertices()), seed


@pytest.mark.parametrize("use_struction", [False, True])
def test_fixpoint_preserves_optimum(use_struction):
    for seed in range(120):
        g = mixed_instance(seed, max_n=14)
        opt, _ = min_vc_bruteforce(g)
        orig = g.clone()
        t = ReductionTrace()
        reduce_fixpoint(g, t, use_struction=use_struction)
        if g.num_vertices() > 26:
            continue
        size, lifted = residual_optimum(g, t)
        assert size == opt, (seed, use_struction)
        assert is_vertex_cover(orig, lifted)
        assert len(lifted) == size


def test_lift_is_order_sensitive_replay():
    # fold then force the kept vertex: replay must add the folded pair
    g = Graph.from_edges([(0, 1), (0, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 5)])
    t = ReductionTrace()
    fold_degree2(g, 0, t)
    entry = t.entries[-1]
    size, cover = min_vc_bruteforce(g)
    lifted = lift_cover(t, cover)
    orig = Graph.from_edges([(0, 1), (0, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 5)])
    assert is_vertex_cover(orig, lifted)
    if entry.kept in cover:
        assert {entry.s, entry.r} <= lifted
    else:
        assert entry.u in lifted


def low_degree_by_full_rescans(g, trace):
    """Reference degree rules, with public graph methods only: the lowest-id
    vertex of degree <= 2 fires, then the whole graph is rescanned."""
    while True:
        v = next((x for x in sorted(g.vertices()) if g.degree(x) <= 2), None)
        if v is None:
            return
        if g.degree(v) == 0:
            trace.delete_isolated(v)
            g.remove_vertex(v)
        elif g.degree(v) == 1:
            (w,) = g.neighbors(v)
            trace.include(w)
            g.remove_vertex(w)
        else:
            s, r = sorted(g.neighbors(v))
            if g.has_edge(s, r):
                trace.include(s)
                trace.include(r)
                trace.delete_isolated(v)
                for x in (s, r, v):
                    g.remove_vertex(x)
            else:
                g.remove_vertex(v)
                for w in sorted(g.neighbors(s)):
                    g.add_edge(r, w)
                g.remove_vertex(s)
                trace.fold(u=v, s=s, r=r, kept=r)


def reduce_by_full_rescans(g, trace, use_struction):
    """Reference fixpoint: after every firing each rule rescans the graph."""
    while True:
        low_degree_by_full_rescans(g, trace)
        dominator = next(
            (
                u
                for u in sorted(g.vertices())
                if any(g.closed_neighborhood(v) <= g.closed_neighborhood(u) for v in g.neighbors(u))
            ),
            None,
        )
        if dominator is not None:
            trace.include(dominator)
            g.remove_vertex(dominator)
            continue
        if use_struction and any(
            g.degree(u) == 3 and struction(g, u, trace) for u in sorted(g.vertices())
        ):
            continue
        return


def reducible_instance(seed):
    """Disjoint union of a few random graphs, so that rules fire in several
    places at once."""
    rng = random.Random(seed)
    g = Graph()
    for part in range(rng.randrange(1, 4)):
        n = rng.randrange(12, 40)
        if rng.random() < 0.3:
            piece = generate("cubic", n + n % 2, rng.randrange(10**9))
        else:
            piece = random_max_degree(n, rng, max_deg=rng.randrange(3, 7), proposals=3 * n)
        for u, v in piece.edges():
            g.add_edge(100 * part + u, 100 * part + v)
    return g


@pytest.mark.parametrize("use_struction", [False, True])
def test_dirty_fixpoint_matches_full_rescans(use_struction):
    rng = random.Random(17)
    fired = 0
    for seed in range(150):
        g = reducible_instance(seed)
        ref = g.clone()
        t, t_ref = ReductionTrace(), ReductionTrace()
        reduce_fixpoint(g, t, use_struction)
        reduce_by_full_rescans(ref, t_ref, use_struction)
        assert t.entries == t_ref.entries and t.k_delta == t_ref.k_delta, seed
        assert g.edge_set() == ref.edge_set() and g.touched == set(), seed

        # the reduced graph, which now tracks its changes, loses a few
        # vertices, as a branch does; only the vertices around them are
        # re-examined
        live = sorted(g.vertices())
        for v in rng.sample(live, min(len(live), rng.randrange(1, 7))):
            g.remove_vertex(v)
        ref = g.clone()
        t, t_ref = ReductionTrace(), ReductionTrace()
        reduce_fixpoint(g, t, use_struction)
        reduce_by_full_rescans(ref, t_ref, use_struction)
        assert t.entries == t_ref.entries and t.k_delta == t_ref.k_delta, seed
        assert g.edge_set() == ref.edge_set() and sorted(g.vertices()) == sorted(ref.vertices()), seed
        assert g.touched == set()
        fired += len(t.entries)
    assert fired > 500
