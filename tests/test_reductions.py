import random
import typing

import pytest

from cyclecover import reductions
from cyclecover.generators import generate, random_max_degree
from cyclecover.graph import Graph
from cyclecover.oracle import is_vertex_cover, min_vc_bruteforce
from cyclecover.reductions import (
    FoldDeg2,
    Include,
    ReductionTrace,
    fold_degree2,
    lift_cover,
    reduce_fixpoint,
    reduce_low_degree,
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
    # r inherits both tails
    assert g.degree(entry.r) == 2


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
    # N[1] inside N[0]: 0 dominates 1, and the unconfined rule, which is the
    # domination test at |S| = 1, takes 0 first
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4), (0, 4)]
    g = Graph.from_edges(edges)
    t = ReductionTrace()
    reduce_fixpoint(g, t)
    assert t.entries[0] == Include(0)
    assert g.num_vertices() == 0 and t.k_delta == 3
    assert is_vertex_cover(Graph.from_edges(edges), lift_cover(t, set()))


def test_trace_vocabulary_is_what_the_rules_emit():
    emitted = set()
    for seed in range(300):
        t = ReductionTrace()
        reduce_fixpoint(mixed_instance(seed), t)
        emitted |= {type(entry) for entry in t.entries}
    assert set(typing.get_args(reductions.TraceEntry)) == emitted


def test_fixpoint_reaches_min_degree_three():
    for seed in range(30):
        g = mixed_instance(seed, max_n=14)
        t = ReductionTrace()
        reduce_fixpoint(g, t)
        assert all(g.degree(v) >= 3 for v in g.vertices()), seed


def test_fixpoint_preserves_optimum():
    for seed in range(120):
        g = mixed_instance(seed, max_n=14)
        opt, _ = min_vc_bruteforce(g)
        orig = g.clone()
        t = ReductionTrace()
        reduce_fixpoint(g, t)
        if g.num_vertices() > 26:
            continue
        size, lifted = residual_optimum(g, t)
        assert size == opt, seed
        assert is_vertex_cover(orig, lifted)
        assert len(lifted) == size


def test_lift_is_order_sensitive_replay():
    # fold then force the merged vertex r: replay must add the folded pair
    g = Graph.from_edges([(0, 1), (0, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 5)])
    t = ReductionTrace()
    fold_degree2(g, 0, t)
    entry = t.entries[-1]
    size, cover = min_vc_bruteforce(g)
    lifted = lift_cover(t, cover)
    orig = Graph.from_edges([(0, 1), (0, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 5)])
    assert is_vertex_cover(orig, lifted)
    if entry.r in cover:
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
                trace.fold(u=v, s=s, r=r)


def is_unconfined(g, v):
    """The unconfined-vertex rule by its definition (Xiao & Nagamochi, TCS
    2013), with N(S) and N[S] rebuilt from S at every step: of the u in N(S)
    with exactly one neighbor in S, the one with the fewest neighbors outside
    N[S], lowest id first, decides. None outside: unconfined; one: it joins S;
    more, or no such u: confined."""
    s = {v}
    while True:
        ns = set().union(*(g.neighbors(x) for x in s))
        closed = ns | s
        steps = [(len(g.neighbors(u) - closed), u) for u in ns if len(g.neighbors(u) & s) == 1]
        if not steps:
            return False
        out, u = min(steps)
        if out != 1:
            return out == 0
        s |= g.neighbors(u) - closed


def adjacency_snapshot(g):
    return {x: set(g.neighbors(x)) for x in g.vertices()}


def reduce_by_rescans(g, trace, since=None):
    """Reference fixpoint without ``Graph.touched``. The degree rules rescan
    the whole graph after every firing. The unconfined rule examines, lowest
    id first, the vertices not yet examined among those whose neighborhood
    differs from the snapshot taken at its previous scan, and their
    neighbors; the first scan compares with ``since``, the adjacency when g
    was last reduced, or examines every vertex when it is None."""
    unchecked = set()
    while True:
        low_degree_by_full_rescans(g, trace)
        if since is None:
            unchecked = set(g.vertices())
        else:
            for x in g.vertices():
                if g.neighbors(x) != since.get(x):
                    unchecked |= g.closed_neighborhood(x)
        since = adjacency_snapshot(g)
        found = None
        for v in sorted(unchecked):
            unchecked.discard(v)
            if g.has_vertex(v) and is_unconfined(g, v):
                found = v
                break
        if found is None:
            return
        trace.include(found)
        g.remove_vertex(found)


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


def test_dirty_fixpoint_matches_full_rescans():
    rng = random.Random(17)
    fired = 0
    for seed in range(150):
        g = reducible_instance(seed)
        ref = g.clone()
        t, t_ref = ReductionTrace(), ReductionTrace()
        reduce_fixpoint(g, t)
        reduce_by_rescans(ref, t_ref)
        assert t.entries == t_ref.entries and t.k_delta == t_ref.k_delta, seed
        assert g.edge_set() == ref.edge_set() and g.touched == set(), seed

        # the reduced graph, which now tracks its changes, loses a few
        # vertices, as a branch does; only the vertices around them are
        # re-examined
        since = adjacency_snapshot(g)
        live = sorted(g.vertices())
        for v in rng.sample(live, min(len(live), rng.randrange(1, 7))):
            g.remove_vertex(v)
        ref = g.clone()
        t, t_ref = ReductionTrace(), ReductionTrace()
        reduce_fixpoint(g, t)
        reduce_by_rescans(ref, t_ref, since)
        assert t.entries == t_ref.entries and t.k_delta == t_ref.k_delta, seed
        assert g.edge_set() == ref.edge_set() and sorted(g.vertices()) == sorted(ref.vertices()), seed
        assert g.touched == set()
        fired += len(t.entries)
    assert fired > 500


def test_rule_includes_unconfined_vertices_of_some_minimum_cover(monkeypatch):
    included = []
    real = reductions._first_unconfined

    def recording(adj, unchecked):
        v = real(adj, unchecked)
        if v is not None:
            included.append((Graph.from_edges([(a, b) for a in adj for b in adj[a] if a < b]), v))
        return v

    monkeypatch.setattr(reductions, "_first_unconfined", recording)
    rng = random.Random(61)
    for _ in range(300):
        n = rng.randrange(8, 23)
        g = random_max_degree(n, rng, max_deg=rng.randrange(3, 7), proposals=4 * n)
        reduce_fixpoint(g, ReductionTrace())
    assert len(included) > 100
    for h, v in included:
        assert is_unconfined(h, v)
        opt = min_vc_bruteforce(h)[0]
        h.remove_vertex(v)
        assert min_vc_bruteforce(h)[0] == opt - 1


def test_unconfined_beyond_domination():
    """In the triangular prism nothing is dominated, but every vertex is
    unconfined at |S| = 2: for v = 0, N(1) leaves N[0] only at 5, and with
    S = {0, 5} all of N(4) lies in N[S]."""
    prism = Graph.from_edges([(0, 1), (0, 4), (1, 4), (2, 3), (2, 5), (3, 5), (0, 2), (1, 5), (4, 3)])
    adj = {v: prism.neighbors(v) for v in prism.vertices()}
    assert not any(len(adj[v] - adj[u]) == 1 for u in adj for v in adj[u])
    assert all(is_unconfined(prism, v) for v in prism.vertices())
    t = ReductionTrace()
    reduce_fixpoint(prism, t)
    assert t.entries[0] == Include(0)
    assert prism.num_vertices() == 0 and t.k_delta == 4 == len(lift_cover(t, set()))
