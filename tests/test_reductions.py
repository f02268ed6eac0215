import random
import typing

import pytest

from cyclecover import reductions
from cyclecover.generators import generate, random_max_degree
from cyclecover.graph import Graph
from cyclecover.oracle import is_vertex_cover, min_vc_bruteforce
from cyclecover.reductions import lift_cover, reduce_fixpoint, reduce_low_degree

from conftest import mixed_instance, sparse_with_blocks
from graph_checks import (
    check_invariants,
    closed_neighborhood,
    edge_set,
    fold_degree2,
    reduce_low_degree_by_rules,
    snapshot,
)


def residual_optimum(g, trace):
    """The trace's length plus the reduced graph's optimum, and the lifted
    optimal cover."""
    size, cover = min_vc_bruteforce(g)
    return len(trace) + size, lift_cover(trace, cover)


def test_degree1_takes_the_neighbor():
    g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])  # path
    t = []
    reduce_low_degree(g, t)
    assert g.num_vertices() == 0
    lifted = lift_cover(t, set())
    assert len(t) == len(lifted) == 2


def test_isolated_vertices_dropped_for_free():
    g = Graph.from_edges([(0, 1)], vertices=[5, 6])
    t = []
    reduce_low_degree(g, t)
    assert len(t) == 1
    assert g.num_vertices() == 0


def test_fold_nonadjacent_contracts():
    # 1-0-2 with tails; folding 0 merges 1 and 2
    g = Graph.from_edges([(0, 1), (0, 2), (1, 3), (2, 4)])
    t = []
    fold_degree2(g, 0, t)
    assert len(t) == 1
    assert not g.has_vertex(0)
    assert t == [(0, 1, 2)]
    # r inherits both tails
    assert g.degree(2) == 2


def test_fold_adjacent_takes_both_neighbors():
    g = Graph.from_edges([(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)])  # triangle + tails
    t = []
    fold_degree2(g, 0, t)
    assert len(t) == 2
    lifted = lift_cover(t, set())
    assert lifted == {1, 2}


def test_fold_lift_both_sides():
    # C5: fold any degree-2 vertex, optimum must survive through the lift
    g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    opt, _ = min_vc_bruteforce(g)
    t = []
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
    t = []
    reduce_fixpoint(g, t)
    assert t[0] == 0
    assert g.num_vertices() == 0 and len(t) == 3
    assert is_vertex_cover(Graph.from_edges(edges), lift_cover(t, set()))


def test_trace_vocabulary_is_what_the_rules_emit():
    emitted = set()
    for seed in range(300):
        t = []
        reduce_fixpoint(mixed_instance(seed), t)
        emitted |= {type(entry) for entry in t}
        assert all(type(entry) is int or len(entry) == 3 for entry in t), seed
    (entry,) = typing.get_args(reductions.ReductionTrace)
    declared = {typing.get_origin(kind) or kind for kind in typing.get_args(entry)}
    assert declared == emitted == {int, tuple}


def test_fixpoint_reaches_min_degree_three():
    for seed in range(30):
        g = mixed_instance(seed, max_n=14)
        t = []
        reduce_fixpoint(g, t)
        assert all(g.degree(v) >= 3 for v in g.vertices()), seed


def test_fixpoint_preserves_optimum():
    for seed in range(120):
        g = mixed_instance(seed, max_n=14)
        opt, _ = min_vc_bruteforce(g)
        orig = g.clone()
        t = []
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
    t = []
    fold_degree2(g, 0, t)
    u, s, r = t[-1]
    size, cover = min_vc_bruteforce(g)
    lifted = lift_cover(t, cover)
    orig = Graph.from_edges([(0, 1), (0, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 5)])
    assert is_vertex_cover(orig, lifted)
    if r in cover:
        assert {s, r} <= lifted
    else:
        assert u in lifted


def low_degree_by_full_rescans(g, trace):
    """Reference degree rules, with public graph methods only: the lowest-id
    vertex of degree <= 2 fires, then the whole graph is rescanned."""
    while True:
        v = next((x for x in sorted(g.vertices()) if g.degree(x) <= 2), None)
        if v is None:
            return
        if g.degree(v) == 0:
            g.remove_vertex(v)
        elif g.degree(v) == 1:
            (w,) = g.neighbors(v)
            trace.append(w)
            g.remove_vertex(w)
        else:
            s, r = sorted(g.neighbors(v))
            if g.has_edge(s, r):
                trace += [s, r]
                for x in (s, r, v):
                    g.remove_vertex(x)
            else:
                g.remove_vertex(v)
                for w in sorted(g.neighbors(s)):
                    g.add_edge(r, w)
                g.remove_vertex(s)
                trace.append((v, s, r))


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
    """Reference fixpoint without a changed set. The degree rules rescan
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
                    unchecked |= closed_neighborhood(g, x)
        since = adjacency_snapshot(g)
        found = None
        for v in sorted(unchecked):
            unchecked.discard(v)
            if g.has_vertex(v) and is_unconfined(g, v):
                found = v
                break
        if found is None:
            return
        trace.append(found)
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
        t, t_ref = [], []
        reduce_fixpoint(g, t)
        reduce_by_rescans(ref, t_ref)
        assert t == t_ref, seed
        assert edge_set(g) == edge_set(ref) and sorted(g.vertices()) == sorted(ref.vertices()), seed

        # the reduced graph loses a few vertices, as a branch does; handed
        # their neighbors, the fixpoint re-examines only the vertices around
        # them
        since = adjacency_snapshot(g)
        live = sorted(g.vertices())
        changed = set()
        for v in rng.sample(live, min(len(live), rng.randrange(1, 7))):
            changed |= g.remove_vertex(v)
        ref = g.clone()
        t, t_ref = [], []
        reduce_fixpoint(g, t, changed)
        reduce_by_rescans(ref, t_ref, since)
        assert t == t_ref, seed
        assert edge_set(g) == edge_set(ref) and sorted(g.vertices()) == sorted(ref.vertices()), seed
        fired += len(t)
    assert fired > 500


def after_a_branch(g, rng):
    """g reduced to its fixpoint, then one branch's deletions: a random vertex
    (include) or its closed neighborhood (exclude). Returns the neighbor
    sets' union, the changed set the search hands the child."""
    reduce_fixpoint(g, [])
    live = sorted(g.vertices())
    if not live:
        return set()
    v = rng.choice(live)
    doomed = [v] if rng.random() < 0.5 else [*sorted(g.neighbors(v)), v]
    return set().union(*map(g.remove_vertex, doomed))


def peel_instances():
    """Graphs for the peel's exactness test, each with the changed set a
    caller may hand the peel, None included: degree-capped random graphs,
    cubic graphs after a branch, whose degree-2 vertices fold, and sparse
    graphs of a few thousand vertices with cubic blocks hung on them."""
    rng = random.Random(47)
    for _ in range(150):
        n = rng.randrange(6, 60)
        g = random_max_degree(n, rng, max_deg=rng.randrange(2, 7), proposals=rng.randrange(n, 4 * n))
        yield g, None
        # a caller vouches for every vertex outside the set
        yield g, {v for v in g.vertices() if g.degree(v) <= 2 or rng.random() < 0.3}
    for seed in range(1, 41):
        g = generate("cubic", 30 + 2 * seed, seed)
        changed = after_a_branch(g, rng)
        yield g, None
        yield g, changed
    for seed in range(1, 4):
        g = sparse_with_blocks(3000, 8, seed)
        yield g, None
        changed = after_a_branch(g, rng)
        yield g, changed


def test_one_pass_peel_matches_the_rule_by_rule_reference():
    """reduce_low_degree fires as the rules written one by one fire, and
    leaves copies of the same graph as they leave them: the same trace, dict
    order, iteration order of every neighbor set and of its copy's (which
    reads the set's table), triangle index, and live members of a given
    changed set."""
    rng = random.Random(5)
    includes = folds = given = 0
    for g, changed in peel_instances():
        if rng.random() < 0.5:
            g.triangles  # build the index, which folds keep up
        ours, ref = g.clone(), g.clone()
        ours_changed = None if changed is None else set(changed)
        ref_changed = None if changed is None else set(changed)
        t, t_ref = [], []
        reduce_low_degree(ours, t, ours_changed)
        reduce_low_degree_by_rules(ref, t_ref, ref_changed)
        check_invariants(ours)
        check_invariants(ref)
        assert t == t_ref
        assert snapshot(ours) == snapshot(ref)
        assert snapshot(ours.clone()) == snapshot(ref.clone())
        if changed is not None:
            live = ours.adjacency().keys()
            assert ours_changed & live == ref_changed & live
            given += 1
        folds += sum(type(entry) is tuple for entry in t)
        includes += sum(type(entry) is int for entry in t)
    assert given >= 190 and folds > 3_000 and includes > 3_000, (given, folds, includes)


def test_fixpoint_adds_every_changed_neighborhood_to_its_set(monkeypatch):
    """Handed the neighbors of a branch's deletions, reduce_fixpoint adds to
    the set every live vertex whose neighborhood its rules change, and no
    other live vertex. A fold adds r and s's other neighbors, taking a
    pendant vertex's neighbor adds that neighbor's neighbors, and deleting an
    isolated vertex adds nothing."""
    unconfined = 0
    real = reductions._first_unconfined

    def counting(adj, unchecked):
        nonlocal unconfined
        v = real(adj, unchecked)
        unconfined += v is not None
        return v

    monkeypatch.setattr(reductions, "_first_unconfined", counting)
    rng = random.Random(31)
    firing = 0  # calls in which the unconfined rule fired
    for seed in range(100):
        g = reducible_instance(seed)
        reduce_fixpoint(g, [])
        live = sorted(g.vertices())
        changed = set()
        for v in rng.sample(live, min(len(live), rng.randrange(1, 7))):
            changed |= g.remove_vertex(v)
        given, before = set(changed), adjacency_snapshot(g)
        if not given:
            continue
        unconfined = 0
        reduce_fixpoint(g, [], changed)
        live = set(g.vertices())
        moved = {x for x in live if g.neighbors(x) != before[x]}
        assert changed & live == (given | moved) & live, seed
        firing += unconfined > 0

    rng = random.Random(3)
    folds = 0
    for _ in range(300):
        n = rng.randrange(3, 10)
        base = Graph.from_edges(
            [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4],
            vertices=range(n),
        )
        for u in (u for u in range(n) if base.degree(u) == 2):
            s, r = sorted(base.neighbors(u))
            g, changed = base.clone(), set()
            fold_degree2(g, u, [], changed)
            if base.has_edge(s, r):
                want = (base.neighbors(s) | base.neighbors(r)) - {u, s, r}
            else:
                want = {r} | (base.neighbors(s) - {u})
                folds += 1
            assert changed & set(g.vertices()) == want
    assert firing >= 15 and folds >= 300

    # K_{4,4} on {0..3} x {4..7}, with 8 joined to 0, 1, 2 and 9, and 9 to 10
    # and 11, which hang off 4, 5 and 6, 7: triangle-free at minimum degree
    # 3. Deleting 10 and 11 leaves 9 pendant, and taking 8 cuts 0, 1 and 2.
    g = Graph.from_edges([
        *((a, b) for a in range(4) for b in range(4, 8)),
        (8, 0), (8, 1), (8, 2), (8, 9), (9, 10), (9, 11), (10, 4), (10, 5), (11, 6), (11, 7),
    ])
    changed = g.remove_vertex(10) | g.remove_vertex(11)
    t = []
    reduce_fixpoint(g, t, changed)
    assert t == [8] and changed & set(g.vertices()) == {0, 1, 2, 4, 5, 6, 7}

    g = Graph.from_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], vertices=[5])
    changed = {5}
    t = []
    reduce_fixpoint(g, t, changed)
    assert changed == {5} and t == [] and g.num_vertices() == 4


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
        reduce_fixpoint(g, [])
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
    t = []
    reduce_fixpoint(prism, t)
    assert t[0] == 0
    assert prism.num_vertices() == 0 and len(t) == 4 == len(lift_cover(t, set()))
