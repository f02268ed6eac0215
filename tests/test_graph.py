import random

import pytest

from cyclecover.graph import Graph
from cyclecover.reductions import DeleteIsolated, Include, ReductionTrace, fold_degree2

from conftest import gnp


def test_from_edges_builds_and_dedups():
    g = Graph.from_edges([(0, 1), (1, 2), (0, 1)], vertices=[5])
    assert g.num_vertices() == 4
    assert g.num_edges() == 2
    assert g.has_edge(1, 0)
    assert g.degree(5) == 0


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        Graph.from_edges([(2, 2)])
    g = Graph.from_edges([(0, 1)])
    with pytest.raises(ValueError):
        g.add_edge(1, 1)


def test_add_vertex_returns_fresh_ids():
    g = Graph()
    a = g.add_vertex()
    b = g.add_vertex()
    assert a != b
    g.remove_vertex(b)
    c = g.add_vertex()
    # ids are never reused, even after removal
    assert c not in (a, b)


def test_remove_vertex_cleans_edges():
    g = Graph.from_edges([(0, 1), (1, 2), (2, 0)])
    assert g.remove_vertex(1) == {0, 2}
    assert g.num_edges() == 1
    assert not g.has_vertex(1)
    assert g.degree(0) == 1
    g.check_invariants()


def test_fold_rehomes_and_drops_parallels():
    # fold 9 (neighbors 0 and 1): edge 0-2 collapses onto 1-2, edge 0-3 moves to 1-3
    g = Graph.from_edges([(9, 0), (9, 1), (1, 2), (0, 2), (0, 3)])
    assert g.fold(9, 0, 1) == {2}  # the common neighbors
    assert not g.has_vertex(9) and not g.has_vertex(0)
    assert g.has_edge(1, 2) and g.has_edge(1, 3)
    assert g.num_edges() == 2
    g.check_invariants()
    for dead in (0, 9):
        with pytest.raises(ValueError, match="was deleted"):
            g.add_vertex(dead)


def test_fold_leaves_adjacent_neighbors_to_fold_degree2():
    g = Graph.from_edges([(0, 1), (0, 2), (1, 2), (2, 3)])
    g.touched = set()
    with pytest.raises(ValueError, match="adjacent"):
        g.fold(0, 1, 2)
    # degree 3, degree 1, not a vertex, not u's neighbors, one neighbor twice
    for bad in ((2, 0, 1), (3, 2, 4), (7, 0, 1), (0, 1, 3), (3, 2, 2)):
        with pytest.raises(ValueError, match="degree-2 vertex"):
            g.fold(*bad)
    assert g.edge_set() == Graph.from_edges([(0, 1), (0, 2), (1, 2), (2, 3)]).edge_set()
    assert g.touched == set()
    trace = ReductionTrace()
    assert fold_degree2(g, 0, trace) == {3}
    assert trace.entries == [Include(1), Include(2), DeleteIsolated(0)] and trace.k_delta == 2
    assert sorted(g.vertices()) == [3] and g.num_edges() == 0


def contract_by_edge_moves(g: Graph, keep: int, absorb: int) -> None:
    """Re-home absorb's edges onto keep one at a time, then delete absorb."""
    for w in sorted(g.neighbors(absorb)):
        g.remove_edge(absorb, w)
        if w != keep:
            g.add_edge(keep, w)
    g.remove_vertex(absorb)


def test_fold_matches_two_step_reference():
    rng = random.Random(3)
    folds = 0
    for _ in range(300):
        n = rng.randrange(3, 10)
        base = Graph.from_edges(
            [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4],
            vertices=range(n),
        )
        for u in range(n):
            if base.degree(u) != 2:
                continue
            s, r = sorted(base.neighbors(u))
            if base.has_edge(s, r):
                continue
            g, ref = base.clone(), base.clone()
            g.touched, ref.touched = set(), set()
            ref.remove_vertex(u)
            common = ref.neighbors(s) & ref.neighbors(r)
            contract_by_edge_moves(ref, r, s)
            assert g.fold(u, s, r) == common
            assert set(g.vertices()) == set(ref.vertices())
            assert g.edge_set() == ref.edge_set() and g.num_edges() == ref.num_edges()
            live = set(g.vertices())
            assert g.touched & live == ref.touched & live == {r} | (base.neighbors(s) - {u})
            g.check_invariants()
            folds += 1
    assert folds >= 300


def test_components_ordered_by_minimum_member():
    g = Graph.from_edges([(7, 8), (0, 1), (3, 4)])
    comps = g.connected_components()
    assert [min(c) for c in comps] == [0, 3, 7]
    assert g.num_components() == 3 and Graph().num_components() == 0
    assert all(c == sorted(c) for c in comps)


def test_is_forest_and_connected():
    tree = Graph.from_edges([(0, 1), (1, 2), (1, 3)])
    assert tree.is_forest() and tree.is_connected()
    cyc = Graph.from_edges([(0, 1), (1, 2), (2, 0)])
    assert not cyc.is_forest()
    two = Graph.from_edges([(0, 1), (2, 3)])
    assert two.is_forest() and not two.is_connected()
    assert Graph().is_forest()


def test_induced_subgraph_keeps_id_counter():
    g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
    sub = g.induced_subgraph([1, 2])
    assert sub.num_edges() == 1 and sub.num_vertices() == 2
    fresh = sub.add_vertex()
    assert fresh >= 4  # no collision with vertices outside the kept set


def test_edges_normalized():
    g = Graph.from_edges([(3, 1), (2, 0)])
    assert sorted(g.edges()) == [(0, 2), (1, 3)]


def test_clone_is_independent():
    g = Graph.from_edges([(0, 1)])
    h = g.clone()
    h.remove_vertex(0)
    assert g.has_vertex(0) and g.num_edges() == 1


def test_touched_collects_changed_neighborhoods():
    g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4)])
    assert g.touched is None
    g.touched = set()
    g.remove_vertex(1)
    assert g.touched == {0, 2}
    g.add_vertex(9)
    g.add_edge(3, 8)
    assert g.touched == {0, 2, 3, 8, 9}
    # a fold marks r and every neighbor of s but u, whether or not r gains an edge
    g.add_edge(2, 5)
    g.add_edge(4, 5)
    g.remove_edge(3, 8)
    g.touched = set()
    assert g.fold(3, 2, 4) == {5}  # edge 2-5 collapses onto 4-5
    assert g.touched == {4, 5}
    g.add_edge(7, 5)
    g.add_edge(7, 9)
    g.add_edge(9, 8)
    g.touched = set()
    assert g.fold(7, 5, 9) == set()  # edge 5-4 moves to 9-4
    assert g.touched == {4, 9} and g.has_edge(9, 4)
    # copies carry the marks: a set is copied, None stays None
    g.touched = {0, 4}
    h = g.clone()
    assert h.touched == {0, 4} and h.touched is not g.touched
    h.remove_vertex(0)
    assert g.touched == {0, 4}
    g.touched = None
    assert g.clone().touched is None
    g.add_edge(0, 4)
    assert g.touched is None


def test_induced_subgraph_inherits_marks_and_marks_cut_vertices():
    g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7)])
    assert g.induced_subgraph([0, 1, 2]).touched is None
    g.touched = {0, 3, 5}
    # 0 keeps its mark; 2 lost its neighbor 3 and 6 lost 5; 1 and 7 lost nothing
    sub = g.induced_subgraph([0, 1, 2, 6, 7])
    assert sub.touched == {0, 2, 6}
    assert g.touched == {0, 3, 5}
    g.touched = set()
    assert g.induced_subgraph([5, 6, 7]).touched == set()  # a whole component


def test_invariants_hold_under_random_mutation():
    rng = random.Random(42)
    g = gnp(12, 0.3, rng)
    for step in range(300):
        op = rng.randrange(4)
        verts = sorted(g.vertices())
        if op == 0 or not verts:
            g.add_vertex()
        elif op == 1 and len(verts) >= 2:
            u, v = rng.sample(verts, 2)
            if not g.has_edge(u, v):
                g.add_edge(u, v)
            else:
                g.remove_edge(u, v)
        elif op == 2:
            g.remove_vertex(rng.choice(verts))
        else:
            foldable = [u for u in verts if g.degree(u) == 2 and not g.has_edge(*g.neighbors(u))]
            if foldable:
                u = rng.choice(foldable)
                g.fold(u, *sorted(g.neighbors(u)))
        g.check_invariants()
        assert g.num_components() == len(g.connected_components())
    assert g.num_vertices() >= 0
