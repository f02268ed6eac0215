import random

import pytest

from cyclecover.graph import Graph

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


def test_contract_pair_rehomes_and_drops_parallels():
    # absorb 1 into 0: edge 1-2 moves to 0-2, edge 0-2 already there stays single
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (1, 3)])
    assert g.contract_pair(keep=0, absorb=1) == {2}  # the common neighbors
    assert not g.has_vertex(1)
    assert g.has_edge(0, 2) and g.has_edge(0, 3)
    assert g.num_edges() == 2
    g.check_invariants()


def test_contract_pair_drops_mutual_edge():
    g = Graph.from_edges([(0, 1)])
    assert g.contract_pair(keep=0, absorb=1) == set()
    assert g.num_edges() == 0 and g.has_vertex(0)


def test_contract_pair_matches_edge_moves():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randrange(2, 9)
        g = Graph.from_edges(
            [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4],
            vertices=range(n),
        )
        keep, absorb = rng.sample(range(n), 2)
        common = g.neighbors(keep) & g.neighbors(absorb)
        ref = g.clone()
        for w in sorted(ref.neighbors(absorb)):
            ref.remove_edge(absorb, w)
            if w != keep:
                ref.add_edge(keep, w)
        ref.remove_vertex(absorb)
        assert g.contract_pair(keep, absorb) == common
        assert g.edge_set() == ref.edge_set() and g.num_edges() == ref.num_edges()
        g.check_invariants()


def test_components_ordered_by_minimum_member():
    g = Graph.from_edges([(7, 8), (0, 1), (3, 4)])
    comps = g.connected_components()
    assert [min(c) for c in comps] == [0, 3, 7]
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
    g.contract_pair(4, 3)
    assert g.touched == {0, 2, 3, 4, 8, 9}
    # absorb and its neighbors count as changed, keep only if it gained an edge
    g.add_edge(5, 2)
    g.add_edge(5, 8)
    g.touched = set()
    assert g.contract_pair(4, 5) == {2, 8}
    assert g.touched == {2, 5, 8}
    g.add_edge(6, 0)
    g.touched = set()
    assert g.contract_pair(4, 6) == set()
    assert g.touched == {0, 4, 6}
    g.touched = set()
    g.contract_pair(4, 9)  # an isolated vertex changes no neighborhood
    assert g.touched == set()
    assert g.clone().touched is None
    g.touched = None
    g.add_edge(0, 2)
    assert g.touched is None


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
        elif len(verts) >= 2:
            u, v = rng.sample(verts, 2)
            g.contract_pair(keep=u, absorb=v)
        g.check_invariants()
    assert g.num_vertices() >= 0
