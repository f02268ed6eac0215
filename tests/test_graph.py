import random

import pytest

from cyclecover.graph import Graph
from cyclecover.reductions import Include, fold_degree2

from conftest import gnp
from graph_checks import check_invariants, check_triangle_index, edge_set, is_forest


def test_from_edges_builds_and_dedups():
    g = Graph.from_edges([(0, 1), (1, 2), (0, 1)], vertices=[5])
    assert g.num_vertices() == 4
    assert g.num_edges() == 2
    assert g.has_edge(1, 0)
    assert g.degree(5) == 0


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        Graph.from_edges([(2, 2)])
    with pytest.raises(ValueError, match="self-loop"):
        Graph.from_edges([(0, 1), (3, 3)], vertices=range(4))
    g = Graph.from_edges([(0, 1)])
    with pytest.raises(ValueError):
        g.add_edge(1, 1)


def test_from_edges_rejects_negative_ids():
    for edges, vertices in (([], [0, -1]), ([(0, -2)], []), ([(-2, 0)], [0])):
        with pytest.raises(ValueError, match="non-negative"):
            Graph.from_edges(edges, vertices=vertices)


def test_from_edges_matches_add_edge():
    """The same vertex order, neighbor-set iteration order and edge count as
    one add_vertex and add_edge call each, duplicates and reversed pairs
    included."""
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randrange(1, 60)
        pairs = [tuple(rng.sample(range(n + 5), 2)) for _ in range(rng.randrange(3 * n))]
        pairs += rng.sample(pairs, len(pairs) // 4)
        vertices = rng.sample(range(n), n // 2)
        ref = Graph()
        for v in vertices:
            ref.add_vertex(v)
        for u, v in pairs:
            ref.add_edge(u, v)
        g = Graph.from_edges(pairs, vertices=vertices + vertices[:2])
        assert snapshot(g) == snapshot(ref)


def snapshot(g: Graph):
    """Everything a mutation may change, in iteration order; reads the
    triangle index without building it."""
    adj = g.adjacency()
    return (
        [(v, list(nbrs)) for v, nbrs in adj.items()],
        g.num_edges(),
        None if g._triangles is None else set(g._triangles),
    )


def test_remove_vertex_cleans_edges():
    g = Graph.from_edges([(0, 1), (1, 2), (2, 0)])
    assert g.remove_vertex(1) == {0, 2}
    assert g.num_edges() == 1
    assert not g.has_vertex(1)
    assert g.degree(0) == 1
    check_invariants(g)


def test_fold_rehomes_and_drops_parallels():
    # fold 9 (neighbors 0 and 1): edge 0-2 collapses onto 1-2, edge 0-3 moves to 1-3
    g = Graph.from_edges([(9, 0), (9, 1), (1, 2), (0, 2), (0, 3)])
    assert g.fold(9, 0, 1) == {2}  # the common neighbors
    assert not g.has_vertex(9) and not g.has_vertex(0)
    assert g.has_edge(1, 2) and g.has_edge(1, 3)
    assert g.num_edges() == 2
    check_invariants(g)


def test_fold_leaves_adjacent_neighbors_to_fold_degree2():
    g = Graph.from_edges([(0, 1), (0, 2), (1, 2), (2, 3)])
    with pytest.raises(ValueError, match="adjacent"):
        g.fold(0, 1, 2)
    # degree 3, degree 1, not a vertex, not u's neighbors, one neighbor twice
    for bad in ((2, 0, 1), (3, 2, 4), (7, 0, 1), (0, 1, 3), (3, 2, 2)):
        with pytest.raises(ValueError, match="degree-2 vertex"):
            g.fold(*bad)
    assert edge_set(g) == edge_set(Graph.from_edges([(0, 1), (0, 2), (1, 2), (2, 3)]))
    trace = []
    assert fold_degree2(g, 0, trace) == {3}
    assert trace == [Include(1), Include(2)]
    assert sorted(g.vertices()) == [3] and g.num_edges() == 0


def test_failed_fold_and_removal_change_nothing():
    # 0 and 5 have degree 2; 0's neighbors 1 and 2 are not adjacent, 5's are
    g = Graph.from_edges([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (1, 4), (5, 3), (5, 4)])
    assert g.triangles == {1, 3, 4, 5}  # built here, so the snapshot holds it
    before = snapshot(g)
    bad = {
        "u not live": (7, 1, 2),
        "u of degree 4": (3, 1, 2),
        "u of degree 3": (4, 1, 3),
        "s not a neighbor of u": (0, 3, 2),
        "r not a neighbor of u": (0, 1, 4),
        "s not live": (0, 8, 1),
        "s == r": (0, 1, 1),
        "s adjacent to r": (5, 3, 4),
    }
    for why, args in bad.items():
        with pytest.raises(ValueError, match="fold needs"):
            g.fold(*args)
        assert snapshot(g) == before, why
    with pytest.raises(ValueError, match="not live"):
        g.remove_vertex(7)
    assert snapshot(g) == before
    assert g.fold(0, 1, 2) == {3}


def contract_by_edge_moves(g: Graph, keep: int, absorb: int) -> None:
    """Delete absorb, then re-add its former edges onto keep one at a time."""
    for w in sorted(g.remove_vertex(absorb) - {keep}):
        g.add_edge(keep, w)


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
            ref.remove_vertex(u)
            common = ref.neighbors(s) & ref.neighbors(r)
            contract_by_edge_moves(ref, r, s)
            assert g.fold(u, s, r) == common
            assert set(g.vertices()) == set(ref.vertices())
            assert edge_set(g) == edge_set(ref) and g.num_edges() == ref.num_edges()
            check_invariants(g)
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
    assert is_forest(tree) and tree.is_connected()
    cyc = Graph.from_edges([(0, 1), (1, 2), (2, 0)])
    assert not is_forest(cyc)
    two = Graph.from_edges([(0, 1), (2, 3)])
    assert is_forest(two) and not two.is_connected()
    assert is_forest(Graph())


def test_edges_normalized():
    g = Graph.from_edges([(3, 1), (2, 0)])
    assert sorted(g.edges()) == [(0, 2), (1, 3)]


def test_clone_is_independent():
    g = Graph.from_edges([(0, 1)])
    h = g.clone()
    h.remove_vertex(0)
    assert g.has_vertex(0) and g.num_edges() == 1


def test_invariants_hold_under_random_mutation():
    """Also on the triangle index, which is read at every step, so that it is
    rebuilt after every added edge, and on copies and induced subgraphs of
    it."""
    rng, pick = random.Random(42), random.Random(43)
    g = gnp(12, 0.3, rng)
    closing_folds = rebuilds = 0
    for step in range(300):
        if g._triangles is None:
            assert g.triangles == on_triangles(g)
            rebuilds += 1
        op = rng.randrange(4)
        verts = sorted(g.vertices())
        if op == 0 or not verts:
            g.add_vertex(12 + step)
        elif op == 1 and len(verts) >= 2:
            u, v = rng.sample(verts, 2)
            if not g.has_edge(u, v):
                g.add_edge(u, v)
                assert g._triangles is None
        elif op == 2:
            g.remove_vertex(rng.choice(verts))
        else:
            foldable = [u for u in verts if g.degree(u) == 2 and not g.has_edge(*g.neighbors(u))]
            if foldable:
                u = rng.choice(foldable)
                before = on_triangles(g)
                g.fold(u, *sorted(g.neighbors(u)))
                closing_folds += not on_triangles(g) <= before
        check_invariants(g)
        check_triangle_index(g)
        check_triangle_index(g.clone())
        live = sorted(g.vertices())
        check_triangle_index(g.induced_subgraph(pick.sample(live, len(live) // 2)))
        assert g.num_components() == len(g.connected_components())
    assert closing_folds >= 2 and rebuilds >= 50  # 58 seen


def on_triangles(g):
    return {v for v in g.vertices() if g.on_triangle(v)}


def test_triangle_index_gains_what_a_mutation_closes():
    """Folding 0 merges 1 into 2 on the 5-cycle 0-1-3-4-2: the new edge 2-3
    closes the triangle 2-3-4, whose third vertex 4 was 2's neighbor all
    along. Adding an edge closes a triangle too; it drops the index, and
    the next read finds the triangle."""
    g = Graph.from_edges([(0, 1), (0, 2), (1, 3), (3, 4), (2, 4)])
    assert g.triangles == set()
    g.fold(0, 1, 2)
    check_triangle_index(g)
    assert on_triangles(g) == {2, 3, 4} <= g.triangles

    g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
    assert g.triangles == set()
    g.add_edge(0, 2)
    assert g._triangles is None
    assert on_triangles(g) == {0, 1, 2} == g.triangles


def test_triangle_index_is_carried_by_copies():
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    assert g.clone()._triangles is None and g.induced_subgraph([0, 1])._triangles is None
    assert g._triangles is None  # the copies did not build it either
    assert g.triangles == {0, 1, 2}
    twin = g.clone()
    assert twin.triangles == g.triangles and twin.triangles is not g.triangles
    assert g.induced_subgraph([1, 2, 3]).triangles == {1, 2}
    g.remove_vertex(0)  # 1 and 2 stay as stale members, allowed by the contract
    check_triangle_index(g)


def test_triangle_index_is_built_on_first_read():
    """The first read is exact, and later reads return the same set. An
    added edge drops a built index, and the next read is exact again. A
    fold keeps a superset. Copies carry a built index and leave an unbuilt
    one unbuilt."""
    rng = random.Random(9)
    folds = added = 0
    for _ in range(200):
        n = rng.randrange(3, 16)
        g = gnp(n, rng.uniform(0.1, 0.5), rng)
        keep = rng.sample(range(n), n // 2)
        assert g.clone()._triangles is None and g.induced_subgraph(keep)._triangles is None
        assert g._triangles is None
        index = g.triangles
        assert index == on_triangles(g) and g.triangles is index
        twin = g.clone()
        assert twin._triangles == index and twin._triangles is not index
        assert g.induced_subgraph(keep)._triangles == index & set(keep)

        foldable = [u for u in sorted(g.vertices()) if g.degree(u) == 2 and not g.has_edge(*g.neighbors(u))]
        if foldable:
            g.fold(foldable[0], *sorted(g.neighbors(foldable[0])))
            assert g.triangles is index and on_triangles(g) <= index
            folds += 1
        missing = [(u, v) for u in g.vertices() for v in g.vertices() if u < v and not g.has_edge(u, v)]
        if missing:
            g.add_edge(*rng.choice(missing))
            assert g._triangles is None
            assert g.triangles == on_triangles(g)
            added += 1
    assert folds >= 50 and added >= 150
