import random
from collections import deque

import pytest

from cyclecover.generators import complete_graph, generate, petersen_graph, random_max_degree
from cyclecover.graph import Graph
from cyclecover.selection import RuleTag, mirrors, select, shortest_cycle_through

from conftest import gnp, mixed_instance
from graph_checks import closed_neighborhood, estimate_vector


def prism():
    # two triangles joined by a matching; 3-regular, girth 3
    return Graph.from_edges([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)])


def test_estimate_vector_regular_examples():
    cubic = petersen_graph()
    assert estimate_vector(cubic, 0) == (2, 4)
    k5 = complete_graph(5)  # degree 4, neighbor degrees 4 each
    assert estimate_vector(k5, 0) == (3, 9)
    star_plus = Graph.from_edges(
        [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (2, 5), (2, 6), (3, 5), (3, 6), (4, 5), (4, 6)]
    )
    # degree 4, every neighbor degree 3: exclude estimate 12 - 8 + 1 = 5
    assert estimate_vector(star_plus, 0) == (3, 5)
    wheel = Graph.from_edges(
        [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
    )
    assert estimate_vector(wheel, 0) == (4, 6)


def test_estimate_vector_degree_floor():
    with pytest.raises(ValueError):
        estimate_vector(Graph.from_edges([(0, 1), (0, 2)]), 0)


def test_high_degree_wins():
    g = complete_graph(6)
    plan = select(g)
    assert plan.rule_tag is RuleTag.HIGH_DEGREE
    assert plan.vertex == 0
    assert plan.mirrors == frozenset()


def test_degree4_prefers_a_vertex_with_mirrors():
    g = Graph.from_edges(
        [(0, 1), (0, 3), (0, 4), (0, 6), (1, 2), (1, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 6), (5, 6)]
    )
    # 0, 3 and 4 have degree 4 and tie on the exclude estimate; 0 has no
    # mirror, so the lowest id among the others wins
    assert {u: estimate_vector(g, u) for u in (0, 3, 4)} == {0: (3, 7), 3: (3, 7), 4: (3, 7)}
    assert mirrors(g, 0) == frozenset()
    plan = select(g)
    assert plan.rule_tag is RuleTag.DEGREE4
    assert plan.vertex == 3
    assert plan.mirrors == frozenset({2, 6})


def test_mirror_needs_a_clique_remainder():
    hub = [(0, 1), (0, 2), (0, 3), (0, 4)]
    # N(0) - N(5) = {3, 4} is not a clique, whatever the degree of 5
    assert mirrors(Graph.from_edges(hub + [(5, 1), (5, 2)]), 0) == frozenset()
    # ... until 3 and 4 are adjacent
    assert mirrors(Graph.from_edges(hub + [(5, 1), (5, 2), (3, 4)]), 0) == frozenset({5})
    # one vertex left over is always a clique
    assert mirrors(Graph.from_edges(hub + [(5, 1), (5, 2), (5, 3)]), 0) == frozenset({5})
    # a mirror need not be a satellite: 6 is a neighbor of 5 outside N(0)
    assert mirrors(Graph.from_edges(hub + [(5, 1), (5, 2), (5, 3), (5, 6)]), 0) == frozenset({5})
    # a triangle left over, and the same with one of its edges missing
    triangle = [(2, 3), (3, 4), (2, 4)]
    assert mirrors(Graph.from_edges(hub + [(5, 1)] + triangle), 0) == frozenset({5})
    assert mirrors(Graph.from_edges(hub + [(5, 1)] + triangle[:2]), 0) == frozenset()


def mirrors_by_definition(g, v):
    """Reference: the vertices at distance two whose N(v) - N(u) is pairwise
    adjacent."""
    near = closed_neighborhood(g, v)
    second = {u for w in g.neighbors(v) for u in g.neighbors(w)} - near
    found = set()
    for u in second:
        rest = sorted(g.neighbors(v) - g.neighbors(u))
        if all(g.has_edge(x, y) for i, x in enumerate(rest) for y in rest[i + 1 :]):
            found.add(u)
    return found


def test_mirrors_match_definition():
    """With the exact triangle index, where a vertex on no triangle takes
    the common-neighbor count, and on copies with every vertex indexed,
    where none does."""
    rng = random.Random(11)
    with_mirrors = counted = counted_with_mirrors = 0
    for seed in range(200):
        if seed % 2:
            g = mixed_instance(seed, max_n=30)
        else:
            n = rng.randrange(4, 30)
            g = random_max_degree(n, rng, max_deg=rng.choice((3, 4, 5, 6)), proposals=4 * n)
        plain = g.clone()
        plain.triangles.update(plain.vertices())
        for v in sorted(g.vertices()):
            want = mirrors_by_definition(g, v)
            assert mirrors(g, v) == want, (seed, v)
            assert mirrors(plain, v) == want, (seed, v)
            with_mirrors += bool(want)
            if v not in g.triangles:
                counted += 1
                counted_with_mirrors += bool(want)
    assert with_mirrors > 200
    assert counted > 1000 and counted_with_mirrors > 500


def test_shortest_cycle_lengths():
    assert shortest_cycle_through(prism(), 0, 7) == 3
    for v in range(10):
        assert shortest_cycle_through(petersen_graph(), v, 11) == 5
    g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    assert shortest_cycle_through(g, 1, 6) == 3
    assert shortest_cycle_through(Graph.from_edges([(0, 1), (1, 2)]), 1, 4) == 4


def test_cubic_rule_picks_smallest_girth_vertex():
    g = petersen_graph()
    plan = select(g)
    assert plan.rule_tag is RuleTag.DEGREE3_REGULAR
    assert plan.vertex == 0
    assert estimate_vector(g, plan.vertex) == (2, 4)
    # disjoint union: the prism's triangle vertices beat the Petersen girth
    both = Graph()
    for u, v in g.edges():
        both.add_edge(u, v)
    for u, v in prism().edges():
        both.add_edge(10 + u, 10 + v)
    plan = select(both)
    assert plan.vertex == 10


def test_select_rejects_unreduced_input():
    with pytest.raises(ValueError):
        select(Graph())
    with pytest.raises(ValueError):
        select(Graph.from_edges([(0, 1), (1, 2)]))


def cycle_through_per_edge(g, v):
    """Reference: one BFS per edge at v with that edge removed."""
    best = g.num_vertices() + 1
    for w in g.neighbors(v):
        seen = {v: 0}
        queue = deque([v])
        while queue and w not in seen:
            u = queue.popleft()
            for x in g.neighbors(u):
                if x not in seen and (u, x) != (v, w):
                    seen[x] = seen[u] + 1
                    queue.append(x)
        if w in seen:
            best = min(best, seen[w] + 1)
    return best


def test_shortest_cycle_matches_per_edge_bfs():
    rng = random.Random(7)
    checked = 0
    for seed in range(60):
        n = rng.randrange(4, 40)
        g = [
            gnp(n, rng.uniform(0.05, 0.3), rng),
            random_max_degree(n, rng, max_deg=rng.choice((3, 4, 5))),
            generate("cubic", n + n % 2, seed),
        ][seed % 3]
        for v in sorted(g.vertices()):
            want = cycle_through_per_edge(g, v)
            assert shortest_cycle_through(g, v, g.num_vertices() + 1) == want, (seed, v)
            for stop in range(1, want + 3):
                # a stop never hides a cycle shorter than itself
                assert shortest_cycle_through(g, v, stop) == min(want, stop), (seed, v, stop)
            checked += 1
    assert checked > 1000


def test_cubic_rule_matches_reference_choice():
    """With the exact triangle index, and with one that has members on no
    triangle, as deletions leave them."""
    on_triangles = 0
    for seed in range(40):
        g = generate("cubic", 8 + 2 * (seed % 20), seed)
        want = min(sorted(g.vertices()), key=lambda u: (cycle_through_per_edge(g, u), u))
        assert select(g).vertex == want, seed
        on_triangles += bool(g.triangles)
        g.triangles.update(g.vertices())
        assert select(g).vertex == want, seed
    assert on_triangles >= 10
