import random
import time

import pytest

from cyclecover.generators import cycle_graph, path_graph, random_tree, star_graph
from cyclecover.graph import Graph
from cyclecover.oracle import is_vertex_cover, min_vc_bruteforce
from cyclecover.treecover import min_vc_forest


def test_rejects_cycles():
    with pytest.raises(ValueError):
        min_vc_forest(cycle_graph(4))


def test_cycle_broken_by_stripping_gets_a_minimum_cover():
    # the pendant's neighbor is taken first, which leaves the triangle a path
    g = cycle_graph(3)
    g.add_edge(0, 3)
    size, cover = min_vc_forest(g)
    assert size == 2 == min_vc_bruteforce(g)[0]
    assert is_vertex_cover(g, cover)
    with pytest.raises(ValueError, match="cycle"):
        min_vc_forest(cycle_graph(3))


def test_empty_and_isolated():
    assert min_vc_forest(Graph()) == (0, set())
    g = Graph()
    g.add_vertex(3)
    assert min_vc_forest(g) == (0, set())


def test_path_and_star():
    size, cover = min_vc_forest(path_graph(9))
    assert size == 4 and is_vertex_cover(path_graph(9), cover)
    size, cover = min_vc_forest(star_graph(6))
    assert size == 1 and cover == {0}


def test_matches_oracle_on_random_trees():
    for seed in range(80):
        rng = random.Random(seed)
        g = random_tree(rng.randrange(1, 17), rng)
        size, cover = min_vc_forest(g)
        assert is_vertex_cover(g, cover)
        assert size == min_vc_bruteforce(g)[0], seed


def test_matches_oracle_on_random_forests():
    for seed in range(40):
        rng = random.Random(1000 + seed)
        g = Graph()
        offset = 0
        for _ in range(rng.randrange(1, 4)):
            t = random_tree(rng.randrange(1, 7), rng)
            for u, v in t.edges():
                g.add_edge(offset + u, offset + v)
            for w in t.vertices():
                if not g.has_vertex(offset + w):
                    g.add_vertex(offset + w)
            offset += 10
        size, cover = min_vc_forest(g)
        assert is_vertex_cover(g, cover)
        assert size == min_vc_bruteforce(g)[0], seed


def test_large_tree_under_a_second():
    rng = random.Random(9)
    g = random_tree(100_000, rng)
    start = time.perf_counter()
    size, cover = min_vc_forest(g)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"{elapsed:.2f}s"
    assert 0 < size < 100_000
    assert is_vertex_cover(g, cover)
