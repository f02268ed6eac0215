import itertools
import random

import pytest

from cyclecover.errors import ResourceLimitError
from cyclecover.generators import complete_graph, cycle_graph, path_graph, petersen_graph, star_graph
from cyclecover.graph import Graph
from cyclecover.oracle import BRUTEFORCE_MAX_VERTICES, is_vertex_cover, min_vc_bruteforce
from cyclecover.structure import tau

from conftest import gnp, mixed_instance
from cycle_oracle import enumerate_simple_cycles, is_valid_cycle_order, max_real_cycle_bruteforce


def naive_min_vc(g):
    """Direct subset enumeration, the slow reference for the reference."""
    verts = sorted(g.vertices())
    edges = list(g.edges())
    for size in range(len(verts) + 1):
        for sub in itertools.combinations(verts, size):
            s = set(sub)
            if all(u in s or v in s for u, v in edges):
                return size, s
    return 0, set()


def test_is_vertex_cover_basics():
    g = Graph.from_edges([(0, 1), (1, 2)])
    assert is_vertex_cover(g, {1})
    assert not is_vertex_cover(g, {0})
    assert is_vertex_cover(Graph(), set())
    with pytest.raises(ValueError):
        is_vertex_cover(g, {9})


def test_known_minimum_sizes():
    assert min_vc_bruteforce(cycle_graph(7))[0] == 4
    assert min_vc_bruteforce(cycle_graph(8))[0] == 4
    assert min_vc_bruteforce(path_graph(9))[0] == 4
    assert min_vc_bruteforce(complete_graph(6))[0] == 5
    assert min_vc_bruteforce(star_graph(7))[0] == 1
    assert min_vc_bruteforce(petersen_graph())[0] == 6


def test_certificates_are_covers():
    rng = random.Random(3)
    for _ in range(40):
        g = gnp(rng.randrange(2, 14), rng.uniform(0.1, 0.8), rng)
        size, cover = min_vc_bruteforce(g)
        assert is_vertex_cover(g, cover)
        assert len(cover) == size


def test_matches_naive_enumeration():
    for seed in range(60):
        g = mixed_instance(seed, max_n=10)
        assert min_vc_bruteforce(g)[0] == naive_min_vc(g)[0], seed


def test_vertex_guard():
    g = gnp(BRUTEFORCE_MAX_VERTICES + 1, 0.1, random.Random(0))
    with pytest.raises(ResourceLimitError):
        min_vc_bruteforce(g)


def test_cycle_enumeration_counts():
    assert len(enumerate_simple_cycles(cycle_graph(5))) == 1
    # K4: four triangles plus three 4-cycles
    assert len(enumerate_simple_cycles(complete_graph(4))) == 7
    assert enumerate_simple_cycles(path_graph(6)) == []


def test_cycle_enumeration_canonical_form():
    for cyc in enumerate_simple_cycles(complete_graph(4)):
        assert cyc[0] == min(cyc)
        assert cyc[1] < cyc[-1]
        assert len(set(cyc)) == len(cyc) >= 3


def test_cycle_enumeration_limit():
    with pytest.raises(ResourceLimitError):
        enumerate_simple_cycles(complete_graph(9), limit=50)


def test_max_real_cycle_equals_tau_small():
    hit = 0
    for seed in range(40):
        g = mixed_instance(seed, max_n=9)
        try:
            got, witness = max_real_cycle_bruteforce(g)
        except ResourceLimitError:
            continue
        hit += 1
        assert got == tau(g), seed
        assert is_valid_cycle_order(g, witness)
        assert len(witness.cycles) == got
    assert hit > 20


def test_max_real_cycle_guard():
    with pytest.raises(ResourceLimitError):
        max_real_cycle_bruteforce(complete_graph(8), max_cycles=10)
