import random

import pytest

from cyclecover.errors import ResourceLimitError
from cyclecover.generators import complete_graph, cycle_graph, generate, petersen_graph, random_max_degree
from cyclecover.graph import Graph
from cyclecover.oracle import is_vertex_cover, min_vc_bruteforce
from cyclecover.search import (
    SolverConfig,
    check_node_budget,
    vc_decide,
    vc_minimum,
)

from conftest import mixed_instance


def test_trivial_graphs():
    assert vc_minimum(Graph())[0] == 0
    g = Graph()
    g.add_vertex(1)
    assert vc_minimum(g)[0] == 0
    size, cover, _ = vc_minimum(Graph.from_edges([(0, 1)]))
    assert size == 1 and len(cover) == 1


def test_decide_rejects_negative_k():
    with pytest.raises(ValueError):
        vc_decide(Graph(), -1)


def test_decide_boundaries_on_known_graphs():
    cases = [
        (cycle_graph(7), 4),
        (complete_graph(5), 4),
        (petersen_graph(), 6),
    ]
    for g, opt in cases:
        assert vc_decide(g, opt).answer == "YES"
        assert vc_decide(g, opt - 1).answer == "NO"
        v = vc_decide(g, opt)
        assert is_vertex_cover(g, v.cover)
        assert len(v.cover) <= opt


def test_k_zero():
    g = Graph.from_edges([(0, 1)])
    assert vc_decide(g, 0).answer == "NO"
    empty = Graph()
    assert vc_decide(empty, 0).answer == "YES"
    assert vc_decide(empty, 0).cover == set()


@pytest.mark.parametrize("struction", [False, True])
def test_minimum_matches_oracle(struction):
    cfg = SolverConfig(struction=struction, instrument_tau=True)
    for seed in range(150):
        g = mixed_instance(seed, max_n=16)
        opt, _ = min_vc_bruteforce(g)
        size, cover, stats = vc_minimum(g, cfg)
        assert size == opt, (seed, struction)
        assert is_vertex_cover(g, cover)
        assert len(cover) == size
        assert stats.tau_trajectory_ok and stats.tau_drop_ok and stats.est_bound_ok, seed


def test_decide_matches_oracle_at_boundary():
    for seed in range(80):
        g = mixed_instance(seed, max_n=15)
        opt, _ = min_vc_bruteforce(g)
        yes = vc_decide(g, opt)
        assert yes.answer == "YES" and is_vertex_cover(g, yes.cover), seed
        if opt > 0:
            assert vc_decide(g, opt - 1).answer == "NO", seed


def test_disconnected_components_add_up():
    rng = random.Random(5)
    for seed in range(30):
        a = mixed_instance(seed, max_n=10)
        b = mixed_instance(seed + 500, max_n=10)
        both = Graph()
        for u, v in a.edges():
            both.add_edge(u, v)
        off = 100
        for u, v in b.edges():
            both.add_edge(off + u, off + v)
        expect = min_vc_bruteforce(a)[0] + min_vc_bruteforce(b)[0]
        size, cover, _ = vc_minimum(both)
        assert size == expect, seed
        assert is_vertex_cover(both, cover)


def test_config_variants_agree():
    base = [mixed_instance(s, max_n=14) for s in range(25)]
    answers = [vc_minimum(g)[0] for g in base]
    for cfg in (SolverConfig(), SolverConfig(struction=True)):
        for g, want in zip(base, answers):
            assert vc_minimum(g, cfg)[0] == want
            assert vc_decide(g, want, cfg).answer == "YES"
            if want:
                assert vc_decide(g, want - 1, cfg).answer == "NO"


def test_node_budget_raises():
    g = generate("cubic", 30, 3)
    with pytest.raises(ResourceLimitError):
        vc_minimum(g, SolverConfig(node_budget=2))


def test_depth_limit_raises():
    g = generate("cubic", 30, 3)
    with pytest.raises(ResourceLimitError):
        vc_minimum(g, SolverConfig(depth_limit=0))


def test_stats_are_populated():
    g = petersen_graph()
    size, cover, stats = vc_minimum(g)
    assert stats.nodes_expanded >= 1
    assert stats.tau_root == 6
    assert stats.wallclock >= 0.0
    report = check_node_budget(stats, size)
    assert report["k"] == 6
    assert report["envelope_1_15855"] == pytest.approx(1.15855**6)
    assert report["nodes_expanded"] == stats.nodes_expanded


def test_deterministic_covers():
    for seed in (2, 11, 23):
        g = mixed_instance(seed, max_n=16)
        first = vc_minimum(g)
        for _ in range(2):
            again = vc_minimum(g)
            assert again[0] == first[0] and again[1] == first[1]


# (graph, optimum, nodes in vc_minimum, nodes in vc_decide at optimum - 1);
# a change to the search may lower a count, never raise it
PINNED_NODES = [
    (("cubic", 1), 34, 31, 31),
    (("cubic", 2), 33, 17, 13),
    (("cubic", 3), 33, 23, 19),
    (("maxdeg5", 1), 30, 53, 41),
    (("maxdeg5", 2), 31, 31, 31),
    (("maxdeg5", 3), 31, 31, 31),
]


@pytest.mark.parametrize(
    "instance, opt, min_nodes, no_nodes", PINNED_NODES, ids=[f"{m}-{s}" for (m, s), *_ in PINNED_NODES]
)
def test_node_counts_pinned(instance, opt, min_nodes, no_nodes):
    model, seed = instance
    if model == "cubic":
        g = generate("cubic", 60, seed)
    else:
        g = random_max_degree(50, random.Random(seed), max_deg=5, proposals=250)
    size, _, stats = vc_minimum(g)
    assert (size, stats.nodes_expanded) == (opt, min_nodes)
    verdict = vc_decide(g, opt - 1)
    assert (verdict.answer, verdict.stats.nodes_expanded) == ("NO", no_nodes)
