import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclecover.generators import cycle_graph, petersen_graph, star_graph
from cyclecover.graph import Graph
from cyclecover.structure import (
    circuit_rank,
    extra_degree,
    extra_degree_graph,
    strip_lines,
    tau,
    tau_upper_bound,
)

from conftest import mixed_instance
from graph_checks import is_forest

edge_lists = st.lists(
    st.tuples(st.integers(0, 11), st.integers(0, 11)).filter(lambda e: e[0] != e[1]),
    max_size=40,
)


def test_extra_degree_values():
    g = star_graph(5)  # center degree 5
    assert extra_degree(g, 0) == 3
    assert extra_degree(g, 1) == 0
    assert extra_degree_graph(g) == 3
    assert extra_degree_graph(cycle_graph(6)) == 0


def test_petersen_counts():
    p = petersen_graph()
    assert extra_degree_graph(p) == 10
    assert tau(p) == 6
    assert circuit_rank(p) == 6
    assert tau_upper_bound(p) == 6


def test_strip_lines_removes_all_low_degree():
    g = Graph.from_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])  # triangle + tail
    s = strip_lines(g)
    assert sorted(s.vertices()) == [0, 1, 2]
    assert tau(s) == tau(g) == 1
    # original untouched
    assert g.has_vertex(4)


@given(edge_lists)
@settings(max_examples=200, deadline=None)
def test_tau_equals_circuit_rank(edges):
    g = Graph.from_edges(edges)
    assert tau(g) == circuit_rank(g)


@given(edge_lists)
@settings(max_examples=200, deadline=None)
def test_strip_preserves_tau_and_min_degree(edges):
    g = Graph.from_edges(edges)
    s = strip_lines(g)
    assert tau(s) == tau(g)
    assert all(s.degree(v) >= 2 for v in s.vertices())


@given(edge_lists)
@settings(max_examples=150, deadline=None)
def test_tau_zero_iff_forest(edges):
    g = Graph.from_edges(edges)
    assert (tau(g) == 0) == is_forest(g)


@given(st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_edge_addition_increments_tau_when_connected(seed):
    g = mixed_instance(seed, max_n=14)
    if not g.is_connected() or g.num_vertices() < 2:
        return
    verts = sorted(g.vertices())
    rng = random.Random(seed)
    for _ in range(20):
        u, v = rng.sample(verts, 2)
        if not g.has_edge(u, v):
            before = tau(g)
            g.add_edge(u, v)
            assert tau(g) == before + 1
            return


@given(st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_upper_bound_on_connected(seed):
    g = mixed_instance(seed, max_n=16)
    if not g.is_connected() or g.num_vertices() == 0:
        return
    assert tau(g) <= tau_upper_bound(g)


def test_upper_bound_rejects_disconnected():
    with pytest.raises(ValueError):
        tau_upper_bound(Graph.from_edges([(0, 1), (2, 3)]))
    with pytest.raises(ValueError):
        tau_upper_bound(Graph())


def test_min_degree_two_tau_is_half_extra_degree():
    # on a stripped graph the count is exactly ex/2 + 1 per component
    g = Graph.from_edges([(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
    assert all(g.degree(v) >= 2 for v in g.vertices())
    assert tau(g) == extra_degree_graph(g) // 2 + 1
