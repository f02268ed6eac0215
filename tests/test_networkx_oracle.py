"""Cross-checks against networkx on graphs past the brute-force oracle's reach.

The circuit rank is compared with the size of a networkx cycle basis, and the
LP bound with a Hopcroft-Karp matching on the bipartite double cover, whose
size is twice the LP optimum. networkx is a test-only dependency: without it
the module is skipped, and the package itself stays standard-library only.
"""

import pytest

from cyclecover.generators import generate
from cyclecover.graph import Graph
from cyclecover.kernel import lp_lower_bound, nt_kernelize
from cyclecover.structure import circuit_rank

from conftest import mixed_instance

nx = pytest.importorskip("networkx")


def corpus():
    for seed in range(300):
        yield mixed_instance(seed, max_n=40)
    for seed in range(1, 4):
        yield generate("cubic", 200, seed)


def to_networkx(g: Graph):
    h = nx.Graph()
    h.add_nodes_from(g.vertices())
    h.add_edges_from(g.edges())
    return h


def double_cover_matching(g: Graph) -> int:
    """Maximum matching of the double cover: u_L-v_R and v_L-u_R per edge."""
    left = [("L", v) for v in g.vertices()]
    b = nx.Graph()
    b.add_nodes_from(left)
    b.add_nodes_from(("R", v) for v in g.vertices())
    for u, v in g.edges():
        b.add_edge(("L", u), ("R", v))
        b.add_edge(("L", v), ("R", u))
    # the returned dict holds each matched pair in both directions
    return len(nx.bipartite.hopcroft_karp_matching(b, top_nodes=left)) // 2


def test_circuit_rank_is_the_cycle_basis_size():
    for i, g in enumerate(corpus()):
        assert circuit_rank(g) == len(nx.cycle_basis(to_networkx(g))), i


def test_lp_value_is_half_the_double_cover_matching():
    for i, g in enumerate(corpus()):
        m = double_cover_matching(g)
        assert lp_lower_bound(g) == (m + 1) // 2, i
        assert nt_kernelize(g.clone(), g.num_vertices()).lp_value == m / 2, i
