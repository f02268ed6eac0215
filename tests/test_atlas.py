"""Every graph on up to 7 vertices, from the networkx graph atlas, under
three random relabelings, checked against the brute-force oracle.

The sweep runs the search in both modes, the lower-bound check at every cap
and packing gate, and the reductions with their lifted cover. It also runs
every reader of ``Graph.triangles``: the search's reductions and selection
build and read the index, and the bound check and selection must answer the
same with it as without it. networkx is a test-only dependency: without it
the module is skipped.
"""

import random

import pytest

from cyclecover.graph import Graph
from cyclecover.kernel import bound_exceeds
from cyclecover.oracle import is_vertex_cover, min_vc_bruteforce
from cyclecover.reductions import lift_cover, reduce_fixpoint
from cyclecover.search import vc_decide, vc_minimum
from cyclecover.selection import select

nx = pytest.importorskip("networkx")

RELABELINGS = 3
PACKING_GATES = (0, 2, 4, 99)  # the most argument of bound_exceeds


def atlas_twins():
    """Each non-empty atlas graph under RELABELINGS random id assignments,
    its vertices added in a random order."""
    rng = random.Random(7)
    for h in nx.graph_atlas_g():
        if h.number_of_edges() == 0:
            continue
        for _ in range(RELABELINGS):
            ids = rng.sample(range(100), h.number_of_nodes())
            name = dict(zip(h.nodes, ids))
            yield Graph.from_edges(((name[u], name[v]) for u, v in h.edges), rng.sample(ids, len(ids)))


def test_every_small_graph_against_brute_force():
    graphs = packing_prunes = selections = 0
    for g in atlas_twins():
        graphs += 1
        n = g.num_vertices()
        opt = min_vc_bruteforce(g)[0]

        size, cover, _ = vc_minimum(g)
        assert size == opt == len(cover) and is_vertex_cover(g, cover)
        for k in range(n + 1):
            verdict = vc_decide(g, k)
            assert (verdict.answer == "YES") == (k >= opt), k
            if verdict.cover is not None:
                assert len(verdict.cover) <= k and is_vertex_cover(g, verdict.cover)

        # a copy may iterate a neighbor set in another order than g, and
        # with it pack other cycles, so both sides of the comparison are copies
        plain, indexed = g.clone(), g.clone()
        indexed.index_triangles()
        for cap in range(n + 1):
            for most in PACKING_GATES:
                exceeds = bound_exceeds(plain, cap, most)
                assert exceeds == bound_exceeds(indexed, cap, most), (cap, most)
                assert not exceeds or opt > cap, (cap, most)
                packing_prunes += exceeds and 2 * cap >= n

        trace = []
        reduce_fixpoint(indexed, trace)
        rest, rest_cover = min_vc_bruteforce(indexed)
        assert rest + len(trace) == opt
        lifted = lift_cover(trace, rest_cover)
        assert len(lifted) == opt and is_vertex_cover(g, lifted)
        if indexed.num_edges():
            plain = indexed.clone()
            plain.triangles = None
            assert select(indexed) == select(plain)
            selections += 1
    assert graphs == RELABELINGS * 1245
    assert packing_prunes >= 150 and selections >= 20
