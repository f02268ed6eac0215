import hashlib
import inspect
import math
import random
import sys

import pytest

import cyclecover.reductions as reductions
import cyclecover.search as search
from cyclecover.errors import ResourceLimitError
from cyclecover.generators import complete_graph, cycle_graph, generate, petersen_graph, random_max_degree
from cyclecover.graph import Graph
from cyclecover.kernel import _double_cover_matching, lp_lower_bound
from cyclecover.oracle import is_vertex_cover, min_vc_bruteforce
from cyclecover.reductions import lift_cover, reduce_fixpoint
from cyclecover.search import check_node_budget, vc_decide, vc_minimum

from conftest import mixed_instance, sparse_with_blocks
from graph_checks import edge_set, snapshot


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


def test_minimum_matches_oracle(checked_branchings):
    for seed in range(150):
        g = mixed_instance(seed, max_n=16)
        opt, _ = min_vc_bruteforce(g)
        size, cover, _ = vc_minimum(g)
        assert size == opt, seed
        assert is_vertex_cover(g, cover)
        assert len(cover) == size
    assert checked_branchings.count > 0


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


def test_node_budget_raises():
    g = generate("cubic", 30, 3)
    with pytest.raises(ResourceLimitError):
        vc_minimum(g, node_budget=2)


def test_graph_reduced_in_place_keeps_its_answers():
    """A graph reduced in place, and one that lost vertices since, are
    scanned in full at the root, so they keep their answers, and the second
    one is solved exactly as its twin built from scratch."""
    rng = random.Random(29)
    kernels = 0
    for seed in range(50):
        n = rng.randrange(16, 40)
        g = random_max_degree(n, rng, max_deg=rng.randrange(4, 6), proposals=4 * n)
        opt = vc_minimum(g)[0]
        h = g.clone()
        trace = []
        reduce_fixpoint(h, trace)
        size, cover, _ = vc_minimum(h)
        lifted = lift_cover(trace, cover)
        assert size + len(trace) == opt and len(lifted) == opt, seed
        assert is_vertex_cover(g, lifted), seed
        assert vc_decide(h, size).answer == "YES", seed
        assert size == 0 or vc_decide(h, size - 1).answer == "NO", seed
        live = sorted(h.vertices())
        if not live:
            continue
        kernels += 1
        for v in rng.sample(live, min(len(live), rng.randrange(1, 4))):
            h.remove_vertex(v)
        twin = Graph.from_edges(h.edges(), h.vertices())
        size, _, stats = vc_minimum(h)
        want, _, twin_stats = vc_minimum(twin)
        assert size == want and stats.nodes_expanded == twin_stats.nodes_expanded, seed
        for k in (size, size - 1):
            if k >= 0:
                assert vc_decide(h, k).answer == vc_decide(twin, k).answer, seed
    assert kernels >= 20


def test_search_scans_a_marked_graph_in_full():
    """g is at a reduction fixpoint, and losing vertex 6 makes vertex 15
    unconfined three steps away, where the reductions' local scan does not
    look. The search hands its root no changed set, so it still reduces the
    root to nothing, as it does for the twin built from scratch."""
    g = Graph.from_edges([
        (0, 2), (0, 9), (0, 14), (0, 15), (2, 3), (2, 5), (2, 15), (2, 16), (3, 4), (3, 11),
        (3, 13), (4, 11), (4, 14), (4, 15), (5, 8), (5, 9), (6, 8), (6, 10), (6, 13), (6, 16),
        (7, 9), (7, 11), (7, 14), (7, 17), (8, 10), (8, 16), (9, 15), (10, 13), (10, 17),
        (11, 15), (13, 16), (16, 17),
    ])
    trace = []
    reduce_fixpoint(g, trace)
    assert trace == []
    changed = g.remove_vertex(6)
    local, trace = g.clone(), []
    reduce_fixpoint(local, trace, set(changed))
    assert trace == []
    twin = Graph.from_edges(g.edges(), g.vertices())
    size, _, stats = vc_minimum(g)
    want, _, twin_stats = vc_minimum(twin)
    assert size == want and stats.nodes_expanded == twin_stats.nodes_expanded == 1


def test_lp_check_before_reductions_skips_the_root(monkeypatch):
    """The root is not checked before its reductions: on a large sparse root
    the early check answers False after a whole matching, and the root's
    reductions would shrink it first anyway."""
    g = generate("cubic", 40, 1)
    g.add_edge(0, 40)  # a pendant edge, so the root's reductions change it
    k = (g.num_vertices() + 1) // 2 - 1
    assert vc_minimum(g)[0] > k
    root = edge_set(g)
    seen = []
    real = search.bound_exceeds

    def recording(h, cap, most):
        seen.append(edge_set(h))
        return real(h, cap, most)

    monkeypatch.setattr(search, "bound_exceeds", recording)
    verdict = vc_decide(g, k)
    assert verdict.answer == "NO" and 0 < verdict.stats.lp_prunes <= verdict.stats.k_exhausted_leaves
    assert seen and root not in seen


def test_component_parts_check_their_bound_once_after_their_empty_reductions(monkeypatch):
    """A component part is handed an empty changed set, so its reductions
    examine nothing, and its one bound check comes after them: it checks
    only once before it branches or returns. Within each search, only the
    root's reductions are handed None."""
    a = generate("cubic", 20, 5)  # a seed whose NO decide still splits at its root
    g = Graph.from_edges([*a.edges(), *((u + 20, v + 20) for u, v in a.edges())])
    comps = [frozenset(frozenset(e) for e in a.edges()),
             frozenset(frozenset((u + 20, v + 20)) for u, v in a.edges())]
    want = 2 * vc_minimum(a)[0]
    calls, handed, parts = [], [], []  # handed: whether each reduce_fixpoint call got None
    real_bound, real_reduce = search.bound_exceeds, search.reduce_fixpoint

    def bound(h, cap, most):
        calls.append(("bound", edge_set(h)))
        return real_bound(h, cap, most)

    def reduce(h, trace, changed):
        calls.append(("reduce", edge_set(h)))
        handed.append(changed is None)
        if calls[-1][1] in comps:
            parts.append(set(changed))
        return real_reduce(h, trace, changed)

    monkeypatch.setattr(search, "bound_exceeds", bound)
    monkeypatch.setattr(search, "reduce_fixpoint", reduce)
    assert vc_minimum(g)[0] == want
    for c in comps:
        assert [name for name, edges in calls if edges == c] == ["reduce", "bound"]
    assert parts == [set(), set()]
    assert handed[0] and len(handed) > 2 and not any(handed[1:])
    for k in (want, want - 1):
        handed.clear()
        vc_decide(g, k)
        assert handed[0] and len(handed) > 2 and not any(handed[1:]), k


def test_split_prunes_on_the_sum_of_its_parts_lp_bounds():
    """Six copies of a 7-vertex graph H with ceil(LP) = optimum = 4: at
    k = 23 the root's own bound (need 5) cannot prune, and the split's sum
    of the parts' LP bounds, 24, is what answers NO, in one node."""
    h = Graph.from_edges([(0, 1), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 5), (1, 6),
                          (2, 3), (2, 4), (2, 5), (3, 4), (3, 6), (4, 5), (4, 6), (5, 6)])
    assert lp_lower_bound(h) == min_vc_bruteforce(h)[0] == 4
    assert _double_cover_matching(h.adjacency())[0] == 7
    reduced, trace = h.clone(), []
    reduce_fixpoint(reduced, trace)
    assert not trace and edge_set(reduced) == edge_set(h)
    g = Graph.from_edges([(u + 7 * i, v + 7 * i) for i in range(6) for u, v in h.edges()])
    no = vc_decide(g, 23)
    assert no.answer == "NO" and no.stats.nodes_expanded == 1
    assert no.stats.k_exhausted_leaves == 1
    assert no.stats.lp_prunes == no.stats.packing_prunes == 0
    assert vc_decide(g, 24).answer == "YES"
    assert vc_minimum(g)[0] == 24


def test_stats_are_populated():
    g = petersen_graph()
    size, cover, stats = vc_minimum(g)
    assert stats.nodes_expanded >= 1
    assert stats.tau_root == 6
    report = check_node_budget(stats, size)
    assert report["k"] == 6
    assert report["envelope_1_15855"] == pytest.approx(1.15855**6)
    assert report["nodes_expanded"] == stats.nodes_expanded
    assert report["log_nodes_over_k"] == pytest.approx(math.log(stats.nodes_expanded) / 6)
    assert check_node_budget(stats, 0)["log_nodes_over_k"] is None
    huge = check_node_budget(stats, 7000)  # 1.1504**7000 is beyond float range
    assert huge["envelope_1_15855"] is None and huge["envelope_1_1504"] is None
    assert huge["within_envelope_1_15855"] and huge["within_envelope_1_1504"]
    between = check_node_budget(stats, 4900)  # only the plain envelope overflows
    assert between["envelope_1_15855"] is None and between["within_envelope_1_15855"]
    assert between["envelope_1_1504"] == pytest.approx(1.1504**4900)


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
    (("cubic", 1), 34, 11, 11),
    (("cubic", 2), 33, 7, 5),
    (("cubic", 3), 33, 9, 5),
    (("maxdeg5", 1), 30, 13, 9),
    (("maxdeg5", 2), 31, 11, 11),
    (("maxdeg5", 3), 31, 7, 7),
]


def pinned_graph(model, seed):
    if model == "cubic":
        return generate("cubic", 60, seed)
    return random_max_degree(50, random.Random(seed), max_deg=5, proposals=250)


@pytest.mark.parametrize(
    "instance, opt, min_nodes, no_nodes", PINNED_NODES, ids=[f"{m}-{s}" for (m, s), *_ in PINNED_NODES]
)
def test_node_counts_pinned(instance, opt, min_nodes, no_nodes):
    g = pinned_graph(*instance)
    size, _, stats = vc_minimum(g)
    assert (size, stats.nodes_expanded) == (opt, min_nodes)
    verdict = vc_decide(g, opt - 1)
    assert (verdict.answer, verdict.stats.nodes_expanded) == ("NO", no_nodes)


def test_entry_points_leave_the_callers_graph_as_it_was():
    """vc_minimum, and vc_decide at the optimum and one below, search a copy:
    the caller's graph keeps its dict order, each neighbor set's iteration
    order and its triangle index, built or not."""
    graphs = [pinned_graph(*instance) for instance, *_ in PINNED_NODES]
    graphs += [sparse_with_blocks(3000, 8, seed) for seed in (1, 2)]
    for i, g in enumerate(graphs):
        if i % 2:
            g.triangles  # build the index on every other graph
        before = snapshot(g)
        size = vc_minimum(g)[0]
        assert snapshot(g) == before, i
        for k in (size, size - 1):
            vc_decide(g, k)
            assert snapshot(g) == before, (i, k)


# the tier where the search branches: cubic n=160 and n=200, generator seeds
# 1-6, as (optimum, nodes in vc_minimum) per graph; 4,700 nodes in all
BRANCHING_TIER = {
    160: [(88, 205), (89, 281), (89, 155), (89, 229), (88, 109), (90, 443)],
    200: [(109, 439), (110, 463), (111, 723), (111, 897), (110, 493), (111, 263)],
}


def test_node_counts_pinned_where_the_search_branches():
    """On failure the message is the tier report a tree change owes: each
    graph's pinned and found (optimum, nodes), the totals and how many rose."""
    found = {n: [] for n in BRANCHING_TIER}
    for n, pins in found.items():
        for seed in range(1, 7):
            size, _, stats = vc_minimum(generate("cubic", n, seed))
            pins.append((size, stats.nodes_expanded))
    pairs = [
        (f"{n}-{seed}", old, new)
        for n, pins in BRANCHING_TIER.items()
        for seed, (old, new) in enumerate(zip(pins, found[n]), start=1)
    ]
    old_total = sum(old[1] for _, old, _ in pairs)
    new_total = sum(new[1] for _, _, new in pairs)
    rose = sum(new[1] > old[1] for _, old, new in pairs)
    report = [f"{name}: {old} -> {new}" for name, old, new in pairs]
    report.append(f"total: {old_total:,} -> {new_total:,}; {rose} of {len(pairs)} rose")
    assert found == BRANCHING_TIER, "\n".join(report)
    assert new_total == 4_700


def test_relabeled_twins_keep_their_optima():
    """A random relabeling changes every lowest-id tie and the vertex order
    the triangle packing and the odd-cycle BFS walk, so each twin is searched
    along another tree; its optimum must not change, and its certificate
    must cover it."""
    rng = random.Random(160)
    for n, pins in BRANCHING_TIER.items():
        for seed, (opt, _) in enumerate(pins, start=1):
            g = generate("cubic", n, seed)
            ids = rng.sample(range(1, 10 * g.num_vertices()), g.num_vertices())
            name = dict(zip(sorted(g.vertices()), ids))
            twin = Graph.from_edges(((name[u], name[v]) for u, v in g.edges()), rng.sample(ids, len(ids)))
            size, cover, _ = vc_minimum(twin)
            assert size == opt == len(cover), (n, seed)
            assert is_vertex_cover(twin, cover), (n, seed)


def same_tree_corpus():
    """About 75 small graphs that reach every selection rule and branch."""
    for seed in range(36):
        yield mixed_instance(seed, max_n=40)
    for seed in range(1, 21):
        yield generate("cubic", 52 + 4 * seed, seed)
    for seed in range(1, 21):
        n = 50 + 2 * seed
        yield random_max_degree(n, random.Random(seed), max_deg=5, proposals=5 * n)


def coverage_corpus():
    """65 graphs for the tests that count work: max-degree-5 and cubic ones a
    little larger than same_tree_corpus's, so that the unconfined scan and
    the branchings clear their floors with room (5,150 calls, 1,907
    firings and 2,758 branchings when this corpus was made), and a change
    that shrinks trees need not grow the corpus SAME_TREE_DIGEST pins."""
    for seed in range(100, 140):
        n = 70 + 5 * (seed % 5)
        yield random_max_degree(n, random.Random(seed), max_deg=5, proposals=5 * n)
    for seed in range(100, 125):
        yield generate("cubic", 80 + 2 * (seed % 10), seed)


def search_fingerprint(answer, cover, stats):
    return (
        answer,
        None if cover is None else sorted(cover),
        stats.nodes_expanded,
        stats.max_depth,
        stats.tree_leaf_count,
        stats.k_exhausted_leaves,
        stats.lp_prunes,
        stats.packing_prunes,
        stats.late_packing_prunes,
        stats.tau_root,
    )


# sha256 over the fingerprints of vc_minimum and vc_decide at the optimum and
# one below, recorded when the include branch began to take the branch
# vertex's mirrors, re-recorded with the same trees when the fingerprint
# gained the prune count, re-recorded when the unconfined-vertex rule
# replaced domination and the corpus gained two cubic and two max-degree-5
# graphs, re-recorded without its struction rows when the search stopped
# offering the struction, and re-recorded when the search began to prune on
# triangle packing and the corpus gained two more cubic and two more
# max-degree-5 graphs, re-recorded when the packing went on to odd cycles
# where triangles run out, and re-recorded when the packing went up to four
# cycles after a node's reductions and the corpus gained two more cubic and
# two more max-degree-5 graphs, and re-recorded with the same trees when the
# fingerprint gained the LP, packing and late packing prune counts and the
# root's circuit rank, so that it pins every field the CLI reports, and
# re-recorded when the late check went up to six cycles, with every answer
# and certificate unchanged, and re-recorded when the degree >= 5 rule began
# to take the sparsest neighbourhood, the check began to repack in reverse
# order where the first packing strands a vertex, and the corpus gained two
# more cubic and two more max-degree-5 graphs, with every answer and optimum
# unchanged. A change that keeps every search tree, prune
# and certificate keeps the digest; a change that means to alter the search
# re-pins it and says why.
SAME_TREE_DIGEST = "2ff038c32776b2e7faff46a4ad70705bcee422ab6bfd51d155ae5613ff2c532c"


def test_search_trees_and_certificates_pinned():
    digest = hashlib.sha256()
    for g in same_tree_corpus():
        size, cover, stats = vc_minimum(g)
        rows = [search_fingerprint(size, cover, stats)]
        for k in (size, size - 1):
            if k >= 0:
                verdict = vc_decide(g, k)
                rows.append(search_fingerprint(verdict.answer, verdict.cover, verdict.stats))
        digest.update(repr(rows).encode())
    assert digest.hexdigest() == SAME_TREE_DIGEST


def test_unconfined_scan_runs_at_minimum_degree_three_and_fires_on_triangles(monkeypatch):
    """The scan examines only indexed vertices, which is exact because it
    runs once the degree rules have left no vertex below degree 3, and there
    a vertex on no triangle is confined."""
    calls, fired = 0, 0
    real = reductions._first_unconfined

    def checking(adj, unchecked):
        nonlocal calls, fired
        calls += 1
        assert min(map(len, adj.values()), default=3) >= 3
        v = real(adj, unchecked)
        if v is not None:
            fired += 1
            assert any(adj[v] & adj[w] for w in adj[v]), v
        return v

    monkeypatch.setattr(reductions, "_first_unconfined", checking)
    for g in coverage_corpus():
        size = vc_minimum(g)[0]
        if size > 0:
            vc_decide(g, size - 1)
    assert calls > 3000 and fired > 1000


def test_triangle_index_is_built_after_the_roots_first_peel(monkeypatch):
    """A cubic block of 20 vertices hangs off a path of 20,000. The degree
    rules peel the path away before anything reads the triangle index, so
    the build, one ``on_triangle`` call per live vertex, scans the block
    alone; a build before the peel would scan the path too."""
    calls = 0
    real = Graph.on_triangle

    def counting(self, v):
        nonlocal calls
        calls += 1
        return real(self, v)

    monkeypatch.setattr(Graph, "on_triangle", counting)
    block, path = 20, 20_000
    edges = [(block + i, block + i + 1) for i in range(path - 1)]
    edges += [*generate("cubic", block, 1).edges(), (0, block + path // 2)]
    size, cover, _ = vc_minimum(Graph.from_edges(edges))
    assert size == len(cover) == block // 2 + path // 2 + 1
    assert 0 < calls <= 3 * block


def test_tau_invariants_hold_at_every_branching(checked_branchings):
    for g in coverage_corpus():
        size = vc_minimum(g)[0]
        vc_decide(g, size)
        if size > 0:
            vc_decide(g, size - 1)
    assert checked_branchings.count >= 1500


@pytest.mark.parametrize("mode", ["decide", "minimize"])
def test_depth_is_bounded_by_the_node_budget_alone(mode):
    """A dive deeper than the interpreter's recursion limit still answers, and
    only the node budget stops a search that runs long."""
    g = generate("cubic", 2000, 1)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        if mode == "decide":
            verdict = vc_decide(g, g.num_vertices())
            assert verdict.answer == "YES" and verdict.stats.max_depth == 209
            assert len(verdict.cover) <= g.num_vertices() and is_vertex_cover(g, verdict.cover)
        else:
            with pytest.raises(ResourceLimitError, match="node budget"):
                vc_minimum(g, node_budget=5000)
    finally:
        sys.setrecursionlimit(old)
