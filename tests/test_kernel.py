import random
import sys

import pytest

import cyclecover.kernel as kernel
from cyclecover.generators import complete_graph, cycle_graph, generate, random_max_degree, star_graph
from cyclecover.graph import Graph
from cyclecover.kernel import (
    _double_cover_matching,
    _odd_cycle_packing,
    _rest,
    bound_exceeds,
    lp_lower_bound,
    nt_kernelize,
)
from cyclecover.oracle import is_vertex_cover, min_vc_bruteforce

from conftest import gnp, mixed_instance


def lp_weights(g, part):
    w = {}
    for v in part.ones:
        w[v] = 2
    for v in part.zeros:
        w[v] = 0
    for v in part.halves:
        w[v] = 1
    assert set(w) == set(g.vertices())
    return w


def test_odd_cycle_is_all_halves():
    g = cycle_graph(5)
    res = nt_kernelize(g.clone(), 3)
    assert res.feasible
    assert res.lp_value == 2.5
    assert len(res.partition.halves) == 5
    assert not res.partition.ones and not res.partition.zeros


def test_odd_cycle_infeasible_below_lp():
    g = cycle_graph(5)
    work = g.clone()
    res = nt_kernelize(work, 2)
    assert not res.feasible
    # graph untouched on a NO verdict
    assert work.num_edges() == 5


def test_star_center_is_one():
    work = star_graph(4)
    res = nt_kernelize(work, 1)
    assert res.feasible
    assert res.partition.ones == frozenset({0})
    assert res.k_residual == 0
    assert work.num_vertices() == 0


def test_negative_k_rejected():
    with pytest.raises(ValueError):
        nt_kernelize(cycle_graph(3), -1)


def test_partition_is_a_valid_half_integral_solution():
    for seed in range(60):
        g = mixed_instance(seed, max_n=16)
        res = nt_kernelize(g.clone(), g.num_vertices())
        assert res.feasible
        w = lp_weights(g, res.partition)
        for u, v in g.edges():
            assert w[u] + w[v] >= 2, seed
        # objective matches the reported optimum (doubled weights)
        assert sum(w.values()) == res.lp_times_two, seed


def test_lp_lower_bound_at_most_optimum():
    for seed in range(60):
        g = mixed_instance(seed, max_n=14)
        opt, _ = min_vc_bruteforce(g)
        assert lp_lower_bound(g) <= opt, seed


def test_lp_lower_bound_at_most_half_the_vertices():
    # x = 1/2 everywhere is feasible, which the search uses to skip the LP
    for seed in range(60):
        rng = random.Random(seed)
        g = gnp(rng.randrange(1, 30), rng.choice((0.1, 0.3, 0.6)), rng)
        assert lp_lower_bound(g) <= (g.num_vertices() + 1) // 2, seed


def test_kernel_infeasible_exactly_when_lp_exceeds_k():
    for seed in range(40):
        g = mixed_instance(seed, max_n=16)
        lp = lp_lower_bound(g)
        for k in range(g.num_vertices() + 1):
            assert nt_kernelize(g.clone(), k).feasible == (lp <= k), (seed, k)


def test_kernel_preserves_optimum_through_lift():
    for seed in range(80):
        g = mixed_instance(seed, max_n=15)
        opt, _ = min_vc_bruteforce(g)
        work = g.clone()
        res = nt_kernelize(work, g.num_vertices())
        assert res.feasible
        sub_size, sub_cover = min_vc_bruteforce(work)
        assert len(res.partition.ones) + sub_size == opt, seed
        lifted = sub_cover | res.partition.ones
        assert is_vertex_cover(g, lifted)
        assert len(lifted) == opt


def test_kernel_size_bound():
    for seed in range(40):
        g = mixed_instance(seed, max_n=16)
        opt, _ = min_vc_bruteforce(g)
        work = g.clone()
        res = nt_kernelize(work, opt)
        if not res.feasible:
            continue
        assert work.num_vertices() <= 2 * res.k_residual, seed


def test_clique_lp_is_tight_enough():
    g = complete_graph(6)
    # all-halves LP: value n/2 = 3, so k=2 is provably infeasible
    res = nt_kernelize(g.clone(), 2)
    assert not res.feasible


def matching_by_recursive_dfs(g):
    """Reference: Hopcroft-Karp with the textbook recursive augmenting DFS."""
    order = sorted(g.vertices())
    nbrs = {v: sorted(g.neighbors(v)) for v in order}
    pair_l = {v: None for v in order}
    pair_r = {v: None for v in order}
    inf = float("inf")
    dist = {}

    def bfs():
        layer = [u for u in order if pair_l[u] is None]
        for u in order:
            dist[u] = 0 if pair_l[u] is None else inf
        found = False
        while layer:
            nxt = []
            for u in layer:
                for w in nbrs[u]:
                    mate = pair_r[w]
                    if mate is None:
                        found = True
                    elif dist[mate] == inf:
                        dist[mate] = dist[u] + 1
                        nxt.append(mate)
            layer = nxt
        return found

    def dfs(u):
        for w in nbrs[u]:
            mate = pair_r[w]
            if mate is None or (dist[mate] == dist[u] + 1 and dfs(mate)):
                pair_l[u] = w
                pair_r[w] = u
                return True
        dist[u] = inf
        return False

    size = 0
    while bfs():
        size += sum(1 for u in order if pair_l[u] is None and dfs(u))
    return size, pair_l, pair_r


def test_matching_equals_recursive_reference():
    for seed in range(120):
        g = mixed_instance(seed, max_n=40)
        size, mate = _double_cover_matching(g.adjacency())
        assert size == len(mate) == matching_by_recursive_dfs(g)[0], seed
        assert len(set(mate.values())) == size, seed
        assert all(u in g.neighbors(w) for w, u in mate.items()), seed


def test_matching_with_first_phase_searches_put_off(monkeypatch):
    """With a cap of one right copy nearly every first-phase search is put
    off, so the BFS-layered phases find most augmenting paths."""
    monkeypatch.setattr(kernel, "FREE_SEARCH_RIGHTS", 1)
    for seed in range(120):
        g = mixed_instance(seed, max_n=40)
        want = matching_by_recursive_dfs(g)[0]
        assert _double_cover_matching(g.adjacency())[0] == want, seed
        for target in range(g.num_vertices() + 2):
            assert (_double_cover_matching(g.adjacency(), target)[0] >= target) == (want >= target), (seed, target)


def test_long_cycle_within_default_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        g = cycle_graph(5001)
        assert lp_lower_bound(g) == 2501
        assert bound_exceeds(g, 2500, 0) and not bound_exceeds(g, 2501, 0)
    finally:
        sys.setrecursionlimit(limit)


def test_lp_exceeds_is_the_lp_bound_against_the_cap():
    checked = 0
    for seed in range(120):
        g = mixed_instance(seed, max_n=30)
        rng = random.Random(seed)
        # deletions leave isolated and degree-1 vertices behind
        for v in rng.sample(sorted(g.vertices()), rng.randrange(g.num_vertices() // 2 + 1)):
            g.remove_vertex(v)
        lp = lp_lower_bound(g)
        for cap in range(g.num_vertices() + 2):
            assert bound_exceeds(g, cap, 0) == (lp > cap), (seed, cap)
            assert bound_exceeds(g, cap, 4) or lp <= cap, (seed, cap)
            checked += 1
    assert checked > 1000


def test_lp_exceeds_on_a_crown():
    # K_{3,100}: minimum degree 3 and LP value 3, far below ceil(n/2) = 52
    g = Graph.from_edges((a, b) for a in range(3) for b in range(3, 103))
    assert lp_lower_bound(g) == 3
    for cap in range(g.num_vertices() + 2):
        assert bound_exceeds(g, cap, 0) == (cap < 3), cap


def bound_exceeds_within_the_optimum(g, opt, cap, tag):
    """bound_exceeds at most = 2, 4 and 6, checked against the optimum; a
    gate that lets more needs through keeps every prune of a narrower one.
    Where need = 2 * cap - n + 1 <= 0 all must be the LP answer; (False,
    False, False) is returned there, so callers count only what a packing
    decides."""
    answers = tuple(bound_exceeds(g, cap, most) for most in (2, 4, 6))
    assert list(answers) == sorted(answers), tag
    assert not answers[-1] or opt > cap, tag
    if 2 * cap < g.num_vertices():
        assert set(answers) == {lp_lower_bound(g) > cap}, tag
        return False, False, False
    return answers


def test_packing_bound_never_exceeds_the_optimum():
    pruned = deep = 0
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randrange(8, 23)
        g = random_max_degree(n, rng, max_deg=rng.randrange(3, 7), proposals=6 * n)
        opt = min_vc_bruteforce(g)[0]
        for cap in range(-1, n + 2):
            narrow, wide, _ = bound_exceeds_within_the_optimum(g, opt, cap, (seed, cap))
            pruned += narrow
            deep += wide and not narrow
    assert pruned >= 150 and deep >= 25  # the bound does fire on these graphs; 195 and 36 seen


def test_packing_bound_lifts_the_prism_above_its_lp_bound():
    # two triangles joined by a matching: LP 3, optimum 4
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
    assert lp_lower_bound(g) == 3 and min_vc_bruteforce(g)[0] == 4
    assert not bound_exceeds(g, 3, 0) and bound_exceeds(g, 3, 2)


def test_packing_bound_never_prunes_a_bipartite_graph():
    cube = Graph.from_edges((a, a ^ bit) for a in range(8) for bit in (1, 2, 4))
    grid = Graph.from_edges(
        [(5 * r + c, 5 * r + c + 1) for r in range(4) for c in range(4)]
        + [(5 * r + c, 5 * r + c + 5) for r in range(3) for c in range(5)]
    )
    for g in (cube, cycle_graph(10), grid):
        opt = min_vc_bruteforce(g)[0]
        assert lp_lower_bound(g) == opt
        for cap in range(-1, g.num_vertices() + 2):
            assert bound_exceeds(g, cap, 4) == (opt > cap), cap


def is_bipartite(g):
    side = {}
    for root in g.vertices():
        if root in side:
            continue
        side[root] = 0
        queue = [root]
        for u in queue:
            for w in g.neighbors(u):
                if w not in side:
                    side[w] = 1 - side[u]
                    queue.append(w)
                elif side[w] == side[u]:
                    return False
    return True


def test_packing_bound_is_the_lp_bound_of_what_the_packing_leaves():
    """The check matches the double cover of g - C without building it;
    it must answer as the LP bound of the induced subgraph does, with
    (|C| + 1) / 2 for each packed odd cycle C, wherever 1 <= need <= most,
    and as the LP bound of g wherever need <= 0. Where a vertex next to
    the cycles rules out a perfect double cover of g - C, the check gives
    up before the matching; the matching must agree."""
    compared = deep = late = cycles = given_up = 0
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randrange(6, 41)
        g = random_max_degree(n, rng, max_deg=rng.randrange(3, 7), proposals=rng.choice((3, 6)) * n)
        for v in rng.sample(sorted(g.vertices()), rng.randrange(n // 4 + 1)):
            g.remove_vertex(v)
        n = g.num_vertices()
        for cap in range(-1, n + 2):
            need = 2 * cap - n + 1
            want = need <= 0 and lp_lower_bound(g) > cap
            if 1 <= need <= 6:
                packed = _odd_cycle_packing(g.adjacency(), need, g.triangles)
                assert len(set().union(*packed)) == sum(map(len, packed)) and len(packed) <= need, seed
                for c in packed:
                    assert len(c) >= 3 and len(c) % 2 == 1, seed
                    assert all(c[i - 1] in g.neighbors(c[i]) for i in range(len(c))), seed
                    cycles += len(c) > 3
                rest = g.induced_subgraph(set(g.vertices()).difference(*packed))
                if len(packed) == need:
                    want = sum((len(c) + 1) // 2 for c in packed) + lp_lower_bound(rest) > cap
                    compared += need <= 2
                    deep += 2 < need <= 4
                    late += need > 4
                    if _rest(g.adjacency(), packed) is None:
                        assert _double_cover_matching(rest.adjacency())[0] < rest.num_vertices(), seed
                        given_up += 1
                else:  # no odd cycle left among the unpacked vertices
                    assert is_bipartite(rest), seed
            for most in (2, 4, 6):
                assert bound_exceeds(g, cap, most) == (want and need <= most), (seed, cap, most)
    assert compared >= 100 and deep >= 70 and late >= 20 and cycles >= 30  # 177, 93, 25 and 298 seen
    assert given_up >= 100  # 114 seen


def test_rest_gives_up_where_a_packed_triangle_strands_a_vertex():
    """Triangles 012 and 013 share the edge 01, and 2 lies on the triangle
    245 too. The greedy first triangle, 012, leaves 3 without a neighbour,
    so the rest 345 has no perfect double cover and the check gives up
    without a matching, though packing 013 would prune at cap 3."""
    g = Graph.from_edges([(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 4), (2, 5), (4, 5)])
    assert lp_lower_bound(g) == 3 and min_vc_bruteforce(g)[0] == 4
    adj = g.adjacency()
    assert _odd_cycle_packing(adj, 1, g.triangles) == [(0, 1, 2)] and _rest(adj, [(0, 1, 2)]) is None
    assert lp_lower_bound(g.induced_subgraph({3, 4, 5})) == 1
    assert not bound_exceeds(g, 3, 1)
    assert _rest(adj, [(0, 1, 3)]) == {2: {4, 5}, 4: {2, 5}, 5: {2, 4}}


def test_rest_gives_up_where_a_packed_triangle_leaves_two_pendants_on_one_vertex():
    """The greedy first triangle, 025, leaves 3 and 4 with 1 as their only
    neighbour, so the rest 134 has no perfect double cover."""
    g = Graph.from_edges([(0, 2), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (2, 3), (2, 5), (4, 5)])
    assert lp_lower_bound(g) == 3 and min_vc_bruteforce(g)[0] == 4
    adj = g.adjacency()
    assert _odd_cycle_packing(adj, 1, g.triangles) == [(0, 2, 5)] and _rest(adj, [(0, 2, 5)]) is None
    assert lp_lower_bound(g.induced_subgraph({1, 3, 4})) == 1
    assert not bound_exceeds(g, 3, 1)
    assert _rest(adj, [(0, 4, 5)]) == {1: {2, 3}, 2: {1, 3}, 3: {1, 2}}


def test_packings_are_disjoint_odd_cycles():
    """Up to need 8, on degree-capped and cubic graphs with vertices
    deleted: every packing is vertex-disjoint odd closed cycles, and the
    exact triangle index packs the same as one that holds every vertex."""
    packings = longer = 0
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randrange(6, 41)
        if seed % 2:
            g = generate("cubic", n + n % 2, seed)
        else:
            g = random_max_degree(n, rng, max_deg=rng.randrange(3, 7), proposals=rng.choice((3, 6)) * n)
        for v in rng.sample(sorted(g.vertices()), rng.randrange(n // 4 + 1)):
            g.remove_vertex(v)
        adj = g.adjacency()
        for need in range(1, 9):
            packed = _odd_cycle_packing(adj, need, g.triangles)
            assert packed == _odd_cycle_packing(adj, need, set(adj)), (seed, need)
            out = [v for c in packed for v in c]
            assert len(packed) <= need and len(set(out)) == len(out), (seed, need)
            for c in packed:
                assert len(c) >= 3 and len(c) % 2 == 1, (seed, need)
                assert all(c[i - 1] in adj[c[i]] for i in range(len(c))), (seed, need)
            packings += bool(packed)
            longer += any(len(c) > 3 for c in packed)
    assert packings >= 2000 and longer >= 1000  # 2,304 and 1,228 seen


def triangle_only_exceeds(g, cap, most):
    """The bound with triangles alone: 2t + LP(g - T) > cap for the greedy
    triangles the packing takes first, in the same order, at need <= most."""
    adj = g.adjacency()
    need = 2 * cap - len(adj) + 1
    if not 1 <= need <= most:
        return False
    used = set()
    for v, nv in adj.items():
        if v in used:
            continue
        free = nv - used
        for u in free:
            if u > v and free & adj[u]:
                used.update((v, u, min(free & adj[u])))
                break
        if len(used) == 3 * need:
            return 2 * need + lp_lower_bound(g.induced_subgraph(set(adj) - used)) > cap
    return False


def test_odd_cycles_prune_wherever_triangles_alone_prune():
    """Odd cycles are packed only where triangles run out, so every prune of
    the triangle bound stays; degree-capped graphs have triangles to pack,
    cubic ones few."""
    pruned = {2: 0, 4: 0}
    lifted = {2: 0, 4: 0}
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randrange(6, 41, 2)
        if seed % 2:
            g = generate("cubic", n, seed)
        else:
            g = random_max_degree(n, rng, max_deg=rng.randrange(3, 7), proposals=rng.choice((3, 6)) * n)
        lp = lp_lower_bound(g)
        for cap in range(-1, n + 2):
            for most in (2, 4):
                exceeds = bound_exceeds(g, cap, most)
                if 2 * cap < g.num_vertices():  # need <= 0: no packing
                    assert exceeds == (lp > cap), (seed, cap, most)
                elif triangle_only_exceeds(g, cap, most):
                    assert exceeds, (seed, cap, most)
                    pruned[most] += 1
                elif exceeds:
                    lifted[most] += 1
    assert pruned[2] >= 150 and lifted[2] >= 20
    assert pruned[4] - pruned[2] >= 30 and lifted[4] - lifted[2] >= 25  # 43 and 37 seen


def test_packing_bound_never_exceeds_the_optimum_on_sparse_triangles():
    """Random cubic graphs have few triangles, so most prunes here come
    from longer odd cycles."""
    pruned = by_cycles = deep = 0
    for seed in range(1500):
        rng = random.Random(seed)
        g = generate("cubic", rng.randrange(10, 27, 2), seed)
        for v in rng.sample(sorted(g.vertices()), rng.randrange(3)):
            g.remove_vertex(v)
        n = g.num_vertices()
        opt = min_vc_bruteforce(g)[0]
        for cap in range(-1, n + 2):
            narrow, wide, _ = bound_exceeds_within_the_optimum(g, opt, cap, (seed, cap))
            deep += wide and not narrow
            if narrow:
                pruned += 1
                by_cycles += any(len(c) > 3 for c in _odd_cycle_packing(g.adjacency(), 2 * cap - n + 1, g.triangles))
    assert pruned >= 700 and by_cycles >= 150 and deep >= 40  # 55 seen at need 3-4


def test_packing_bound_never_exceeds_the_optimum_at_the_late_gate():
    """Five to seven triangles joined by random edges, where needs 5 and 6
    prune."""
    deeper = 0
    for seed in range(200):
        rng = random.Random(seed)
        t = rng.randrange(5, 8)
        edges = [(3 * i + a, 3 * i + b) for i in range(t) for a, b in ((0, 1), (1, 2), (0, 2))]
        edges += [tuple(rng.sample(range(3 * t), 2)) for _ in range(rng.randrange(t, 3 * t))]
        g = Graph.from_edges(edges)
        n = g.num_vertices()
        opt = min_vc_bruteforce(g)[0]
        for cap in range(-1, n + 2):
            _, wide, widest = bound_exceeds_within_the_optimum(g, opt, cap, (seed, cap))
            deeper += widest and not wide
    assert deeper >= 90  # 112 seen


def test_packing_bound_lifts_five_cycle_graphs_above_their_lp_bound():
    """The Petersen graph GP(5,2) and the pentagonal prism GP(5,1) have no
    triangle, LP bound 5 and optimum 6; a packed 5-cycle credits 3, and the
    other 5-cycle's LP bound credits 3 more."""
    outer = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    for step in (2, 1):
        g = Graph.from_edges(outer + [(5 + i, 5 + (i + step) % 5) for i in range(5)])
        assert lp_lower_bound(g) == 5 and min_vc_bruteforce(g)[0] == 6, step
        assert not bound_exceeds(g, 5, 0) and not triangle_only_exceeds(g, 5, 2), step
        assert [len(c) for c in _odd_cycle_packing(g.adjacency(), 1, g.triangles)] == [5], step
        assert bound_exceeds(g, 5, 2), step


def test_packing_bound_needs_three_cycles_on_four_pentagons():
    """Four disjoint 5-cycles: LP 10, optimum 12. Cap 11 is need 3, so three
    packed 5-cycles (9) plus the fourth's LP bound (3) prune it, but only a
    gate that reaches need 3."""
    g = Graph.from_edges((5 * j + i, 5 * j + (i + 1) % 5) for j in range(4) for i in range(5))
    assert lp_lower_bound(g) == 10 and min_vc_bruteforce(g)[0] == 12
    assert not bound_exceeds(g, 11, 0) and not bound_exceeds(g, 11, 2)
    assert bound_exceeds(g, 11, 4) and bound_exceeds(g, 11, 3)
    assert not bound_exceeds(g, 12, 4)
