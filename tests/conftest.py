"""Shared instance factories for the test suite."""

import random
from types import SimpleNamespace

import pytest

import cyclecover.search
from cyclecover.generators import generate, random_max_degree
from cyclecover.graph import Graph
from cyclecover.selection import BranchPlan
from cyclecover.structure import tau

from graph_checks import estimate_vector


def gnp(n: int, p: float, rng: random.Random) -> Graph:
    g = Graph()
    for v in range(n):
        g.add_vertex(v)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def mixed_instance(seed: int, max_n: int = 18) -> Graph:
    """One graph from a rotating population: sparse random, degree-capped,
    cubic, trees, cycles. Deterministic in the seed."""
    rng = random.Random(seed)
    style = seed % 6
    n = rng.randrange(3, max_n + 1)
    if style == 0:
        return gnp(n, 3.0 / max(n - 1, 1), rng)
    if style == 1:
        return gnp(n, rng.uniform(0.1, 0.7), rng)
    if style == 2:
        return random_max_degree(n, rng, max_deg=5, proposals=4 * n)
    if style == 3:
        n += n % 2
        if n < 4:
            n = 4
        return generate("cubic", n, rng.randrange(10**9))
    if style == 4:
        return generate("tree", n, rng.randrange(10**9))
    return generate("maxdeg3", n, rng.randrange(10**9))


def sparse_with_blocks(n: int, blocks: int, seed: int, block_n: int = 20) -> Graph:
    """A random graph of maximum degree 3 on ids 0..n-1, isolated vertices
    included, with cubic blocks of block_n vertices hung on it, each by a
    path of two edges: the degree rules peel most of it away, and the search
    branches inside the blocks."""
    rng = random.Random(seed)
    edges = list(random_max_degree(n, rng, max_deg=3, proposals=int(1.2 * n)).edges())
    first = n
    for _ in range(blocks):
        edges += [(first + u, first + v) for u, v in generate("cubic", block_n, rng.randrange(10**9)).edges()]
        mid = first + block_n
        edges += [(first + rng.randrange(block_n), mid), (mid, rng.randrange(n))]
        first = mid + 1
    return Graph.from_edges(edges, vertices=range(n))


def check_branching(g: Graph, plan: BranchPlan) -> None:
    """The tau invariants of one branching on v: the include child g - v and
    the exclude child g - N[v] never have more independent cycles than g, and
    where a child stays connected its drop meets the estimate (on the exclude
    side only while N(v) spans at most deg(v) - 2 edges). The include drop of
    a connected child is exactly deg(v) - 1."""
    assert g.is_connected(), "selection ran on a disconnected graph"
    here = tau(g)
    v = plan.vertex
    nbrs = g.neighbors(v)
    d = len(nbrs)
    est_inc, est_exc = estimate_vector(g, v)

    inc = g.clone()
    inc.remove_vertex(v)
    tau_inc = tau(inc)
    assert tau_inc <= here, (v, here, tau_inc)
    if inc.is_connected():
        assert here - tau_inc == d - 1, (v, d, here, tau_inc)
        assert here - tau_inc >= est_inc, (v, est_inc, here, tau_inc)

    exc = inc
    for w in nbrs:
        exc.remove_vertex(w)
    tau_exc = tau(exc)
    assert tau_exc <= here, (v, here, tau_exc)
    inside_edges = sum(len(g.neighbors(w) & nbrs) for w in nbrs) // 2
    if exc.num_vertices() > 0 and exc.is_connected() and inside_edges <= d - 2:
        assert here - tau_exc >= est_exc, (v, est_exc, here, tau_exc)


@pytest.fixture
def checked_branchings(monkeypatch):
    """Runs check_branching on every plan the search selects while the test
    runs; ``count`` says how many branchings were checked."""
    checked = SimpleNamespace(count=0)
    real_select = cyclecover.search.select

    def checking_select(g: Graph) -> BranchPlan:
        plan = real_select(g)
        check_branching(g, plan)
        checked.count += 1
        return plan

    monkeypatch.setattr(cyclecover.search, "select", checking_select)
    return checked
