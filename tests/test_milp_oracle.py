"""Exact checks past the brute-force oracle's 26 vertices.

The solver is compared with HiGHS (``scipy.optimize.milp``) on graphs of
60-120 vertices, where the search branches, in minimization and in both
decision outcomes. The slow cases reach 150-240 vertices, where the search
expands hundreds to about ten thousand nodes; ``pytest -m slow`` runs them. scipy is
a test-only dependency: without it the module is skipped, and the package
itself stays standard-library only.
"""

import random

import pytest

from cyclecover.generators import generate, random_max_degree
from cyclecover.graph import Graph
from cyclecover.oracle import is_vertex_cover
from cyclecover.search import vc_decide, vc_minimum

np = pytest.importorskip("numpy")
optimize = pytest.importorskip("scipy.optimize")
sparse = pytest.importorskip("scipy.sparse")


def milp_minimum(g: Graph) -> int:
    """Minimum vertex cover size as a 0/1 program: one x_u + x_v >= 1 row per edge."""
    index = {v: i for i, v in enumerate(sorted(g.vertices()))}
    edges = list(g.edges())
    rows = np.repeat(np.arange(len(edges)), 2)
    cols = [index[x] for e in edges for x in e]
    a = sparse.csr_array((np.ones(2 * len(edges)), (rows, cols)), shape=(len(edges), len(index)))
    res = optimize.milp(
        c=np.ones(len(index)),
        constraints=optimize.LinearConstraint(a, lb=1, ub=np.inf),
        integrality=np.ones(len(index)),
        bounds=optimize.Bounds(0, 1),
    )
    assert res.status == 0, res.message
    return round(res.fun)


def instance(model: str, n: int, seed: int) -> Graph:
    if model == "cubic":
        return generate("cubic", n, seed)
    return random_max_degree(n, random.Random(seed), max_deg=5, proposals=5 * n)


@pytest.mark.parametrize(
    "model, n, seed",
    [("cubic", 60, 4), ("cubic", 80, 5), ("cubic", 100, 6), ("cubic", 120, 7),
     ("maxdeg5", 60, 4), ("maxdeg5", 80, 6), ("maxdeg5", 100, 7), ("maxdeg5", 120, 8),
     *(pytest.param(*case, marks=pytest.mark.slow)
       for case in [("cubic", 160, 1), ("cubic", 200, 3), ("cubic", 240, 1),
                    ("maxdeg5", 150, 1), ("maxdeg5", 200, 1)])],
)
def test_solver_agrees_with_milp(model, n, seed):
    g = instance(model, n, seed)
    opt = milp_minimum(g)
    size, cover, _ = vc_minimum(g)
    assert size == opt
    assert len(cover) == opt and is_vertex_cover(g, cover)
    yes = vc_decide(g, opt)
    assert yes.answer == "YES" and len(yes.cover) <= opt and is_vertex_cover(g, yes.cover)
    assert vc_decide(g, opt - 1).answer == "NO"
