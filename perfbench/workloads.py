"""Seeded instance corpora for the three benchmark workloads.

Every instance is emitted as DIMACS text and handed to the solver only as
that text. Each instance also keeps the benchmark's own copy of its edge list
(1-based, as emitted), read back from the text with a parser that shares no
code with the package, so covers can be checked independently of
``cyclecover``.

Why these workloads (the rationale is repeated in BENCHMARK.json):

* ``cubic`` -- random 3-regular graphs, the paper's worst case. No reduction
  fires at the root, so every node pays the full per-node cost (clone, tau,
  component scans, reductions, LP), and selection runs its costliest rules:
  the 3-regular shortest-cycle rule and the degree-4 satellite search.
* ``maxdeg5`` -- degree-capped random graphs whose branching goes through the
  degree >= 5 and degree-4 selection rules and satellite coupling, which
  ``cubic`` never reaches; NO proofs dominate.
* ``sparse-blocks`` -- one large sparse degree-3 graph carrying small cubic
  blocks on 2-edge paths: DIMACS parsing, reductions on a large graph, the
  root NT kernel, component splitting and cover lifting do most of the work,
  while branching stays inside the small blocks.

The graphs of a workload are fixed: graph i comes from generator seed i + 1.
The workload seed draws a random relabeling of every graph, so each seed
hands the solver different inputs that reach its id-based tie-breaking
(reduction order, selection) while the optima stay those pinned below.
Drawing new graphs per seed instead made the per-run totals spread by 15-20%
(IQR over median across seeds), more than any bound a regression gate can
use. Instance sizes are below the paper-scale ones (cubic n=180-200, maxdeg5
n=130-150) so that three passes over the corpus fit in one run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from cyclecover.dimacs import emit_dimacs
from cyclecover.generators import generate, random_cubic, random_max_degree
from cyclecover.graph import Graph

@dataclass(frozen=True)
class Spec:
    instances: int  # graphs per pass
    n: int          # vertices per instance (base graph for sparse-blocks)


SPECS: dict[str, Spec] = {
    "cubic": Spec(instances=40, n=100),
    "maxdeg5": Spec(instances=64, n=70),
    "sparse-blocks": Spec(instances=2, n=20_000),
}

SPARSE_BLOCKS = 40      # cubic blocks hung off the sparse base graph
SPARSE_BLOCK_N = 30     # vertices per block

# Optima in instance order; relabeling keeps them, so they hold for every
# seed. test_perfbench.py re-derives them with an independent MILP solver.
PINNED_OPTIMA: dict[str, list[int]] = {
    "cubic": [
        55, 56, 56, 56, 57, 56, 56, 55, 55, 55, 55, 56, 56, 56, 56, 56, 56, 55, 55, 56,
        57, 56, 56, 56, 56, 56, 55, 55, 56, 56, 57, 56, 56, 57, 55, 56, 56, 56, 56, 56,
    ],
    "maxdeg5": [
        43, 43, 42, 41, 41, 42, 42, 41, 43, 43, 42, 41, 42, 43, 43, 42,
        42, 43, 42, 42, 43, 40, 43, 41, 43, 42, 42, 43, 43, 41, 41, 44,
        42, 42, 41, 42, 42, 42, 42, 42, 41, 43, 43, 41, 42, 42, 41, 42,
        43, 42, 42, 42, 42, 43, 43, 43, 43, 42, 43, 44, 43, 42, 41, 42,
    ],
    "sparse-blocks": [8848, 8852],
}


@dataclass(frozen=True)
class Instance:
    name: str
    text: str                       # DIMACS, the solver's only input
    n: int
    edges: tuple[tuple[int, int], ...]


def build_graph(workload: str, n: int, seed: int) -> Graph:
    if workload == "cubic":
        return generate("cubic", n, seed)
    rng = random.Random(seed)
    if workload == "maxdeg5":
        return random_max_degree(n, rng, max_deg=5, proposals=5 * n)
    if workload == "sparse-blocks":
        return _sparse_blocks(n, rng)
    raise ValueError(f"unknown workload {workload!r}")


def _sparse_blocks(n: int, rng: random.Random) -> Graph:
    g = random_max_degree(n, rng, max_deg=3, proposals=int(1.2 * n))
    next_id = n
    for _ in range(SPARSE_BLOCKS):
        block = random_cubic(SPARSE_BLOCK_N, rng)
        offset = next_id
        for u, v in block.edges():
            g.add_edge(u + offset, v + offset)
        path_mid = offset + SPARSE_BLOCK_N
        next_id = path_mid + 1
        g.add_edge(offset + rng.randrange(SPARSE_BLOCK_N), path_mid)
        g.add_edge(path_mid, rng.randrange(n))
    return g


def relabel(g: Graph, rng: random.Random) -> Graph:
    """Copy of g with its vertex ids permuted at random."""
    ids = sorted(g.vertices())
    shuffled = ids[:]
    rng.shuffle(shuffled)
    new = dict(zip(ids, shuffled))
    return Graph.from_edges(((new[u], new[v]) for u, v in g.edges()), vertices=shuffled)


def read_edges(text: str) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Vertex count and edge list of DIMACS text, without the package."""
    n = 0
    edges = []
    for line in text.splitlines():
        parts = line.split()
        if parts[0] == "p":
            n = int(parts[2])
        elif parts[0] == "e":
            edges.append((int(parts[1]), int(parts[2])))
    return n, tuple(edges)


def make_corpus(workload: str, seed: int) -> list[Instance]:
    spec = SPECS[workload]
    corpus = []
    for i in range(spec.instances):
        name = f"{workload}/{seed}/{i}"
        g = build_graph(workload, spec.n, i + 1)
        text = emit_dimacs(relabel(g, random.Random(name)))
        n, edges = read_edges(text)
        corpus.append(Instance(name, text, n, edges))
    return corpus
