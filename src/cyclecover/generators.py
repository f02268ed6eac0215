"""Instance builders: named small graphs and seeded random models.

Random models take a random.Random so every instance is reproducible from a
64-bit seed. The degree-capped model is intentionally simple (fixed number of
edge proposals, rejected when an endpoint is saturated) and therefore not a
uniform sampler; reproducibility is the contract, uniformity is not.
"""

from __future__ import annotations

import random

from .graph import Graph


def path_graph(n: int) -> Graph:
    return Graph.from_edges(((i, i + 1) for i in range(n - 1)), vertices=range(n))

def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph.from_edges((i, (i + 1) % n) for i in range(n))

def complete_graph(n: int) -> Graph:
    return Graph.from_edges(
        ((i, j) for i in range(n) for j in range(i + 1, n)), vertices=range(n)
    )

def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(((0, i) for i in range(1, leaves + 1)), vertices=range(leaves + 1))

def petersen_graph() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]            # outer 5-cycle
    edges += [(i, i + 5) for i in range(5)]                 # spokes
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]   # inner pentagram
    return Graph.from_edges(edges)


def random_tree(n: int, rng: random.Random) -> Graph:
    """Uniform-ish recursive attachment: vertex i hangs off a random earlier one."""
    if n <= 0:
        raise ValueError("tree size must be positive")
    g = Graph.from_edges((), vertices=range(n))
    for i in range(1, n):
        g.add_edge(rng.randrange(i), i)
    return g


def random_max_degree(n: int, rng: random.Random, max_deg: int = 3, proposals: int | None = None) -> Graph:
    """Random simple graph with all degrees <= max_deg.

    Makes 3n independent pair proposals by default; a proposal is kept iff it is
    a fresh non-loop edge and both endpoints are below the cap.
    """
    g = Graph.from_edges((), vertices=range(n))
    if n < 2:
        return g
    if proposals is None:
        proposals = 3 * n
    for _ in range(proposals):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or g.has_edge(u, v):
            continue
        if g.degree(u) < max_deg and g.degree(v) < max_deg:
            g.add_edge(u, v)
    return g


# Pairings random_cubic draws before it gives up on a simple graph.
PAIRING_TRIES = 2000


def random_cubic(n: int, rng: random.Random) -> Graph:
    """3-regular graph by the pairing model: three stubs per vertex, a random
    perfect pairing of stubs, whole pairing rejected on loops or repeats."""
    if n < 4 or n % 2 != 0:
        raise ValueError("a 3-regular graph needs an even n >= 4")
    stubs = [v for v in range(n) for _ in range(3)]
    for _ in range(PAIRING_TRIES):
        rng.shuffle(stubs)
        seen: set[tuple[int, int]] = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or (min(u, v), max(u, v)) in seen:
                ok = False
                break
            seen.add((min(u, v), max(u, v)))
        if ok:
            return Graph.from_edges(seen)
    raise RuntimeError(f"pairing model failed to produce a simple graph in {PAIRING_TRIES} tries")


MODELS = ("cubic", "maxdeg3", "tree", "cycle")


def generate(model: str, n: int, seed: int) -> Graph:
    rng = random.Random(seed)
    if model == "cubic":
        return random_cubic(n, rng)
    if model == "maxdeg3":
        return random_max_degree(n, rng, max_deg=3)
    if model == "tree":
        return random_tree(n, rng)
    if model == "cycle":
        return cycle_graph(n)
    raise ValueError(f"unknown model {model!r}, expected one of {MODELS}")
