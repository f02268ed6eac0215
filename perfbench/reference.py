"""Fixed reference kernel that measures how fast the host runs Python now.

On a shared VM the speed at which this process runs drifts by 10-30% over
minutes and halves when a neighbour loads the other hyperthread, so raw
seconds measured minutes apart differ by more than any regression bound. The
benchmark times this kernel after every solver call, in the same process and over the
same minutes as the solver, and scales its end-to-end times to a host on which
the kernel takes NOMINAL_S. The kernel does what the solver does most: builds
a graph as a dict of sets, copies it, scans its components and peels
low-degree vertices. It uses the standard library only and shares no code
with the package, so no change to the package changes its time.

Measured on a 2-vCPU x86-64 VM: with a CPU-bound process on the second vCPU,
sparse-blocks took 2.0 times as long and the kernel 2.2 times as long. Over
four sparse-blocks runs under different loads (none, a second benchmark, a
CPU-bound process) raw wall time spread by 110% (IQR over median) and scaled
wall time by 2.7%.
"""

from __future__ import annotations

import random
import statistics
import time

NOMINAL_S = 3.5e-3   # kernel time on a typical quiet run of that VM
SAMPLE_EVERY_S = 0.1  # one more kernel run per this much measured time


def kernel(n: int = 1000) -> tuple[int, int]:
    """Component count and vertices left after peeling, of a fixed graph."""
    rng = random.Random(7)
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for _ in range(int(1.3 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    copy = {v: set(nb) for v, nb in adj.items()}
    seen: set[int] = set()
    comps = 0
    for s in copy:
        if s in seen:
            continue
        comps += 1
        seen.add(s)
        stack = [s]
        while stack:
            for w in copy[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    for v in [v for v, nb in copy.items() if len(nb) <= 1]:
        for w in copy.pop(v):
            copy[w].discard(v)
    return comps, len(copy)


def sample(out: list[float], after_s: float) -> float:
    """Time the kernel into out after a call that took after_s; return the
    total. Longer calls get more runs, so the samples cover the run's time
    evenly (about 3.5% of it at nominal speed)."""
    total = 0.0
    for _ in range(1 + int(after_s / SAMPLE_EVERY_S)):
        t = time.perf_counter()
        kernel()
        took = time.perf_counter() - t
        out.append(took)
        total += took
    return total


def scale(samples: list[float]) -> float:
    """Factor that turns seconds measured alongside samples into nominal ones."""
    return NOMINAL_S / statistics.median(samples)
