"""Half-integral LP kernelization.

The vertex cover LP relaxation always has a half-integral optimum. It is found
combinatorially: duplicate every vertex into a left and a right copy, connect
u_left with v_right for every edge {u, v}, take a maximum matching of that
bipartite double cover, and read a minimum bipartite cover off it. A vertex
whose two copies are both covered gets LP value 1, neither copy 0, one copy
1/2. Value-1 vertices belong to some minimum cover, value-0 vertices to none,
and the halves induce the kernel, which has at most 2k vertices or the answer
is NO.

One matching routine serves every caller. ``lp_lower_bound`` and
``nt_kernelize`` ask it for the maximum; ``bound_exceeds``, which the search
calls at almost every node, hands it a target and gets its answer as soon as
it is known. It matches greedily, then runs one phase of free depth-first
searches (Kuhn) and then Hopcroft-Karp's BFS-layered phases. Most of the
search's checks end in the free phase, without a BFS, and the layered phases
keep Hopcroft-Karp's O(m sqrt n) bound on large inputs, where repeated free
searches alone grow quadratic.
The greedy pass takes an augmenting path of length three wherever a left
copy finds no free partner, which a search would otherwise find at more
cost. It is slower than plain Hopcroft-Karp where that algorithm's first
greedy pass, in sorted order, happens to be perfect, as on a grid numbered
row by row.

``bound_exceeds`` is the search's one lower-bound check. Where the LP bound
can at most tie the budget it lifts it: a cover holds (|C| + 1) / 2 vertices
of each of t disjoint odd cycles C and covers the rest R, so VC(G) >= sum
(|C| + 1) / 2 + LP(R), in the spirit of the clique-cover and cycle-cover
bounds of Akiba & Iwata (TCS 2016). It packs triangles greedily and, where
they run out, the odd cycles a BFS over the free vertices closes, and it
matches the double cover of R read off an adjacency mapping, without
building a ``Graph``. The triangle pass walks only the members of
``Graph.triangles``. The caller gates the need, the number of cycles a
prune takes, since a check that packs costs about what a search node does:
the search packs up to two before a node's reductions and up to six after
them (``search.EARLY_PACKING_MOST``, ``LATE_PACKING_MOST``). A prune needs
the rest's double cover to match perfectly, and a vertex next to the packed
cycles that is left with no neighbour, or with the same one neighbour as
another, rules that out; ``_rest`` looks for one before the matching runs,
and most failed checks at need 4-6 end there. Such a check packs once more,
walking the vertices in reverse order, and tries that packing's rest the
same way: other cycles strand other vertices, and any disjoint odd cycles
give a sound bound, so the second packing only adds prunes.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass

from .graph import Graph


@dataclass(frozen=True)
class NTPartition:
    ones: frozenset[int]
    zeros: frozenset[int]
    halves: frozenset[int]


@dataclass
class KernelResult:
    k_residual: int
    partition: NTPartition
    feasible: bool
    lp_times_two: int

    @property
    def lp_value(self) -> float:
        return self.lp_times_two / 2


# A first-phase search that enters more right copies is put off to the
# layered phases. Long free searches leave long augmenting paths behind, which
# the layered phases then find one or two per phase: a 300 x 300 grid took
# 4.3 s without the cap and 0.27 s with it. No search of the seed-1 ``cubic``
# checks enters more than 32.
FREE_SEARCH_RIGHTS = 64


def _double_cover_matching(
    adj: Mapping[int, set[int]], target: int | None = None
) -> tuple[int, dict[int, int]]:
    """Maximum matching of the bipartite double cover of the graph with
    adjacency adj, or, given a target, one that stops as soon as it knows
    whether the maximum reaches target.

    Returns (matching size, right copy -> left partner); both sides are keyed
    by original vertex ids. A greedy matching comes first, in which a left
    copy without a free partner takes a matched one whose left copy can move
    to a free partner; then phases of depth-first augmenting searches, on an
    explicit stack, from the free left copies; a phase enters each right
    copy at most once, and each left copy it reaches looks for a free
    partner first. The first phase searches
    freely (Kuhn) and puts off any search that enters more than
    FREE_SEARCH_RIGHTS right copies; later phases follow BFS layers from the
    free left copies (Hopcroft-Karp), which bounds their number by
    O(sqrt n). A first-phase search that fails before any search of the
    phase has augmented or been put off fails after any later augmentation
    too, so its root stays free for good.
    """
    spare = -1 if target is None else len(adj) - target  # free left copies the target allows
    mate: dict[int, int] = {}
    free = []
    for u, nbrs in adj.items():
        for w in nbrs:
            if w not in mate:
                mate[w] = u
                break
        else:
            for w in nbrs:  # an augmenting path of length three
                m = mate[w]
                for x in adj[m]:
                    if x not in mate:
                        mate[x] = m
                        mate[w] = u
                        break
                else:
                    continue
                break
            else:
                free.append(u)
    unmatched = len(free)
    dead = 0  # free left copies no augmenting path starts from
    dist: dict[int, int] | None = None  # BFS layers of the left copies
    while unmatched > spare:
        seen: set[int] = set()
        retry = []
        exact = dist is None  # until a first-phase search augments or is put off
        for root in free:
            give_up = len(seen) + FREE_SEARCH_RIGHTS if dist is None else len(adj)
            # on success lefts[i] takes rights[i]
            lefts, rights, pending = [root], [], [iter(adj[root])]
            while pending:
                for w in pending[-1]:
                    if w in seen:
                        continue
                    m = mate.get(w)
                    if dist is not None and m is not None and dist.get(m) != dist[lefts[-1]] + 1:
                        continue
                    seen.add(w)
                    if len(seen) > give_up:
                        pending = []
                        exact = False
                        break
                    rights.append(w)
                    if m is not None:
                        lefts.append(m)
                        for x in adj[m]:
                            if x not in mate:
                                rights.append(x)
                                break
                        else:
                            pending.append(iter(adj[m]))
                            break
                    for u, x in zip(lefts, rights):
                        mate[x] = u
                    pending = None
                    break
                else:
                    pending.pop()
                    lefts.pop()
                    if rights:
                        rights.pop()
            if pending is None:
                unmatched -= 1
                exact = False
                if unmatched <= spare:
                    break
            elif exact:
                dead += 1
                if target is not None and dead > spare:
                    break
            else:
                retry.append(root)
        else:
            # layers for the next phase; it runs only if a free right copy is reachable
            free = retry
            dist = dict.fromkeys(free, 0)
            queue = free[:]
            reach = False
            for u in queue:
                d = dist[u] + 1
                for w in adj[u]:
                    m = mate.get(w)
                    if m is None:
                        reach = True
                    elif m not in dist:
                        dist[m] = d
                        queue.append(m)
            if reach:
                continue
        break
    return len(adj) - unmatched, mate


def _half_integral_partition(g: Graph) -> tuple[NTPartition, int]:
    adj = g.adjacency()
    matching, pair_r = _double_cover_matching(adj)
    pair_l = {u: w for w, u in pair_r.items()}
    # Koenig: from the free left vertices, alternate non-matching then
    # matching edges; the bipartite cover is (L minus reached) + reached
    # rights. The reached sets do not depend on the walk's order.
    z_left: set[int] = {u for u in adj if u not in pair_l}
    z_right: set[int] = set()
    queue = list(z_left)
    for u in queue:
        for w in adj[u]:
            if w not in z_right and pair_l.get(u) != w:
                z_right.add(w)
                mate = pair_r.get(w)
                if mate is not None and mate not in z_left:
                    z_left.add(mate)
                    queue.append(mate)
    if len(adj) - len(z_left) + len(z_right) != matching:
        raise AssertionError("bipartite cover size disagrees with the matching")
    ones = frozenset(z_right - z_left)  # both copies covered
    zeros = frozenset(z_left - z_right)  # neither copy covered
    halves = frozenset(adj.keys() - ones - zeros)
    return NTPartition(ones=ones, zeros=zeros, halves=halves), matching


def lp_lower_bound(g: Graph) -> int:
    """ceil of the LP optimum; every cover is at least this large."""
    return (_double_cover_matching(g.adjacency())[0] + 1) // 2


def _odd_cycle_packing(
    adj: Mapping[int, set[int]],
    need: int,
    triangles: set[int],
    order: Callable[[Mapping[int, set[int]]], Iterator[int]] = iter,
) -> list[tuple[int, ...]]:
    """Up to need >= 1 vertex-disjoint odd cycles of the graph with adjacency
    adj, given a superset ``triangles`` of its vertices on a triangle, such
    as the graph's triangle index (see ``Graph``). Both passes walk the
    vertices in the order ``order(adj)`` yields them: adj's own by default,
    and ``reversed`` for the check's second packing, which copies nothing.

    Triangles come first, packed greedily: a vertex v not yet packed takes
    the first free neighbour u of higher id that closes a triangle with it,
    and the lowest-id free vertex that closes it. No triangle whose
    vertices all stay free is left, since its lowest vertex would have
    taken one; in ascending id order every triangle is taken at its lowest
    vertex. The pass skips the vertices outside ``triangles``, which take
    none, so any superset packs the same triangles in the same order.
    Where triangles run out, a BFS over the free vertices runs from each
    free vertex in turn and packs the odd cycle that the first edge inside
    one of its layers closes (``_odd_cycle``); a BFS that finds none has
    walked a bipartite component of the free vertices, which it sets aside.
    So unless the packing stops at need, the vertices it leaves induce a
    bipartite graph."""
    used: set[int] = set()
    packed: list[tuple[int, ...]] = []
    for v in order(adj):
        if v in used or v not in triangles:
            continue
        nv = adj[v]
        free = nv - used if used else nv
        for u in free:
            if u > v and not free.isdisjoint(adj[u]):
                packed.append((v, u, min(free & adj[u])))
                if len(packed) == need:
                    return packed
                used.update(packed[-1])
                break
    for root in order(adj):
        if root in used:
            continue
        cycle = _odd_cycle(adj, root, used)
        if cycle is not None:
            packed.append(cycle)
            if len(packed) == need:
                break
            used.update(cycle)
    return packed


def _odd_cycle(adj: Mapping[int, set[int]], root: int, used: set[int]) -> tuple[int, ...] | None:
    """The odd cycle that the first edge {u, w} inside a layer of a BFS from
    root, over the vertices not in used, closes: the tree paths from u and w
    up to their lowest common ancestor, plus the edge. Without such an edge
    root's component of free vertices is bipartite; its vertices join used,
    and the answer is None."""
    parent = {root: root}
    depth = {root: 0}
    queue = [root]
    for u in queue:
        d = depth[u]
        for w in adj[u]:
            if w in used:
                continue
            dw = depth.get(w)
            if dw is None:
                parent[w] = u
                depth[w] = d + 1
                queue.append(w)
            elif dw == d:
                up, down = [u], [w]  # equal depths, so they meet at the ancestor
                while up[-1] != down[-1]:
                    up.append(parent[up[-1]])
                    down.append(parent[down[-1]])
                down.pop()
                return (*up, *reversed(down))
    used.update(queue)
    return None


def _rest(adj: Mapping[int, set[int]], packed: list[tuple[int, ...]]) -> dict[int, set[int]] | None:
    """The adjacency of the graph with adjacency adj minus the packed
    cycles, or None where a vertex next to them shows that the rest's double
    cover has no perfect matching: it is left with no neighbour, or with the
    same one neighbour as another such vertex."""
    out = set().union(*packed)
    near: dict[int, set[int]] = {}
    hubs: set[int] = set()  # the one neighbour of each vertex left with one
    for w in set().union(*map(adj.__getitem__, out)) - out:  # only they lose edges
        near[w] = nw = adj[w] - out
        if len(nw) < 2:
            if not nw or nw <= hubs:
                return None
            hubs |= nw
    rest = dict(adj)
    for v in out:
        del rest[v]
    rest.update(near)
    return rest


def bound_exceeds(g: Graph, cap: int, most: int) -> bool:
    """Whether a lower bound on g's covers exceeds cap. Where need =
    2 * cap - n + 1 <= 0 the bound is lp_lower_bound(g). From need 1 up,
    where the LP bound can at most tie cap, it is sum((|C| + 1) / 2) +
    LP(g - C) for need packed disjoint odd cycles C; since LP(g - C) <=
    (n - |C|) / 2, fewer cycles could not exceed cap. Above need most, the
    largest need the caller will pay a packing for, the answer is False.
    The matching stops once it knows the answer; after a packing its target
    is the rest's vertex count, so it gives up at the first left copy it
    proves unmatchable. Where ``_rest`` finds such a copy next to the
    cycles before the matching, the check packs need cycles once more,
    walking the vertices in reverse order, and answers on that packing's
    rest; it gives up where that rest fails the look too.
    """
    adj = g.adjacency()
    need = 2 * cap - len(adj) + 1
    if need > most:
        return False
    if need >= 1:
        packed = _odd_cycle_packing(adj, need, g.triangles)
        if len(packed) < need:
            return False
        rest = _rest(adj, packed)
        if rest is None:
            packed = _odd_cycle_packing(adj, need, g.triangles, reversed)
            rest = _rest(adj, packed) if len(packed) == need else None
            if rest is None:
                return False
        adj = rest
        cap -= sum((len(c) + 1) // 2 for c in packed)
    target = 2 * cap + 1
    return _double_cover_matching(adj, target)[0] >= target


def nt_kernelize(g: Graph, k: int) -> KernelResult:
    """Shrink g in place to the kernel induced by the LP halves.

    Value-1 vertices are deleted (k_residual = k - #ones), and value-0
    vertices, isolated once the ones are gone, are deleted too. A cover C of
    the kernel lifts to the cover C | partition.ones of the graph handed in,
    so a minimum one lifts to a minimum one. When the LP value already
    exceeds k the result is an authoritative NO and the graph is left as it
    was.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    partition, matching = _half_integral_partition(g)
    k_residual = k - len(partition.ones)
    feasible = k_residual >= 0 and len(partition.halves) <= 2 * k_residual
    if feasible:
        for v in sorted(partition.ones):
            g.remove_vertex(v)
        for v in sorted(partition.zeros):
            if g.degree(v) != 0:
                raise AssertionError(f"LP-zero vertex {v} still has a neighbor")
            g.remove_vertex(v)
    return KernelResult(
        k_residual=k_residual, partition=partition, feasible=feasible, lp_times_two=matching
    )
