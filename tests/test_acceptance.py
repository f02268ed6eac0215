"""Acceptance criteria, one test and one printed verdict line each.

Run with -s to see the lines. Criteria 1-5 pin arithmetic against frozen
values, 6-12 are oracle-backed sweeps at desk scale, 13 emits the advisory
node-count report without asserting a threshold.
"""

import json
import pathlib
import random
import time

from cyclecover.analysis import branching_number, interleave_base
from cyclecover.cli import main as cli_main
from cyclecover.dimacs import emit_dimacs
from cyclecover.generators import generate, petersen_graph, random_max_degree
from cyclecover.graph import Graph
from cyclecover.kernel import nt_kernelize
from cyclecover.oracle import (
    is_vertex_cover,
    max_real_cycle_bruteforce,
    min_vc_bruteforce,
)
from cyclecover.errors import ResourceLimitError
from cyclecover.reductions import (
    ReductionTrace,
    fold_degree2,
    lift_cover,
    reduce_fixpoint,
)
from cyclecover.search import vc_decide, vc_minimum
from cyclecover.structure import circuit_rank, extra_degree_graph, strip_lines, tau, tau_upper_bound
from cyclecover.treecover import min_vc_forest

import contextlib
import io

from conftest import gnp, mixed_instance

REPORT_DIR = pathlib.Path(__file__).resolve().parent.parent / "reports"


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


def test_ac01_worst_vector_number_fast():
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        value = branching_number((3, 7))
        best = min(best, time.perf_counter() - start)
    ok = abs(value - 1.15855) < 1e-4 and best < 1e-3
    report("AC01", ok, f"branching_number((3,7)) = {value:.6f} in {best * 1e6:.0f}us")


def test_ac02_composite_tau_vectors():
    a = branching_number((5, 9, 12))
    b = branching_number((22, 19, 6, 5))
    ok = abs(a - 1.1451) < 1e-3 and abs(b - 1.1574) < 1e-3
    report("AC02", ok, f"(5,9,12) = {a:.5f}, (22,19,6,5) = {b:.5f}")


def test_ac03_interleaving():
    alpha, eff = interleave_base(1.15855, 16)
    ok = abs(alpha - 0.04799) < 1e-4 and abs(eff - 1.1504) < 1e-3
    report("AC03", ok, f"alpha = {alpha:.5f}, effective base = {eff:.5f}")


def test_ac04_analyze_recomputes_catalog():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(["analyze"])
    doc = json.loads(out.getvalue())
    numbers = [vec["number"] for case in doc["cases"] for vec in case["vectors"]]
    ok = (
        code == 0
        and len(numbers) >= 26
        and all(1.0 < x < 2.0 and x == x for x in numbers)
    )
    report("AC04", ok, f"{len(numbers)} catalog vectors recomputed, all roots finite and > 1")


def test_ac05_petersen_structure():
    p = petersen_graph()
    t, ex, rank = tau(p), extra_degree_graph(p), circuit_rank(p)
    ok = t == 6 and ex == 10 and t == ex // 2 + 1 and t == rank
    report("AC05", ok, f"tau = {t}, ex = {ex}, circuit rank = {rank}")


def test_ac06_kernel_size_bound():
    checked = 0
    worst = 0.0
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randrange(4, 61)
        g = generate("maxdeg3", n, rng.randrange(10**9))
        opt, _, _ = vc_minimum(g)
        for k in (opt, opt + 2):
            res = nt_kernelize(g.clone(), k)
            if not res.feasible:
                continue
            checked += 1
            size = res.kernel.num_vertices()
            assert size <= 2 * res.k_residual, (seed, k, size, res.k_residual)
            if res.k_residual:
                worst = max(worst, size / res.k_residual)
    ok = checked >= 300
    report("AC06", ok, f"{checked} feasible kernels, max size/k_residual = {worst:.2f} (bound 2)")


def test_ac07_structure_suite():
    start = time.perf_counter()
    count = 0
    rng = random.Random(77)
    for seed in range(1000):
        g = mixed_instance(seed, max_n=40)
        count += 1
        t = tau(g)
        n, m = g.num_vertices(), g.num_edges()
        c = len(g.connected_components())
        assert t == m - n + c, seed
        assert (t == 0) == g.is_forest(), seed
        assert tau(strip_lines(g)) == t, seed
        if g.is_connected() and n > 0:
            assert t <= tau_upper_bound(g), seed
            verts = sorted(g.vertices())
            if n >= 2:
                for _ in range(10):
                    u, v = rng.sample(verts, 2)
                    if not g.has_edge(u, v):
                        h = g.clone()
                        h.add_edge(u, v)
                        assert tau(h) == t + 1, seed
                        break
    elapsed = time.perf_counter() - start
    ok = count >= 1000 and elapsed < 10.0
    report("AC07", ok, f"{count} graphs checked in {elapsed:.1f}s (budget 10s)")


def test_ac08_cycle_oracle_matches_tau():
    admitted = 0
    for seed in range(250):
        g = mixed_instance(seed, max_n=12)
        try:
            got, _ = max_real_cycle_bruteforce(g)
        except ResourceLimitError:
            continue
        admitted += 1
        assert got == tau(g), seed
    ok = admitted >= 100
    report("AC08", ok, f"{admitted}/250 instances admitted by the guard, all equal tau")


def test_ac09_solver_matches_oracle():
    start = time.perf_counter()
    rng = random.Random(909)
    done = 0
    for trial in range(500):
        n = rng.randrange(4, 21)
        if trial % 2:
            g = generate("maxdeg3", n, rng.randrange(10**9))
        else:
            g = random_max_degree(n, rng, max_deg=5, proposals=4 * n)
        opt, _ = min_vc_bruteforce(g)
        size, cover, _ = vc_minimum(g)
        assert size == opt, trial
        assert is_vertex_cover(g, cover) and len(cover) == size
        done += 1
    elapsed = time.perf_counter() - start
    ok = done == 500 and elapsed < 60.0
    report("AC09", ok, f"{done} instances matched the oracle in {elapsed:.1f}s (budget 60s)")


def test_ac10_reduction_soundness():
    fired = {"fold": 0, "fixpoint": 0}
    for seed in range(500):
        g = mixed_instance(seed, max_n=18)
        opt, _ = min_vc_bruteforce(g)

        # a single-rule probe where the fold applies
        deg2 = next((v for v in sorted(g.vertices()) if g.degree(v) == 2), None)
        if deg2 is not None:
            h = g.clone()
            t = ReductionTrace()
            fold_degree2(h, deg2, t)
            sub, cover = min_vc_bruteforce(h)
            lifted = lift_cover(t, cover)
            assert t.k_delta + sub == opt and is_vertex_cover(g, lifted), seed
            fired["fold"] += 1

        h = g.clone()
        t = ReductionTrace()
        reduce_fixpoint(h, t)
        if h.num_vertices() <= 26:
            sub, cover = min_vc_bruteforce(h)
            lifted = lift_cover(t, cover)
            assert t.k_delta + sub == opt, seed
            assert is_vertex_cover(g, lifted) and len(lifted) == opt
            fired["fixpoint"] += 1
    ok = fired["fixpoint"] >= 450 and all(v > 0 for v in fired.values())
    report("AC10", ok, f"rule firings {fired}, optimum preserved every time")


def test_ac11_tree_solver():
    from cyclecover.generators import random_tree

    for seed in range(60):
        rng = random.Random(seed)
        g = random_tree(rng.randrange(1, 17), rng)
        size, cover = min_vc_forest(g)
        assert size == min_vc_bruteforce(g)[0] and is_vertex_cover(g, cover), seed
    big = random_tree(100_000, random.Random(4))
    start = time.perf_counter()
    size, cover = min_vc_forest(big)
    elapsed = time.perf_counter() - start
    ok = elapsed < 1.0 and is_vertex_cover(big, cover)
    report("AC11", ok, f"60 trees match the oracle; n = 100000 solved in {elapsed * 1000:.0f}ms")


def test_ac12_search_invariants_and_determinism(checked_branchings):
    # checked_branchings fails the test at the first branching that breaks a
    # tau invariant
    for seed in range(120):
        g = mixed_instance(seed, max_n=16)
        opt = vc_minimum(g)[0]
        vc_decide(g, opt)

    dim = emit_dimacs(generate("maxdeg3", 30, 13))
    outs = set()
    for _ in range(3):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            import sys

            old = sys.stdin
            sys.stdin = io.TextIOWrapper(io.BytesIO(dim.encode("ascii")))
            try:
                cli_main(["minimize", "-"])
            finally:
                sys.stdin = old
        outs.add(buf.getvalue())
    ok = checked_branchings.count > 0 and len(outs) == 1
    report(
        "AC12",
        ok,
        f"tau invariants held at {checked_branchings.count} branchings over 120 graphs; "
        f"reruns byte-identical: {len(outs) == 1}",
    )


def test_ac13_envelope_report():
    rows = []
    rng = random.Random(1313)
    sizes = [20, 30, 40]
    for i in range(50):
        n = sizes[i % 3]
        g = generate("cubic", n, rng.randrange(10**9))
        size, _, _ = vc_minimum(g)
        verdict = vc_decide(g, size)
        k = size
        rows.append(
            {
                "n": n,
                "k": k,
                "nodes_expanded": verdict.stats.nodes_expanded,
                "tau_root": verdict.stats.tau_root,
                "envelope_1_15855": 1.15855**k,
                "envelope_1_1504": 1.1504**k,
                "within_1_15855": verdict.stats.nodes_expanded <= 1.15855**k,
                "within_1_1504": verdict.stats.nodes_expanded <= 1.1504**k,
            }
        )
    REPORT_DIR.mkdir(exist_ok=True)
    path = REPORT_DIR / "envelope_report.json"
    path.write_text(json.dumps({"instances": rows}, indent=2, sort_keys=True) + "\n")
    within = sum(r["within_1_15855"] for r in rows)
    report(
        "AC13",
        True,
        f"advisory only: {within}/50 under the 1.15855^k envelope, report at {path.name}",
    )
