"""Tests of the benchmark itself: pinned optima, tracer and output contract.

Run from the repository root with ``python -m pytest perfbench``. The MILP
cross-check needs scipy and is skipped without it; the benchmark's runtime
uses the standard library only.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_package()

import reference  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def milp_optimum(inst: workloads.Instance) -> int:
    """Minimum vertex cover by HiGHS, one MILP per connected component (the
    whole sparse-blocks graph in one model can stall the solver for minutes)."""
    np = pytest.importorskip("numpy")
    optimize = pytest.importorskip("scipy.optimize")
    sparse = pytest.importorskip("scipy.sparse")
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    edges = np.array(inst.edges) - 1
    adj = sparse.coo_array((np.ones(len(edges)), edges.T), shape=(inst.n, inst.n))
    _, label = csgraph.connected_components(adj, directed=False)
    total = 0
    for comp in np.unique(label[edges[:, 0]]):
        comp_edges = edges[label[edges[:, 0]] == comp]
        verts = np.unique(comp_edges)
        m = len(comp_edges)
        cols = np.searchsorted(verts, comp_edges).ravel()
        a = sparse.csr_array((np.ones(2 * m), (np.repeat(np.arange(m), 2), cols)),
                             shape=(m, len(verts)))
        res = optimize.milp(
            c=np.ones(len(verts)),
            constraints=optimize.LinearConstraint(a, lb=1, ub=np.inf),
            integrality=np.ones(len(verts)),
            bounds=optimize.Bounds(0, 1),
        )
        assert res.status == 0, res.message
        total += round(res.fun)
    return total


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_pinned_optima_agree_with_milp(workload):
    corpus = workloads.make_corpus(workload, 1)
    pinned = workloads.PINNED_OPTIMA[workload]
    assert len(pinned) == len(corpus)
    assert [milp_optimum(inst) for inst in corpus] == pinned


def small_corpus():
    return workloads.make_corpus("maxdeg5", 7)[:3]


PINNED = workloads.PINNED_OPTIMA["maxdeg5"][:3]


def test_untraced_pass_runs_without_wrappers():
    corpus = small_corpus()
    assert tracer_mod.installed() == []
    res = run.run_pass(corpus, PINNED)
    assert not res.failures and res.attempted == 4 * len(corpus)
    with tracer_mod.Tracer():
        assert len(tracer_mod.installed()) == len(tracer_mod.targets())
        with pytest.raises(RuntimeError, match="wrappers installed"):
            run.run_pass(corpus, PINNED)
    assert tracer_mod.installed() == []


def test_traced_self_times_add_up_to_wall():
    corpus = small_corpus()
    base = run.run_pass(corpus, PINNED)
    with tracer_mod.Tracer() as tr:
        traced = run.run_pass(corpus, PINNED, tr)
    assert traced.nodes == base.nodes and not traced.failures
    spans = tr.self_times()
    assert sum(s for _, s in spans.values()) == pytest.approx(traced.wall, rel=1e-9)
    assert all(s >= -1e-9 for _, s in spans.values())
    metrics = run.per_layer(base, traced, tr)
    assert set(metrics) == set(run.per_layer_units())
    for layer in run.LAYERS:
        if layer != "bench":
            assert metrics[f"{layer}.calls"] > 0, layer
    # every span but the pass root hangs under a parent and an operation
    assert all(tr.parent[i] >= 0 and tr.op_id[i] > 0 for i in range(1, len(tr.start)))


def test_end_to_end_times_are_scaled_to_the_nominal_host():
    ops = {("g", "minimize"): 1.0, ("g", "decide_yes"): 0.25, ("g", "decide_no"): 0.75}
    slow = run.Pass(wall=2.5, inst_s=[2.5], op_s=ops, nodes=7,
                    ref_s=[2 * reference.NOMINAL_S] * 3)
    values, _ = run.end_to_end([slow], setup_s=1.0)
    assert values["wall_s"] == pytest.approx(1.25)
    assert values["minimize_s"] == pytest.approx(0.5)
    assert values["decide_no_s"] == pytest.approx(0.375)
    assert values["setup_s"] == pytest.approx(0.5)
    assert values["nodes_expanded"] == 7


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(24) == 50.0
    assert run.tail_percentile(42) == 75.0
    assert run.tail_percentile(144) == 90.0
    assert run.tail_percentile(240) == 95.0


def test_benchmark_json_names_what_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cubic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_predictions_cite_existing_metrics_and_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = {w["name"] for w in spec["workloads"]}
    table = json.loads((ROOT / "perfbench" / "predictions.json").read_text())
    for row in table["predictions"]:
        assert set(row["layer_metric"]) <= metrics, row
        assert set(row["moves"]) <= metrics, row
        assert set(row["on"]) | set(row["barely_on"]) <= names, row
