"""Solver benchmark: certified end-to-end times and an outside-in layer trace.

Usage, from the repository root:

    python3 perfbench/run.py --workload cubic --seed 1 --seconds 30 --trace 0

Workloads: cubic, maxdeg5, sparse-blocks (see workloads.py). Each run builds
the workload's corpus from --seed, then, for every instance, parses its DIMACS
text and calls vc_minimum, vc_decide at k=opt and vc_decide at k=opt-1 with
the default SolverConfig, in this one process on one core. Every answer is
checked: covers against the benchmark's own edge list, YES at opt, NO at
opt-1, and the optimum against its pinned value.

--trace 0 makes MIN_PASSES identical passes over the corpus, more while
another still fits in --seconds, and reports the end-to-end metrics. Each
time is the median over the passes, per graph or per operation, summed over
the graphs. A full garbage collection, untimed, precedes every graph, so no
operation pays for collecting the garbage of the one before.

The end-to-end times (and decide_yes_s) are scaled to a nominal host speed:
after every solver call the run times a fixed reference kernel
(reference.py), and every time is multiplied by reference.NOMINAL_S over the
kernel's median time in the run. On a shared 2-vCPU VM the speed this process
gets drifts by 10-30% over minutes and halves under a busy neighbour; over
runs minutes apart, raw medians spread by 6-13% and scaled ones by 2-8%
(IQR over median). The raw times and the kernel's median are printed before
the result line, and host.ref_ms is a per-layer metric.

--trace 1 runs every graph once untraced and then once traced, back to back so
that both see the same machine state, and reports the per-layer metrics and
the tracing overhead (traced minus untraced wall time).

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it repeat every metric with its unit,
plus failed_ratio, the run's environment and the op_s_tail sample count. The
package is imported from src/ next to this directory; without it the run
exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("cubic", "maxdeg5", "sparse-blocks")
SETUP_REPS = 5      # set-up is repeated at least this often
SETUP_MIN_S = 3.0   # and for at least this long; setup_s is the median
MIN_PASSES = 3
MODES = ("minimize", "decide_yes", "decide_no")
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND_TAIL = 10

END_TO_END = {
    "wall_s": "s",
    "minimize_s": "s",
    "decide_no_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "nodes_expanded": "count",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# bench is the harness itself (loop and its own cover checks); with it the
# layer self times add up to the traced wall time.
LAYERS = (
    "search", "reductions", "kernel", "structure", "selection",
    "graph", "treecover", "oracle", "dimacs", "bench",
)
FUNCTIONS = (
    "structure.tau", "graph.clone", "graph.connected_components",
    "reductions.reduce_fixpoint", "kernel.nt_kernelize", "kernel.lp_lower_bound",
    "selection.select", "dimacs.parse_dimacs",
)
RULE_TAGS = ("high_degree_ge5", "degree4", "degree3_regular")


def per_layer_units() -> dict[str, str]:
    # decide_yes_s is an end-to-end time, but whether the first dive finds an
    # optimum varies with the relabeling so much that no bound holds for it
    units = {"decide_yes_s": "s", "host.ref_ms": "ms"}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        if layer != "bench":
            units[f"{layer}.calls"] = "count"
        units[f"{layer}.share"] = "fraction"
    for fn in FUNCTIONS:
        units[f"{fn}.self_s"] = "s"
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.share"] = "fraction"
    units["search.us_per_node"] = "us"
    units["search.prune_ratio"] = "fraction"
    for tag in RULE_TAGS:
        units[f"search.nodes.{tag}"] = "count"
    units["kernel.nt_kernelize.infeasible_ratio"] = "fraction"
    units["trace.wall_s"] = "s"
    units["trace.untraced_wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.spans"] = "count"
    return units


def import_package() -> None:
    """Import cyclecover from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import cyclecover
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import cyclecover from {SRC}: {exc}")
    origin = Path(cyclecover.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.exit(f"perfbench: cyclecover was imported from {origin}, not from {SRC}")


IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import cyclecover; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout)


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "cyclecover").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            )
        except OSError:  # no git on this host
            out = None
        if out is not None and out.returncode == 0:
            commit = out.stdout.strip()
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


@dataclass
class Pass:
    wall: float = 0.0
    inst_s: list[float] = field(default_factory=list)  # per instance, checks included
    op_s: dict[tuple[str, str], float] = field(default_factory=dict)  # solver calls only
    nodes: int = 0
    exhausted: int = 0
    attempted: int = 0
    failures: Counter = field(default_factory=Counter)
    ref_s: list[float] = field(default_factory=list)  # reference kernel, untraced only
    ref_total: float = 0.0  # time spent in the kernel, left out of every other time


def covers(inst, cover) -> bool:
    """The benchmark's own check: ids in range and every edge touched."""
    cset = set(cover)
    if any(not (1 <= v <= inst.n) for v in cset):
        return False
    return all(u in cset or v in cset for u, v in inst.edges)


def run_pass(corpus, pinned: list[int], tracer=None) -> Pass:
    from cyclecover import dimacs, search

    import tracer as tracer_mod

    if tracer is None and tracer_mod.installed():
        raise RuntimeError(f"untraced pass with wrappers installed: {tracer_mod.installed()}")
    res = Pass()

    def call(inst, mode: str, fn, *args):
        if tracer is not None:
            tracer.op += 1
        res.attempted += 1
        t = time.perf_counter()
        try:
            return fn(*args)
        except Exception as exc:  # recorded, and the pass goes on
            res.failures[f"{mode}:{type(exc).__name__}"] += 1
            return None
        finally:
            took = time.perf_counter() - t
            if mode in MODES:
                res.op_s[(inst.name, mode)] = took
            if tracer is None:
                res.ref_total += reference.sample(res.ref_s, took)

    def fail(mode: str, why: str) -> None:
        res.failures[f"{mode}:{why}"] += 1

    root = tracer.open(tracer.register("bench.pass")) if tracer is not None else None
    start = time.perf_counter()
    for inst, opt in zip(corpus, pinned):
        gc.collect()
        t = time.perf_counter()
        ref_before = res.ref_total
        g = call(inst, "parse", dimacs.parse_dimacs, inst.text)
        if g is None:
            res.inst_s.append(time.perf_counter() - t - (res.ref_total - ref_before))
            continue
        found = call(inst, "minimize", search.vc_minimum, g)
        if found is not None:
            size, cover, stats = found
            res.nodes += stats.nodes_expanded
            res.exhausted += stats.k_exhausted_leaves
            if len(cover) != size or not covers(inst, cover):
                fail("minimize", "bad_cover")
            elif size != opt:
                fail("minimize", "wrong_optimum")
        for mode, k, expect in (("decide_yes", opt, "YES"), ("decide_no", opt - 1, "NO")):
            verdict = call(inst, mode, search.vc_decide, g, k)
            if verdict is None:
                continue
            res.nodes += verdict.stats.nodes_expanded
            res.exhausted += verdict.stats.k_exhausted_leaves
            if verdict.answer != expect:
                fail(mode, "wrong_answer")
            elif expect == "YES" and (len(verdict.cover) > k or not covers(inst, verdict.cover)):
                fail(mode, "bad_cover")
        res.inst_s.append(time.perf_counter() - t - (res.ref_total - ref_before))
    res.wall = time.perf_counter() - start - res.ref_total
    if root is not None:
        tracer.close(root)
        res.wall = tracer.duration(root)
    return res


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    for p in TAIL_LADDER:
        if samples - _rank(p, samples) >= MIN_BEYOND_TAIL:
            return p
    return 50.0


def _rank(p: float, samples: int) -> int:
    """1-based nearest rank of percentile p."""
    return max(1, math.ceil(p * samples / 100))


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def merge(parts: list[Pass]) -> Pass:
    """One Pass from passes over disjoint parts of the corpus."""
    res = Pass()
    for part in parts:
        res.wall += part.wall
        res.inst_s += part.inst_s
        res.op_s.update(part.op_s)
        res.nodes += part.nodes
        res.exhausted += part.exhausted
        res.attempted += part.attempted
        res.failures += part.failures
        res.ref_s += part.ref_s
        res.ref_total += part.ref_total
    return res


def mode_s(op_s: dict[tuple[str, str], float], mode: str) -> float:
    return sum(t for (_, m), t in op_s.items() if m == mode)


# times scaled to the nominal host speed; the others are counts or sizes
SCALED = ("wall_s", "minimize_s", "decide_no_s", "op_s_p50", "op_s_tail", "setup_s")


def end_to_end(passes: list[Pass], setup_s: float) -> tuple[dict, str]:
    ops = {key: statistics.median(p.op_s[key] for p in passes) for key in passes[0].op_s}
    op_times = list(ops.values())
    tail = tail_percentile(len(op_times))
    values = {
        "wall_s": sum(statistics.median(times) for times in zip(*(p.inst_s for p in passes))),
        "minimize_s": mode_s(ops, "minimize"),
        "decide_no_s": mode_s(ops, "decide_no"),
        "op_s_p50": statistics.median(op_times),
        "op_s_tail": percentile(op_times, tail),
        "nodes_expanded": passes[0].nodes,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    ref_s = [r for p in passes for r in p.ref_s]
    factor = reference.scale(ref_s)
    raw = {name: values[name] for name in SCALED}
    for name in SCALED:
        values[name] *= factor
    note = (
        f"op_s_tail is p{tail:g} of {len(op_times)} operation times; "
        f"decide_yes_s (unbounded, also in the traced run) {mode_s(ops, 'decide_yes') * factor!r} s\n"
        f"  times scaled by {factor!r}: reference kernel median "
        f"{statistics.median(ref_s) * 1e3!r} ms of {len(ref_s)} samples, nominal "
        f"{reference.NOMINAL_S * 1e3!r} ms; raw seconds {json.dumps(raw)}"
    )
    return values, note


def per_layer(base: Pass, traced: Pass, tracer) -> dict:
    spans = tracer.self_times()
    wall = traced.wall
    values = {
        "decide_yes_s": mode_s(base.op_s, "decide_yes") * reference.scale(base.ref_s),
        "host.ref_ms": statistics.median(base.ref_s) * 1e3,
    }
    for layer in LAYERS:
        calls = sum(c for name, (c, _) in spans.items() if name.split(".", 1)[0] == layer)
        own = sum(s for name, (_, s) in spans.items() if name.split(".", 1)[0] == layer)
        values[f"{layer}.self_s"] = own
        if layer != "bench":
            values[f"{layer}.calls"] = calls
        values[f"{layer}.share"] = own / wall
    for fn in FUNCTIONS:
        calls, own = spans.get(fn, (0, 0.0))
        values[f"{fn}.self_s"] = own
        values[f"{fn}.calls"] = calls
        values[f"{fn}.share"] = own / wall
    solver_s = sum(base.op_s.values())
    values["search.us_per_node"] = solver_s / base.nodes * 1e6
    values["search.prune_ratio"] = base.exhausted / base.nodes
    for tag in RULE_TAGS:
        values[f"search.nodes.{tag}"] = tracer.counts[f"search.nodes.{tag}"]
    nt_calls = spans.get("kernel.nt_kernelize", (0, 0.0))[0]
    values["kernel.nt_kernelize.infeasible_ratio"] = (
        tracer.counts["kernel.nt_kernelize.infeasible"] / nt_calls if nt_calls else 0.0
    )
    values["trace.wall_s"] = wall
    values["trace.untraced_wall_s"] = base.wall
    values["trace.overhead_s"] = wall - base.wall
    values["trace.spans"] = len(tracer.start)
    return values


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_package()
    sys.path.insert(0, str(HERE))
    import tracer as tracer_mod
    import workloads

    setups = []
    begin = time.perf_counter()
    while len(setups) < SETUP_REPS or time.perf_counter() - begin < SETUP_MIN_S:
        imp = import_seconds()
        t = time.perf_counter()
        corpus = workloads.make_corpus(args.workload, args.seed)
        setups.append(imp + time.perf_counter() - t)
    setup_s = statistics.median(setups)
    pinned = workloads.PINNED_OPTIMA[args.workload]

    if args.trace:
        tracer = tracer_mod.Tracer()
        base_parts, traced_parts = [], []
        for inst, opt in zip(corpus, pinned):
            base_parts.append(run_pass([inst], [opt]))
            with tracer:
                traced_parts.append(run_pass([inst], [opt], tracer))
        base, traced = merge(base_parts), merge(traced_parts)
        passes = [base, traced]
        metrics = per_layer(base, traced, tracer)
        units = per_layer_units()
        spans = tracer.self_times()
        self_sum = sum(s for _, s in spans.values())
        consistent = abs(self_sum - traced.wall) <= 1e-6 * traced.wall
        note = f"span self times sum to {self_sum!r} s of traced wall {traced.wall!r} s"
        unnamed = sorted(n for n in spans if n.split(".", 1)[0] not in LAYERS)
        if unnamed:
            note += f"; spans outside the named layers: {unnamed}"
    else:
        passes = []
        begin = time.perf_counter()
        while True:
            passes.append(run_pass(corpus, pinned))
            elapsed = time.perf_counter() - begin
            if len(passes) >= MIN_PASSES and elapsed + passes[-1].wall > args.seconds:
                break
        metrics, note = end_to_end(passes, setup_s)
        units = END_TO_END
        consistent = True

    attempted = sum(p.attempted for p in passes)
    failures = sum((p.failures for p in passes), Counter())
    failed = sum(failures.values())
    deterministic = len({p.nodes for p in passes}) == 1
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "instances": len(corpus),
        "passes": len(passes),
        **environment(),
    }
    print("perfbench", json.dumps(info, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:40s} {value!r} {units[name]}")
    print(f"  {'failed_ratio':40s} {failed}/{attempted} = {failed / attempted!r}")
    if failures:
        print("  failures:", json.dumps(dict(sorted(failures.items()))))
    if not deterministic:
        print("  node counts differ between passes:", [p.nodes for p in passes])
    print(f"  {note}")
    result = {
        "correct": failed == 0 and deterministic and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
