"""Command-line front end.

Every invocation prints exactly one JSON document to stdout and exits 0 when
the run completed (the answer lives inside the JSON), 2 on usage errors, 3 on
parse errors, 4 when a resource guard tripped or memory ran out. Machine
consumers should parse stdout and ignore stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import sys

from .analysis import WORST_TAU_VECTOR, branching_number, case_catalog, interleave_base
from .dimacs import MAX_VERTICES, emit_dimacs, parse_cover, parse_dimacs
from .errors import DimacsParseError, ResourceLimitError
from .generators import MODELS, generate
from .graph import Graph
from .kernel import nt_kernelize
from .oracle import is_vertex_cover, min_vc_bruteforce
from .search import (
    ENVELOPE_BASE_INTERLEAVED,
    ENVELOPE_BASE_PLAIN,
    NODE_BUDGET,
    SearchStats,
    check_node_budget,
    vc_decide,
    vc_minimum,
)
from .structure import circuit_rank, extra_degree_graph, tau, tau_upper_bound

KERNEL_GROWTH = 16.0
COMMANDS = ("solve", "minimize", "kernelize", "tau", "analyze", "gen", "verify", "oracle")


def _read_input(path: str) -> str:
    """The input's text; a byte that does not decode is a parse error."""
    try:
        if path == "-":
            # decoded and newline-translated exactly as a file opened below
            return io.TextIOWrapper(io.BytesIO(sys.stdin.buffer.read()), encoding="ascii").read()
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start]
        raise DimacsParseError(f"input is not ASCII text: byte 0x{bad:02x}") from None


def _stats_doc(stats: SearchStats, k: int) -> dict:
    report = check_node_budget(stats, k)
    return {
        **dataclasses.asdict(stats),
        "envelope_1_15855": report["envelope_1_15855"],
        "envelope_1_1504": report["envelope_1_1504"],
    }


def _doc(command: str | None, warnings: list[str], **fields) -> dict:
    doc = {
        "command": command,
        "answer": None,
        "cover": None,
        "size": None,
        "k": None,
        "stats": None,
        "warnings": warnings,
    }
    doc.update(fields)
    return doc


def _cmd_solve(args, warnings):
    g = parse_dimacs(_read_input(args.graph), warnings)
    verdict = vc_decide(g, args.k, args.node_budget)
    cover = sorted(verdict.cover) if verdict.cover is not None else None
    return _doc(
        "solve",
        warnings,
        answer=verdict.answer,
        cover=cover,
        size=len(cover) if cover is not None else None,
        k=args.k,
        stats=_stats_doc(verdict.stats, args.k),
    )


def _cmd_minimize(args, warnings):
    g = parse_dimacs(_read_input(args.graph), warnings)
    size, cover, stats = vc_minimum(g, args.node_budget)
    return _doc(
        "minimize",
        warnings,
        answer=size,
        cover=sorted(cover),
        size=size,
        stats=_stats_doc(stats, size),
    )


def _cmd_kernelize(args, warnings):
    g = parse_dimacs(_read_input(args.graph), warnings)
    result = nt_kernelize(g, args.k)
    part = result.partition
    return _doc(
        "kernelize",
        warnings,
        answer=None if result.feasible else "NO",
        k=args.k,
        kernel_dimacs=emit_dimacs(g) if result.feasible else None,
        k_residual=result.k_residual,
        feasible=result.feasible,
        lp_value=result.lp_value,
        partition={
            "ones": sorted(part.ones),
            "zeros": sorted(part.zeros),
            "halves": sorted(part.halves),
        },
    )


def _cmd_tau(args, warnings):
    g = parse_dimacs(_read_input(args.graph), warnings)
    bound = 0
    for comp in g.connected_components():
        bound += tau_upper_bound(g.induced_subgraph(comp))
    t = tau(g)
    return _doc(
        "tau",
        warnings,
        answer=t,
        tau=t,
        ex=extra_degree_graph(g),
        circuit_rank=circuit_rank(g),
        tau_upper_bound=bound,
    )


def _cmd_analyze(args, warnings):
    cases = []
    for entry in case_catalog():
        vectors = []
        for vec, classes in zip(entry.claimed_vectors, entry.subgraph_classes):
            halved = vec.halved()
            vectors.append(
                {
                    "components": list(vec.components),
                    "units": vec.units,
                    "number": branching_number(vec),
                    "tau_components": list(halved.components),
                    "tau_number": branching_number(halved),
                    "subgraph_classes": list(classes),
                }
            )
        cases.append(
            {"case_id": entry.case_id, "description": entry.description, "vectors": vectors}
        )
    worst_number = branching_number(WORST_TAU_VECTOR)
    alpha, effective = interleave_base(ENVELOPE_BASE_PLAIN, KERNEL_GROWTH)
    return _doc(
        "analyze",
        warnings,
        cases=cases,
        worst={"vector": list(WORST_TAU_VECTOR), "number": worst_number},
        interleave={
            "base": ENVELOPE_BASE_PLAIN,
            "kernel_growth": KERNEL_GROWTH,
            "alpha": alpha,
            "effective_base": effective,
            "claimed_effective_base": ENVELOPE_BASE_INTERLEAVED,
        },
    )


def _cmd_gen(args, warnings):
    if args.n > MAX_VERTICES:
        raise ResourceLimitError(f"--n {args.n} is above the limit of {MAX_VERTICES} vertices")
    try:
        g = generate(args.model, args.n, args.seed)
    except ValueError as exc:  # a size the model cannot take
        raise _Usage(str(exc)) from None
    text = emit_dimacs(g)
    if args.out is not None:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    return _doc("gen", warnings, dimacs=text, model=args.model, n=args.n, seed=args.seed)


def _cmd_verify(args, warnings):
    g = parse_dimacs(_read_input(args.graph), warnings)
    cover = parse_cover(_read_input(args.cover))
    try:
        ok = is_vertex_cover(g, cover)
    except ValueError as exc:
        warnings.append(str(exc))
        ok = False
    return _doc("verify", warnings, answer=ok, cover=sorted(cover), size=len(cover))


def _cmd_oracle(args, warnings):
    g = parse_dimacs(_read_input(args.graph), warnings)
    size, cover = min_vc_bruteforce(g)
    return _doc("oracle", warnings, answer=size, cover=sorted(cover), size=size)


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises usage errors instead of exiting, so that they end in JSON too."""

    def error(self, message):
        raise _Usage(message)


def non_negative_int(text: str) -> int:
    """The argparse type of --k, --n and --node-budget."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cyclecover",
        description="Exact vertex cover by branch and reduce on low-degree graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solver_flags = argparse.ArgumentParser(add_help=False)
    solver_flags.add_argument("--node-budget", type=non_negative_int, default=NODE_BUDGET, metavar="N")

    p = sub.add_parser("solve", parents=[solver_flags], help="decide whether a cover of size k exists")
    p.add_argument("graph", help="DIMACS file, or - for stdin")
    p.add_argument("--k", type=non_negative_int, required=True)
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("minimize", parents=[solver_flags], help="exact minimum vertex cover")
    p.add_argument("graph")
    p.set_defaults(handler=_cmd_minimize)

    p = sub.add_parser("kernelize", help="emit the half-integral kernel")
    p.add_argument("graph")
    p.add_argument("--k", type=non_negative_int, required=True)
    p.set_defaults(handler=_cmd_kernelize)

    p = sub.add_parser("tau", help="independent-cycle count and degree surplus")
    p.add_argument("graph")
    p.set_defaults(handler=_cmd_tau)

    p = sub.add_parser("analyze", help="branching-vector catalog with recomputed numbers")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--model", choices=MODELS, required=True)
    p.add_argument("--n", type=non_negative_int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="also write the DIMACS text to this path")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("verify", help="check a cover file against a graph")
    p.add_argument("graph")
    p.add_argument("--cover", required=True)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("oracle", help="guarded brute-force minimum")
    p.add_argument("graph")
    p.set_defaults(handler=_cmd_oracle)
    return parser


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    # the top-level parser takes no option but --help, so a run names its
    # subcommand first or not at all
    command = argv[0] if argv and argv[0] in COMMANDS else None
    warnings: list[str] = []
    try:
        args = parser.parse_args(argv)
        doc = args.handler(args, warnings)
    except (_Usage, OSError) as exc:
        _emit(_doc(command, warnings + [str(exc)], error="usage"))
        return 2
    except DimacsParseError as exc:
        _emit(_doc(command, warnings + [str(exc)], error="parse"))
        return 3
    except (ResourceLimitError, MemoryError) as exc:
        _emit(_doc(command, warnings + [str(exc) or "out of memory"], error="resource_limit"))
        return 4
    _emit(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
