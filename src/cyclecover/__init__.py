"""Exact vertex cover by branch and reduce on low-degree graphs.

The solver couples degree-based reduction rules, half-integral LP
kernelization, and branching guided by how fast the independent-cycle count
of the graph falls. Every answer carries a certificate that is checked before
it is returned. Brute-force oracles and random generators back the test
suite.
"""

from .analysis import (
    BranchingVector,
    CaseEntry,
    branching_number,
    case_catalog,
    interleave_base,
)
from .dimacs import emit_cover, emit_dimacs, parse_cover, parse_dimacs
from .errors import DimacsParseError, ResourceLimitError
from .generators import MODELS, generate, petersen_graph
from .graph import Graph
from .kernel import KernelResult, NTPartition, lp_lower_bound, nt_kernelize
from .oracle import is_vertex_cover, min_vc_bruteforce
from .reductions import ReductionTrace, lift_cover, reduce_fixpoint
from .search import (
    SearchStats,
    Verdict,
    check_node_budget,
    vc_decide,
    vc_minimum,
)
from .selection import BranchPlan, RuleTag, select
from .structure import circuit_rank, extra_degree, extra_degree_graph, strip_lines, tau, tau_upper_bound
from .treecover import min_vc_forest

__version__ = "0.1.0"

__all__ = [
    "BranchPlan",
    "BranchingVector",
    "CaseEntry",
    "DimacsParseError",
    "Graph",
    "KernelResult",
    "MODELS",
    "NTPartition",
    "ReductionTrace",
    "ResourceLimitError",
    "RuleTag",
    "SearchStats",
    "Verdict",
    "branching_number",
    "case_catalog",
    "check_node_budget",
    "circuit_rank",
    "emit_cover",
    "emit_dimacs",
    "extra_degree",
    "extra_degree_graph",
    "generate",
    "interleave_base",
    "is_vertex_cover",
    "lift_cover",
    "lp_lower_bound",
    "min_vc_bruteforce",
    "min_vc_forest",
    "nt_kernelize",
    "parse_cover",
    "parse_dimacs",
    "petersen_graph",
    "reduce_fixpoint",
    "select",
    "strip_lines",
    "tau",
    "tau_upper_bound",
    "vc_decide",
    "vc_minimum",
]
