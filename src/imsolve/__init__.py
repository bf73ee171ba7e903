"""Exact toolkit for the induced matching decision problem.

The centerpiece is a branch-and-reduce solver whose branching rules are
guided by the Gallai-Edmonds decomposition, giving a search depth bounded
by twice the gap between the target and the average of the maximum
matching size and the independence number.  Around it: blossom maximum
matching, the decomposition with a structural audit, reduction rules with
certificate harvesting, brute-force oracles, recognizers for the graph
classes where the matching invariants collapse, instance file I/O,
generators, and the two hardness-reduction constructions.
"""

from .errors import IMSolveError
from .gallai_edmonds import AuditReport, GEDecomposition, audit, decompose
from .graph import Graph, LocalFeatures, edge, verify_induced_matching
from .instances import (
    anchored_triangle,
    gen_random,
    generate,
    naive_branch_trap,
    paw_with_tail,
    read_instance,
    reduce_dominating_set,
    reduce_multicolored_is,
    triangle_star_graph,
    write_instance,
)
from .kernel import Instance, ReductionStep, TerminalState, reduce_instance
from .matching import (
    is_factor_critical,
    maximum_matching,
)
from .oracle import (
    ParameterReport,
    StructureClass,
    brute_ds,
    brute_im,
    brute_is,
    brute_mm,
    brute_vc,
    classify_tight,
    is_triangle_star,
    parameters,
    recognize_cameron_walker,
)
from .solver import (
    Answer,
    BranchChoice,
    Rule,
    SearchStats,
    SolveResult,
    choose_rule,
    expand,
    find_degree2_survivor,
    find_path4,
    solve_auto,
    solve_imba,
    solve_imbtg,
)

__version__ = "0.1.0"

__all__ = [
    "Answer",
    "AuditReport",
    "BranchChoice",
    "GEDecomposition",
    "Graph",
    "IMSolveError",
    "Instance",
    "LocalFeatures",
    "ParameterReport",
    "ReductionStep",
    "Rule",
    "SearchStats",
    "SolveResult",
    "StructureClass",
    "TerminalState",
    "anchored_triangle",
    "audit",
    "brute_ds",
    "brute_im",
    "brute_is",
    "brute_mm",
    "brute_vc",
    "choose_rule",
    "classify_tight",
    "decompose",
    "edge",
    "expand",
    "find_degree2_survivor",
    "find_path4",
    "gen_random",
    "generate",
    "is_factor_critical",
    "is_triangle_star",
    "maximum_matching",
    "naive_branch_trap",
    "parameters",
    "paw_with_tail",
    "read_instance",
    "recognize_cameron_walker",
    "reduce_dominating_set",
    "reduce_instance",
    "reduce_multicolored_is",
    "solve_auto",
    "solve_imba",
    "solve_imbtg",
    "triangle_star_graph",
    "verify_induced_matching",
    "write_instance",
]
