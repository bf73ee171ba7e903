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
    gen_random,
    generate,
    read_instance,
    reduce_dominating_set,
    reduce_multicolored_is,
    write_instance,
)
from .kernel import Answer, Instance, ReductionStep, reduce_instance
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
    BranchChoice,
    Rule,
    SearchStats,
    SolveResult,
    choose_rule,
    expand,
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
    "gen_random",
    "generate",
    "is_factor_critical",
    "is_triangle_star",
    "maximum_matching",
    "parameters",
    "read_instance",
    "recognize_cameron_walker",
    "reduce_dominating_set",
    "reduce_instance",
    "reduce_multicolored_is",
    "solve_auto",
    "solve_imba",
    "solve_imbtg",
    "verify_induced_matching",
    "write_instance",
]
