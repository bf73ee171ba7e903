"""Reduction rules and termination tests for the branch-and-reduce search.

Three rules are applied exhaustively, smallest label first:

* ``isolated-vertex``: delete a vertex of degree 0;
* ``isolated-edge``: delete an edge whose endpoints both have degree 1,
  harvesting it into the certificate and decrementing the target (only
  while the target is positive);
* ``pendant-triangle``: for a triangle (u, v, w) with deg(u) = deg(w) = 2,
  delete v.

The rules work in rounds.  Each round takes one scan of the graph's local
features and applies every isolated-vertex step it lists, then every
isolated-edge step, then at most the first pendant-triangle step.  Deleting
an isolated vertex or edge changes no other vertex's degree, so a round
makes the same steps, in the same order, as applying one rule at a time
and rescanning after each.  Only the pendant-triangle step can create new
features, which the next round picks up.  So a round without a
pendant-triangle step is the last, since a scan after it would find
nothing to do, and a reduction makes one scan more than it takes
pendant-triangle steps.

Every application is returned as a ``ReductionStep`` so tests can replay
the exact deletion sequence step by step.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .graph import Graph

RULE_ISOLATED_VERTEX = "isolated-vertex"
RULE_ISOLATED_EDGE = "isolated-edge"
RULE_PENDANT_TRIANGLE = "pendant-triangle"


@dataclass(frozen=True)
class Instance:
    """A graph together with the target induced-matching size."""

    graph: Graph
    ell: int

    def __post_init__(self):
        if self.ell < 0:
            raise ValueError(f"target must be nonnegative, got {self.ell}")


@dataclass(frozen=True)
class ReductionStep:
    rule: str
    deleted: tuple
    harvested: tuple | None  # an edge, present only for harvesting steps


def reduce_instance(inst: Instance, *, pendant_triangles: bool = True):
    """Apply the reduction rules exhaustively, one feature scan per round.

    Returns ``(reduced, harvested, steps)`` where ``harvested`` is the set
    of isolated edges folded into the certificate and ``steps`` the tuple of
    ``ReductionStep``s in the order they were applied.  With
    ``pendant_triangles=False`` only the two degree-based rules run (the
    below-trivial-guarantee solver uses that mode).
    """
    g = inst.graph
    ell = inst.ell
    steps = []
    harvested = set()
    while True:
        feats = g.local_features()
        doomed = set(feats.isolated_vertices)
        for v in feats.isolated_vertices:
            steps.append(ReductionStep(RULE_ISOLATED_VERTEX, (v,), None))
        for e in feats.isolated_edges:
            doomed.update(e)
            if ell > 0:
                ell -= 1
                harvested.add(e)
                steps.append(ReductionStep(RULE_ISOLATED_EDGE, e, e))
            else:
                steps.append(ReductionStep(RULE_ISOLATED_EDGE, e, None))
        triangles = pendant_triangles and feats.pendant_triangles
        if triangles:
            _, v, _ = triangles[0]
            doomed.add(v)
            steps.append(ReductionStep(RULE_PENDANT_TRIANGLE, (v,), None))
        if doomed:
            g = g.delete_vertices(doomed)
        if not triangles:
            break
    return Instance(g, ell), frozenset(harvested), tuple(steps)


class TerminalState(Enum):
    CONTINUE = "continue"
    YES = "yes"
    NO = "no"
    EXHAUSTED = "exhausted"


def terminal_state(inst: Instance, depth: int, budget: int) -> TerminalState:
    """Decide whether a fully reduced node closes, and how.

    Checks in order: target reached (yes), too few vertices left (no),
    branching budget spent (exhausted).  The yes test deliberately precedes
    the budget test so a solution sitting at the budget boundary is still
    reported.
    """
    if inst.ell == 0:
        return TerminalState.YES
    if inst.graph.vertex_count < 2 * inst.ell:
        return TerminalState.NO
    if depth >= budget:
        return TerminalState.EXHAUSTED
    return TerminalState.CONTINUE
