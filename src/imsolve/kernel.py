"""Reduction rules and termination tests for the branch-and-reduce search.

Three rules are applied exhaustively, smallest label first:

* ``isolated-vertex``: delete a vertex of degree 0;
* ``isolated-edge``: delete an edge whose endpoints both have degree 1,
  harvesting it into the certificate and decrementing the target (only
  while the target is positive);
* ``pendant-triangle``: for a triangle (u, v, w) with deg(u) = deg(w) = 2,
  delete v.

The rules work in rounds.  Each round applies every isolated-vertex step
it finds, then every isolated-edge step, then at most the first
pendant-triangle step.  Deleting an isolated vertex or edge changes no
other vertex's degree, so a round makes the same steps, in the same order,
as applying one rule at a time and rescanning after each.  Only the
pendant-triangle step can create new features, which the next round picks
up; a round without one is the last.

Only the first round scans the whole graph.  Deleting the apex of a
pendant triangle changes only its neighbours' degrees, so each feature it
creates or changes contains one of those neighbours: an isolated vertex,
an isolated edge, or a pendant triangle that is new or became isolated,
which has a neighbour of degree 2.  Later rounds therefore look only at
those neighbours, keep the other pendant triangles waiting in a heap in
the scan's order, and build the reduced graph once, at the end.

Every application is returned as a ``ReductionStep`` so tests can replay
the exact deletion sequence step by step.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush

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
    """Apply the reduction rules exhaustively, with one whole-graph scan.

    Returns ``(reduced, harvested, steps)`` where ``harvested`` is the set
    of isolated edges folded into the certificate and ``steps`` the tuple of
    ``ReductionStep``s in the order they were applied.  With
    ``pendant_triangles=False`` only the two degree-based rules run (the
    below-trivial-guarantee solver uses that mode).

    Only the first round reads ``local_features``.  Each later round looks
    only at the live neighbours of the apex that the last pendant-triangle
    step deleted, since theirs are the only degrees that changed (see the
    module docstring); the scan's other pendant triangles wait in a heap
    keyed by label rank ``(v, u)``, the scan's order, and each is checked
    again when it reaches the top.  So every round takes the steps a fresh
    scan would, and the reduced graph is built once, at the end.
    """
    g = inst.graph
    ell = inst.ell
    steps = []
    harvested = set()
    doomed = set()
    feats = g.local_features()
    isolated, iso_edges = feats.isolated_vertices, feats.isolated_edges
    heap = None
    while True:
        for v in isolated:
            steps.append(ReductionStep(RULE_ISOLATED_VERTEX, (v,), None))
        doomed.update(isolated)
        for e in iso_edges:
            doomed.update(e)
            if ell > 0:
                ell -= 1
                harvested.add(e)
                steps.append(ReductionStep(RULE_ISOLATED_EDGE, e, e))
            else:
                steps.append(ReductionStep(RULE_ISOLATED_EDGE, e, None))
        if heap is None:
            if not (pendant_triangles and feats.pendant_triangles):
                break
            nbrs = g.neighbors
            # Position in g.vertices, which is label order.
            rank = {v: i for i, v in enumerate(g.vertices)}
            # Live degrees; a deleted vertex reads 0 or 1.
            deg = {v: len(nbrs(v)) for v in rank}
            # The scan sorts by (v, u), so its list is already a heap.
            heap = [(rank[t[1]], rank[t[0]], t) for t in feats.pendant_triangles]
        v = _pop_apex(heap, deg, rank)
        if v is None:
            break
        steps.append(ReductionStep(RULE_PENDANT_TRIANGLE, (v,), None))
        doomed.add(v)
        deg[v] = 0
        touched = [y for y in nbrs(v) if y not in doomed]
        for y in touched:
            deg[y] -= 1
        isolated = []
        edges = set()
        for y in touched:
            d = deg[y]
            if d == 0:
                isolated.append(y)
            elif d == 1:
                (z,) = [z for z in nbrs(y) if z not in doomed]
                if deg[z] == 1:
                    edges.add((y, z) if rank[y] < rank[z] else (z, y))
            elif d == 2:
                a, b = [z for z in nbrs(y) if z not in doomed]
                if b in nbrs(a):
                    _push_triangle(heap, deg, rank, y, a, b)
        isolated.sort(key=rank.__getitem__)
        iso_edges = sorted(edges, key=lambda e: rank[e[0]])
    if doomed:
        g = g.delete_vertices(doomed)
    return Instance(g, ell), frozenset(harvested), tuple(steps)


def _pop_apex(heap, deg, rank):
    """Pop the first triangle still reported as it was pushed; its apex."""
    while heap:
        _, _, (u, v, w) = heappop(heap)
        # u and w of degree 2 keep their neighbours, so the triangle stands;
        # it is reported as (u, v, w) while v has more neighbours, or, once
        # the triangle is isolated, while v is its smallest vertex.
        if deg[u] == 2 == deg[w] and (
            deg[v] > 2 or (deg[v] == 2 and rank[v] < rank[u])
        ):
            return v
    return None


def _push_triangle(heap, deg, rank, y, a, b):
    """Push the triangle {y, a, b}, y of degree 2, if it is pendant.

    Reports it as ``local_features`` would: an isolated triangle with its
    smallest vertex as the apex, else the apex is the vertex of degree
    above 2.
    """
    if deg[a] == 2 == deg[b]:
        v, u, w = sorted((y, a, b), key=rank.__getitem__)
    elif deg[a] == 2 or deg[b] == 2:
        x, v = (a, b) if deg[a] == 2 else (b, a)
        u, w = (y, x) if rank[y] < rank[x] else (x, y)
    else:
        return
    heappush(heap, (rank[v], rank[u], (u, v, w)))


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
