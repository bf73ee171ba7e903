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

Every round is one scan (``_scan``), and only the first may cover the
whole graph.  Deleting the apex of a pendant triangle changes only its
neighbours' degrees, so each feature it creates or changes contains one of
those neighbours: an isolated vertex, an isolated edge, or a pendant
triangle that is new or became isolated, which has a neighbour of degree
2.  Each later round therefore scans only those neighbours and keeps the
other pendant triangles waiting in a heap in the scans' order.  The same
argument lets the search's children skip most of the first scan: a child
is a reduced mask minus a deletion mask, which ``reduce_instance`` takes,
so its first round scans only the deleted vertices' neighbours.  No degree
table is kept: a degree is read off the masks when it is needed, and a set
keeps each pendant triangle once.

The rules run on an interned graph (``graph.Interned``):
``reduce_instance`` takes a vertex set as one int mask and works on
indices, whose order is label order.  Every application is returned as a
``(rule, deleted, harvested)`` triple, so tests can replay the exact
deletion sequence step by step.
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


def reduce_instance(
    adj, live: int, ell: int, pendant_triangles: bool = True, deleted=None
):
    """Apply the reduction rules exhaustively to the vertex mask ``live`` of
    an interned graph with neighbour masks ``adj`` (see ``graph.Interned``)
    and the target ``ell``.  With ``pendant_triangles`` false only the two
    degree-based rules run, as the simple engine ``solve_imbtg`` needs.

    Returns ``(live, ell, harvested, steps)``: the reduced mask and target,
    the harvested edges as index pairs ``(i, j)`` with ``i < j``, and the
    steps as ``(rule, deleted, harvested)`` triples over indices.  Index
    order is label order, so an index is its vertex's rank.

    The first round scans all of ``live``.  A caller whose ``live`` is a
    reduced mask minus the vertex mask ``deleted`` passes ``deleted``, and
    the first round scans only the deleted vertices' neighbours in ``live``:
    a feature of ``live`` that holds none of them was a feature of the
    reduced mask already.  For a pendant triangle, one of its two vertices
    of degree 2 is such a neighbour, since a reduced mask has no pendant
    triangle and only those neighbours lost degree.  Each later round scans
    only the live neighbours of the apex that the last pendant-triangle
    step deleted (see the module docstring), while the earlier rounds'
    other pendant triangles wait in a heap of ``(v, u, w)`` triples, the
    scans' order, each checked again when it reaches the top.  Degrees are
    read off ``adj`` and ``live`` when needed; no table is kept.  So every
    round takes the steps a fresh scan of the whole graph would.
    """
    seed = live
    if deleted is not None:
        near = 0
        # A bit loop, not ``indices``: this runs at every search node, where
        # building the list made the naive engine about 10% slower.
        while deleted:
            v = deleted.bit_length() - 1
            near |= adj[v]
            deleted ^= 1 << v
        seed &= near
    steps = []
    harvested = []
    isolated, iso_edges, heap = _scan(adj, live, pendant_triangles, seed)
    while True:
        for v in isolated:
            steps.append((RULE_ISOLATED_VERTEX, (v,), None))
            live ^= 1 << v
        for e in iso_edges:
            live ^= 1 << e[0] | 1 << e[1]
            if ell > 0:
                ell -= 1
                harvested.append(e)
                steps.append((RULE_ISOLATED_EDGE, e, e))
            else:
                steps.append((RULE_ISOLATED_EDGE, e, None))
        v = _pop_apex(heap, adj, live)
        if v is None:
            break
        steps.append((RULE_PENDANT_TRIANGLE, (v,), None))
        live ^= 1 << v
        isolated, iso_edges, pendants = _scan(adj, live, True, adj[v] & live)
        for triangle in pendants:
            heappush(heap, triangle)
    return live, ell, harvested, steps


def _scan(adj, live: int, pendant_triangles: bool, changed: int):
    """The one scan of a reduction round: the features of ``live`` that
    contain a vertex of ``changed``.

    Returns what ``Graph.local_features`` reports, over indices: the
    isolated vertices, the isolated edges as ``(x, u)`` with ``x < u``, and,
    with ``pendant_triangles``, the pendant triangles as ``(v, u, w)``, apex
    first; each list sorted, so the last one is a heap.  A pendant triangle
    counts when one of its vertices of degree 2 is in ``changed``, and a
    set keeps it once.
    """
    isolated = []
    iso_edges = []
    twos = []
    # Highest index first: clearing the top bit shortens the int.
    rest = changed
    while rest:
        x = rest.bit_length() - 1
        bit = 1 << x
        rest ^= bit
        nbrs = adj[x] & live
        d = nbrs.bit_count()
        if d == 1:
            u = nbrs.bit_length() - 1
            # Reported once, from its smaller end that is scanned.
            if adj[u] & live == bit and (x < u or not changed >> u & 1):
                iso_edges.append((x, u) if x < u else (u, x))
        elif d == 0:
            isolated.append(x)
        elif d == 2 and pendant_triangles:
            # On a triangle iff its lower neighbour sees the other.
            if adj[(nbrs & -nbrs).bit_length() - 1] & nbrs:
                twos.append(x)
    isolated.reverse()
    iso_edges.sort()
    # _pendant gives a triangle the same triple from each vertex of degree 2.
    pendants = []
    if twos:
        pendants = sorted({t for x in twos if (t := _pendant(adj, live, x))})
    return isolated, iso_edges, pendants


def _pendant(adj, live: int, y: int):
    """The triangle at ``y``, a live vertex of degree 2 whose two
    neighbours are adjacent, as ``(v, u, w)`` if it is pendant, else None.

    An isolated triangle has its smallest vertex as the apex v, else the
    apex is the vertex of degree above 2; u < w are the other two.
    """
    nbrs = adj[y] & live
    b = nbrs.bit_length() - 1
    a = (nbrs ^ (1 << b)).bit_length() - 1
    da = (adj[a] & live).bit_count()
    db = (adj[b] & live).bit_count()
    if da == 2 == db:
        return tuple(sorted((y, a, b)))
    if da == 2 or db == 2:
        x, v = (a, b) if da == 2 else (b, a)
        return (v, y, x) if y < x else (v, x, y)
    return None


def _pop_apex(heap, adj, live: int):
    """Pop the first triangle still reported as it was pushed; its apex."""
    while heap:
        v, u, w = heappop(heap)
        # u and w of degree 2 keep their neighbours, so the triangle stands;
        # it is reported as (v, u, w) while v has more neighbours, or, once
        # the triangle is isolated, while v is its smallest vertex.  v, u, w
        # were pairwise adjacent when pushed and live neighbourhoods only
        # shrink, so if any of them is deleted, u or w reads below 2.
        if (adj[u] & live).bit_count() == 2 == (adj[w] & live).bit_count():
            dv = (adj[v] & live).bit_count()
            if dv > 2 or (dv == 2 and v < u):
                return v
    return None


class Answer(str, Enum):
    """The outcome of a search, and of a node that closes."""

    YES = "yes"
    NO = "no"
    EXHAUSTED = "exhausted"


def node_state(n: int, ell: int, depth: int, budget: int) -> Answer | None:
    """How a reduced node with ``n`` vertices closes, or None while it is
    open: yes at target 0, no at ``n <= 2*ell``, exhausted at the budget,
    in that order, so a solution at the budget boundary is still reported.

    The No test is sound at ``n == 2*ell`` because the node is reduced: an
    induced matching of size ``ell`` would cover all its vertices with no
    other edge between its edges, so the graph would be ``ell`` isolated
    edges, which the isolated-edge rule deletes in either reduction mode.
    """
    if ell == 0:
        return Answer.YES
    if n <= 2 * ell:
        return Answer.NO
    if depth >= budget:
        return Answer.EXHAUSTED
    return None
