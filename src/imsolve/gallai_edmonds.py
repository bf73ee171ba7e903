"""Gallai-Edmonds decomposition and its structural audit.

``decompose`` partitions the vertices into

* ``d``: vertices missed by at least one maximum matching,
* ``a``: the neighborhood of ``d`` outside ``d``,
* ``c``: everything else,

together with the connected components of the subgraph induced by ``d``.
``d`` is read off one alternating forest, grown from every vertex that one
maximum matching leaves exposed (``matching._outer``).  ``decompose`` does
that on a ``Graph``'s index adjacency and finds ``a``, ``c`` and the
components in one pass over the same lists (``_partition``).

The search decomposes its nodes on masks of an interned graph, in two
steps, so that a node pays only for what it uses.  ``mask_matching``
builds the node's index adjacency from the neighbour masks and one maximum
matching of it, which is all the search's matching bound reads.
``decompose_mask`` then grows the forest from that matching, for a node
that branches, and finds ``a`` and the components of ``d`` with mask
operations on the neighbour masks.

The two paths stay apart because each is the faster one on its own
inputs.  Routing ``decompose`` through ``graph.Interned`` and the mask
functions made it about 2x slower on 60 sparse G(n, c/n) graphs with n
from 400 to 1,600: 0.09 to 0.18 s in all for the decompositions and 0.06
to 0.12 s for the maximum matchings.  Running the
list ``_partition`` at search nodes instead made ``decompose_mask`` about
1.5x slower: 6-7 to 9-11 us per call over 1,807 nodes of dominating-set
reductions and small G(n, m) instances (Python 3.11, 2 cores).

``audit`` re-derives the classical structural guarantees of the
decomposition (factor-critical components, perfectly matched remainder,
strict surplus of the contracted bipartite graph, and the shape of a
maximum matching) and reports each check separately.  It is meant for
tests and diagnostics, never for the solve path.  Each check costs one
maximum matching of ``g`` or of a part of it; factor-criticality takes one
alternating forest per d-component (Gallai's lemma).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from . import matching
from .graph import Graph, indices, sort_labels
from .matching import has_perfect_matching, is_factor_critical, maximum_matching


@dataclass(frozen=True)
class GEDecomposition:
    """The partition (d, a, c) plus the components of the subgraph on d."""

    d: frozenset
    a: frozenset
    c: frozenset
    d_components: tuple


def decompose(g: Graph) -> GEDecomposition:
    """Compute the decomposition of ``g``."""
    labels = g.vertices
    in_d, in_a, comps = _partition(matching._index_adjacency(g))
    d = frozenset(compress(labels, in_d))
    a = frozenset(compress(labels, in_a))
    return GEDecomposition(
        d,
        a,
        frozenset(labels).difference(d, a),
        tuple([frozenset(map(labels.__getitem__, comp)) for comp in comps]),
    )


def mask_matching(adj, live: int):
    """One maximum matching of the subgraph on the vertex mask ``live`` of
    an interned graph with neighbour masks ``adj`` (see ``graph.Interned``).

    Returns ``(order, sub, match)``: the indices of ``live`` in ascending
    order, the subgraph's index adjacency with each vertex indexed by its
    rank in ``order`` (the adjacency ``decompose`` builds for the induced
    subgraph, with no ``Graph`` built), and the mate of each rank, -1 if
    exposed.  Twice the matching number is ``len(order) - match.count(-1)``.
    """
    order = indices(live)
    rank = {v: i for i, v in enumerate(order)}
    sub = []
    for v in order:
        nbrs = adj[v] & live
        row = []
        while nbrs:
            low = nbrs & -nbrs
            nbrs ^= low
            row.append(rank[low.bit_length() - 1])
        sub.append(row)
    return order, sub, matching._maximum_matching_indices(sub)


def decompose_mask(adj, live: int, matched):
    """``decompose`` of the vertex mask ``live`` of an interned graph with
    neighbour masks ``adj``.

    ``matched`` is ``mask_matching(adj, live)``.  Returns ``(d, a, comps)``
    as masks: ``d``, the outer vertices of the forest grown from that
    matching's exposed vertices; ``a``, the neighbours of ``d`` in ``live``
    outside it; and the components of the subgraph on ``d``, each
    flood-filled from its lowest bit, lowest first, which is the order
    ``decompose`` lists them in.  ``c`` is ``live & ~(d | a)``.
    """
    order, sub, match = matched
    d = 0
    for i in matching._outer(sub, match):
        d |= 1 << order[i]
    hood = 0
    comps = []
    rest = d
    while rest:
        comp = todo = rest & -rest
        rest ^= comp
        while todo:
            low = todo & -todo
            todo ^= low
            near = adj[low.bit_length() - 1]
            hood |= near
            grow = near & rest
            rest ^= grow
            comp |= grow
            todo |= grow
        comps.append(comp)
    return d, hood & live & ~d, comps


def _partition(adj):
    """The decomposition of the graph with index adjacency ``adj``, by index.

    Returns ``(in_d, in_a, comps)``: whether each index is in ``d``, whether
    it is in ``a``, and the components of the subgraph on ``d`` as index
    lists, ordered by smallest index.
    """
    n = len(adj)
    in_d = [False] * n
    for i in matching._missable(adj):
        in_d[i] = True
    in_a = [False] * n
    seen = [False] * n
    comps = []
    # Each component grows from its smallest index; the neighbours of its
    # vertices outside d make up a.
    for s in compress(range(n), in_d):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        for v in comp:
            for u in adj[v]:
                if not in_d[u]:
                    in_a[u] = True
                elif not seen[u]:
                    seen[u] = True
                    comp.append(u)
        comps.append(comp)
    return in_d, in_a, comps


@dataclass
class AuditReport:
    """Pass/fail per structural property, with human-readable failures."""

    checks: dict
    failures: list

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


def _check(report: AuditReport, name: str, passed: bool, detail: str):
    report.checks[name] = bool(passed)
    if not passed:
        report.failures.append(f"{name}: {detail}")


def _mates(g: Graph) -> dict:
    """Both directions of one maximum matching of ``g``."""
    return {x: y for u, v in maximum_matching(g) for x, y in ((u, v), (v, u))}


def audit(g: Graph, dec: GEDecomposition) -> AuditReport:
    """Verify the structural guarantees of a decomposition of ``g``."""
    report = AuditReport(checks={}, failures=[])
    vs = frozenset(g.vertices)

    parts_disjoint = (
        not (dec.d & dec.a) and not (dec.d & dec.c) and not (dec.a & dec.c)
    )
    covers = (dec.d | dec.a | dec.c) == vs
    comp_union = frozenset().union(*dec.d_components) if dec.d_components else frozenset()
    comps_match = tuple(g.induced(dec.d).connected_components()) == tuple(
        dec.d_components
    ) and comp_union == dec.d
    _check(
        report,
        "partition",
        parts_disjoint and covers and comps_match,
        "d, a, c must partition the vertices and d_components must be the "
        "components of the subgraph on d",
    )

    _check(
        report,
        "a-is-neighborhood-of-d",
        dec.a == g.neighborhood_of_set(dec.d),
        f"a = {sort_labels(dec.a)} differs from N(d) - d",
    )

    # Each component's subgraph comes from its own vertices' neighbour
    # sets; g.induced would scan all of g once per component.
    bad = []
    for comp in dec.d_components:
        labels = sort_labels(comp)
        if not is_factor_critical(Graph({v: g.neighbors(v) & comp for v in labels})):
            bad.append(labels)
    _check(
        report,
        "d-components-factor-critical",
        not bad,
        f"components not factor-critical: {bad}",
    )

    _check(
        report,
        "c-has-perfect-matching",
        has_perfect_matching(g.induced(dec.c)),
        "subgraph on c has no perfect matching",
    )

    # Surplus of the contracted bipartite graph H: the a-vertices become
    # nodes 0..|a|-1 in label order, every component of the subgraph on d
    # one node after them, and edges inside a are dropped.  |N(X)| > |X|
    # must hold for every nonempty X of a.  By Hall's theorem it does iff
    # every a-vertex is reached by an alternating path from a component
    # that a maximum matching of H leaves exposed; the unreached a-vertices
    # S then have N(S) inside their own mates, so |N(S)| <= |S|.
    a_sorted = sort_labels(dec.a)
    node = {v: len(a_sorted) + j for j, comp in enumerate(dec.d_components) for v in comp}
    h = Graph.build(
        range(len(a_sorted) + len(dec.d_components)),
        {(i, node[y]) for i, x in enumerate(a_sorted) for y in g.neighbors(x) if y in node},
    )
    mate = _mates(h)
    stack = [j for j in range(len(a_sorted), h.vertex_count) if j not in mate]
    reached = set()
    while stack:
        for i in h.neighbors(stack.pop()):
            if i not in reached:
                reached.add(i)
                # i is matched: an exposed i would end an augmenting path.
                stack.append(mate[i])
    unreached = [i for i in range(len(a_sorted)) if i not in reached]
    _check(
        report,
        "surplus",
        not unreached,
        f"subset {[a_sorted[i] for i in unreached]} reaches only "
        f"{len(h.neighborhood_of_set(unreached))} components",
    )

    # Shape of one computed maximum matching: every a-vertex matched into
    # d, a near-perfect matching inside every d-component, and a perfect
    # matching inside c.
    mate = _mates(g)
    a_ok = all(x in mate and mate[x] in dec.d for x in dec.a)
    comp_ok = True
    for comp in dec.d_components:
        inside = sum(1 for v in comp if mate.get(v) in comp) // 2
        if inside != (len(comp) - 1) // 2:
            comp_ok = False
            break
    c_ok = all(v in mate and mate[v] in dec.c for v in dec.c)
    _check(
        report,
        "maximum-matching-structure",
        a_ok and comp_ok and c_ok,
        "computed maximum matching does not have the required shape "
        f"(a matched into d: {a_ok}, near-perfect on d-components: "
        f"{comp_ok}, perfect on c: {c_ok})",
    )
    return report
