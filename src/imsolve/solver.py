"""Branch-and-reduce engines for the induced matching decision problem.

One depth-first search, run on an explicit stack, has three entry points:

* ``solve_imba``: the main algorithm at a fixed branching budget.  At
  every node the graph is reduced, the termination tests run, and a
  branching rule is picked from the Gallai-Edmonds decomposition by a
  fixed priority: a vertex of the perfectly-matched part; an edge inside
  the separator; a triangle component; a triangle-star component; a long
  factor-critical component (via a 4-vertex path); and finally the plain
  degree-2 branch, which at that point provably makes progress because
  the graph is bipartite and thin.  Every rule names 3 or 7 children by
  the vertex sets they delete, and each child provably lowers the
  potential (mm + is)/2 - ell by at least one half, which is what bounds
  the search depth by the branching budget.

* ``solve_auto``: the same search, definitive.  Every branching deletes a
  vertex, so one search at the budget ``n - 2*ell + 1`` can never be
  truncated, and its No is final.  This is the one search that prunes:
  the matching bound (a node whose maximum matching is below the target)
  and a memo of the reduced vertex sets already proven No are sound No
  leaves once nothing truncates.  They cut only No subtrees, so the first
  Yes leaf in preorder, and with it the certificate, is the one the
  unpruned search finds.

* ``solve_imbtg``: the simple below-half-the-vertices algorithm, used for
  cross-validation.  Degree-based reductions only, one 3-way branching
  rule, and the same definitive depth bound, unpruned.

Answers are Yes (with a verified certificate), No, or Exhausted when the
budget truncated the search without finding a solution; only
``solve_imba`` can return Exhausted.

The search interns its input once (``graph.Interned``) and explores
vertex-deleted subgraphs of it as int masks, and builds no ``Graph``:
reductions, terminal tests, the memo, the decomposition, the matching
bound, the rule choice (``choose_rule``) and the children (``expand``) all
work on masks (see ``_search``).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

from .errors import PreconditionViolatedError
from .gallai_edmonds import decompose_mask, mask_matching
from .graph import Interned, indices, lowest_two, verify_induced_matching
from .kernel import Answer, Instance, _scan, node_state, reduce_instance


class Rule(str, Enum):
    """Branching rules, named by the structure they act on."""

    C_VERTEX = "c-vertex"
    A_EDGE = "a-edge"
    TRIANGLE = "triangle"
    TRIANGLE_STAR = "triangle-star"
    FOUR_PATH = "four-path"
    DEGREE_TWO = "degree-two"
    NAIVE = "naive"


@dataclass
class SearchStats:
    nodes_visited: int = 0
    max_depth: int = 0
    branchings_by_rule: Counter = field(default_factory=Counter)
    reductions_by_rule: Counter = field(default_factory=Counter)
    # No leaves cut by the matching bound and by the memo (solve_auto only).
    bound_prunes: int = 0
    memo_hits: int = 0


@dataclass
class SolveResult:
    answer: Answer
    certificate: frozenset | None
    stats: SearchStats


# -- the branching rules ----------------------------------------------------
#
# The rules run on an interned graph (``graph.Interned``): a vertex set is
# an int mask, a vertex its index, and index order is label order, so the
# lowest bit is the smallest label and every tie-break is by label.


def _low(mask: int) -> int:
    """The lowest set bit of ``mask`` as an index."""
    return (mask & -mask).bit_length() - 1


def _vertex_branch(adj, live: int, candidates: int):
    """The lowest vertex of ``candidates`` with two neighbours in ``live``,
    and its two lowest such neighbours, as indices ``(v, u, w)``; or None."""
    while candidates:
        low = candidates & -candidates
        candidates ^= low
        v = low.bit_length() - 1
        nbrs = adj[v] & live
        if nbrs & (nbrs - 1):
            return (v, *lowest_two(nbrs))
    return None


def _vertex_choice(adj, live: int, rule: Rule, candidates: int):
    """``rule`` on the branch vertex of ``_vertex_branch``, as ``(rule,
    actors)``.

    Every caller passes candidates that hold such a vertex in a reduced
    nonempty graph, so finding none is a bug in the reductions and raises.
    """
    found = _vertex_branch(adj, live, candidates)
    if found is None:
        raise PreconditionViolatedError(
            f"no vertex of degree at least 2 for the {rule.value} rule; "
            "reductions were not exhaustive"
        )
    v, u, w = found
    return rule, {"v": v, "u": u, "w": w}


def _anchors(adj, candidates: int, pool: int) -> list:
    """Each vertex of ``candidates`` with a neighbour in ``pool``, lowest
    first, paired with its lowest such neighbour."""
    return [(x, _low(hits)) for x in indices(candidates) if (hits := adj[x] & pool)]


def _path4(adj, comp: int):
    """An ordered path on four distinct vertices of the vertex mask
    ``comp``, as indices.

    Exists whenever the component has at least four vertices and is not a
    star; returns None otherwise.  Constructive: pivot on a maximum-degree
    vertex v.  If v sees everything, any adjacent pair among its neighbors
    extends to a path; otherwise some neighbor of v has a neighbor outside
    v's closed neighborhood.  Ties break to the smallest index, which is
    the smallest label.
    """
    size = comp.bit_count()
    if size < 4:
        return None
    # max keeps the first, lowest, vertex of maximum degree.
    v = max(indices(comp), key=lambda x: (adj[x] & comp).bit_count())
    nv = adj[v] & comp
    if nv.bit_count() == size - 1:
        for w in indices(nv):
            if hits := adj[w] & nv:
                # The first x will do: v has at least 3 neighbors.
                x = _low(hits)
                return (_low(nv & ~(1 << w | 1 << x)), v, w, x)
        return None  # neighbors pairwise nonadjacent: a star
    outside = comp & ~nv & ~(1 << v)
    for w in indices(nv):
        if hits := adj[w] & outside:
            return (_low(nv & ~(1 << w)), v, w, _low(hits))
    return None


def _survivor(adj, comp: int, v: int):
    """A vertex of the vertex mask ``comp`` with two neighbors there after
    deleting the index ``v``.

    Guaranteed to exist when the component induces a factor-critical graph
    that is not a triangle star; its absence indicates a decomposition bug,
    so it raises rather than returning a sentinel.  Returns the indices
    ``(vertex, nbr1, nbr2)`` with smallest-index ties.
    """
    rest = comp & ~(1 << v)
    found = _vertex_branch(adj, rest, rest)
    if found is None:
        raise PreconditionViolatedError(
            "no vertex of degree 2 in the component after removing one of "
            "its vertices; the component cannot be factor-critical and "
            "non-triangle-star"
        )
    return found


def choose_rule(adj, live: int, a: int, c: int, comps) -> tuple:
    """Pick the highest-priority applicable branching rule at the node
    ``live``, whose Gallai-Edmonds decomposition has the masks ``a`` and
    ``c`` and the D-components ``comps``.

    Requires a fully reduced nonempty node.  The priority is: a vertex of
    C; an edge inside A; a triangle D-component; a triangle-star
    D-component; a 4-vertex path in the first other D-component of at
    least five vertices; a degree-two vertex.  A vertex rule branches on
    the first candidate of degree at least two and its two smallest
    neighbors.  Triangle and triangle-star branches act on the members
    with a neighbor in A, each paired with its smallest one.  A
    precondition that reduction guarantees raises
    ``PreconditionViolatedError`` when it fails.

    Returns ``(rule, actors)``, the actors a dict of indices keyed by rule:
      c-vertex / degree-two / naive: v (the branch vertex), u, w (two of
        its neighbors);
      a-edge: u, v (adjacent);
      triangle: u, v, w (the triangle), ua, va (separator neighbors of u
        and v);
      triangle-star: u, v (outer vertices of two distinct pendant
        triangles), ua, va (their separator neighbors), uc, vc (their
        in-triangle partners);
      four-path: u, v, w, x (the path), vp/v1/v2 and wp/w1/w2 (a vertex of
        degree two after deleting v resp. w, with its two neighbors).
    """
    if c:
        return _vertex_choice(adj, live, Rule.C_VERTEX, c)
    for u in indices(a):
        if hits := adj[u] & a:
            return Rule.A_EDGE, {"u": u, "v": _low(hits)}
    for comp in comps:
        # D-components are factor-critical, and on three vertices that
        # means a triangle.
        if comp.bit_count() != 3:
            continue
        anchors = _anchors(adj, comp, a)
        if len(anchors) < 2:
            raise PreconditionViolatedError(
                "triangle component without two separator neighbors; the "
                "pendant-triangle reduction was not exhaustive"
            )
        (u, ua), (v, va) = anchors[:2]
        w = _low(comp & ~(1 << u | 1 << v))
        return Rule.TRIANGLE, {"u": u, "v": v, "w": w, "ua": ua, "va": va}
    long_comp = None
    for comp in comps:
        if comp.bit_count() < 5:
            continue
        # A triangle star has 2k + 1 vertices and k pendant triangles, all
        # on the center (see ``oracle.triangle_star_parts``).
        triangles = _scan(adj, comp, True, comp)[2]
        if not triangles or comp.bit_count() != 2 * len(triangles) + 1:
            if long_comp is None:
                long_comp = comp
            continue
        partner = {}
        for _, x, y in triangles:
            partner[x], partner[y] = y, x
        # Outer vertices of distinct pendant triangles are nonadjacent;
        # after exhausting the pendant-triangle reduction, each pair has
        # a member with a separator neighbor.
        sep = _anchors(adj, comp & ~(1 << triangles[0][0]), a)
        if sep:
            u, ua = sep[0]
            for v, va in sep[1:]:
                if v != partner[u]:
                    return Rule.TRIANGLE_STAR, {
                        "u": u,
                        "v": v,
                        "ua": ua,
                        "va": va,
                        "uc": partner[u],
                        "vc": partner[v],
                    }
        raise PreconditionViolatedError(
            "triangle-star component with separator contact in fewer "
            "than two pendant triangles"
        )
    if long_comp is not None:
        path = _path4(adj, long_comp)
        if path is None:
            raise PreconditionViolatedError(
                "large factor-critical component without a 4-vertex path"
            )
        u, v, w, x = path
        vp, v1, v2 = _survivor(adj, long_comp, v)
        wp, w1, w2 = _survivor(adj, long_comp, w)
        return Rule.FOUR_PATH, {
            "u": u,
            "v": v,
            "w": w,
            "x": x,
            "vp": vp,
            "v1": v1,
            "v2": v2,
            "wp": wp,
            "w1": w1,
            "w2": w2,
        }
    return _vertex_choice(adj, live, Rule.DEGREE_TWO, live)


# The children of each rule in the rule statement's order (first listed
# child explored first).  A child names the actors whose vertices it
# deletes; one that starts with "N" deletes instead the outside
# neighborhood N(X) of the actors X that follow.
_CHILDREN = {
    Rule.C_VERTEX: ("v", "u", "w"),
    Rule.DEGREE_TWO: ("v", "u", "w"),
    Rule.A_EDGE: ("u", "v", "N u v"),
    Rule.TRIANGLE: ("ua", "u va", "u v", "u w", "v ua", "v u", "v w"),
    Rule.TRIANGLE_STAR: ("ua", "u v", "u va", "u vc", "uc v", "uc va", "uc vc"),
    Rule.FOUR_PATH: ("v vp", "v v1", "v v2", "w wp", "w w1", "w w2", "N v w"),
}

# ``_CHILDREN`` split once: each child as (deletes N(X), actor keys of X).
_CHILD_KEYS = {
    rule: tuple(
        (keys[0] == "N", tuple(keys[keys[0] == "N":]))
        for keys in map(str.split, children)
    )
    for rule, children in _CHILDREN.items()
}


def expand(adj, live: int, rule: Rule, actors: dict) -> list:
    """The deletion masks that define the children of ``rule`` at the node
    ``live``, with actors given as indices, in ``_CHILDREN`` order.

    Each child is ``live`` minus one of these masks, with the parent's
    target; the naive rule's children are built in ``_search``.
    """
    out = []
    for hood, keys in _CHILD_KEYS[rule]:
        mask = 0
        for k in keys:
            mask |= 1 << actors[k]
        if hood:
            near = 0
            for k in keys:
                near |= adj[actors[k]]
            mask = near & live & ~mask
            if not mask:
                raise PreconditionViolatedError(
                    "branch on an adjacent pair with empty outside neighborhood"
                )
        out.append(mask)
    return out


# -- the depth-first engine ---------------------------------------------------


def _search(inst: Instance, trace, budget=None, *, naive=False) -> SolveResult:
    """The one preorder depth-first search behind the three solvers.

    ``budget`` caps the branchings on any root-to-leaf path; a node at the
    cap that does not close is Exhausted.  ``budget=None`` asks
    for a definitive answer: every child of every branching rule deletes at
    least one vertex and keeps the target, and no reduction raises
    ``n - 2*ell``, so at depth ``n - 2*ell + 1`` (of the input) the No test
    ``n < 2*ell`` has closed every node.  The search then runs at that
    budget, and a node exhausted there is a bug and raises.

    ``naive`` selects the simple engine: no pendant-triangle reduction and
    the 3-way branch on the first vertex of degree at least two.  Otherwise
    each open node branches by ``choose_rule`` on its Gallai-Edmonds
    decomposition.

    Pruning is on exactly for the definitive paper search (``budget=None``
    and not ``naive``), so nothing truncates a pruned search and the simple
    engine stays an unpruned cross-check.  An open node is then a No leaf
    when the memo holds its reduced vertex set at a target no larger than
    its own (every node graph is an induced subgraph of the input, and a
    graph without an induced matching of size ell has none larger), or when
    its maximum matching M has ``2*|M| < 2*ell``.  By the deficiency
    formula that is the decomposition's ``n - #d_components + |a| < 2*ell``,
    but it needs neither the alternating forest nor the partition, so a
    node decomposes only once it is known to branch, and the decomposition
    picks the rule.  A frame popped before a Yes had every child searched
    to No, so its reduced vertex set goes into the memo.  A pruned node
    counts as a node and traces as a No leaf.

    The input is interned once (``graph.Interned``), and a node is the int
    mask of its vertices: a child is its parent's reduced mask minus a
    deletion mask, ``reduce_instance`` reduces it, the terminal test counts
    its bits, the memo is keyed on it, and the naive rule reads its branch
    off it.  The root's reduction scans the whole input; a child's is given
    the deletion mask and scans only the deleted vertices' neighbours, as
    its parent was reduced.  A paper-engine node that passes the memo test
    is decided on its mask too: ``mask_matching`` gives its index adjacency
    and maximum matching, which give the bound; ``decompose_mask`` grows
    the forest from that matching and gives ``d``, ``a`` and the
    D-components as masks; and ``choose_rule`` and ``expand`` give the
    rule, its actors as indices and the deletion masks.  No ``Graph`` is
    built; labels appear only in trace records, and harvested edges are
    index pairs until a Yes maps them to labels.  The three layers are
    looked up as module globals at every call, not bound to locals, so a
    wrapper set on a module name (the benchmark's spans) sees every call.

    The path from the root is an explicit stack, so the depth is bounded by
    the budget rather than by Python's recursion limit.  Each frame holds
    one open node's reduced mask and target, the deletion masks of its
    unvisited children, last one next, and the edges harvested on the path
    down to them; the root frame holds the input with one empty deletion
    mask.  The node at the top is at depth ``len(stack) - 1``.
    """
    bits = Interned(inst.graph)
    adj, labels = bits.adj, bits.labels
    definitive = budget is None
    if definitive:
        budget = max(0, len(labels) - 2 * inst.ell + 1)
    prune = definitive and not naive
    naive_name = Rule.NAIVE.value
    stats = SearchStats()
    exhausted = False
    memo = {}
    stack = [(bits.full, inst.ell, [0], frozenset())]
    while stack:
        parent, target, pending, harvested = stack[-1]
        if not pending:
            stack.pop()
            if prune and stack:
                # A smaller target for this set would have been a memo hit.
                memo[parent] = target
            continue
        depth = len(stack) - 1
        deleted = pending.pop()
        # The root frame's deletion is 0 and the root is not reduced yet.
        live, ell, got, steps = reduce_instance(
            adj, parent & ~deleted, target, not naive, deleted or None
        )
        stats.nodes_visited += 1
        if depth > stats.max_depth:
            stats.max_depth = depth
        for step in steps:
            stats.reductions_by_rule[step[0]] += 1
        if got:
            harvested = harvested.union(got)
        n = live.bit_count()
        state = node_state(n, ell, depth, budget)
        rule = None
        if state is None:
            if naive:
                rule, actors = _vertex_choice(adj, live, Rule.NAIVE, live)
                name = naive_name
                # The naive children delete u, then v, then w, and are built
                # here: through a ``_CHILDREN`` row and ``expand``, naive
                # ops ran about 5% slower, 0.0351-0.0371 to 0.0369-0.0390 s
                # over 6 runs (Python 3.11, 2 cores).
                children = [1 << actors["w"], 1 << actors["v"], 1 << actors["u"]]
            elif prune and memo.get(live, ell + 1) <= ell:
                stats.memo_hits += 1
                state = Answer.NO
            else:
                matched = mask_matching(adj, live)
                # Twice the matching number is n minus the exposed vertices.
                if prune and n - matched[2].count(-1) < 2 * ell:
                    stats.bound_prunes += 1
                    state = Answer.NO
                else:
                    d, a, comps = decompose_mask(adj, live, matched)
                    rule, actors = choose_rule(adj, live, a, live & ~(d | a), comps)
                    name = rule.value
                    children = expand(adj, live, rule, actors)[::-1]
        if rule is not None:
            stats.branchings_by_rule[name] += 1
        if trace is not None:
            record = {
                "depth": depth,
                "n": n,
                "ell": ell,
                "state": state or "continue",
                "rule": name if rule else None,
                "actors": {k: labels[i] for k, i in actors.items()} if rule else None,
            }
            trace(json.dumps(record, sort_keys=True, default=str))
        if state is Answer.YES:
            certificate = frozenset((labels[i], labels[j]) for i, j in harvested)
            if len(certificate) != inst.ell or not verify_induced_matching(
                inst.graph, certificate
            ):
                raise AssertionError(
                    "solver produced an invalid certificate; this is a bug"
                )
            return SolveResult(Answer.YES, certificate, stats)
        if state is Answer.EXHAUSTED:
            exhausted = True
        elif rule is not None:
            stack.append((live, ell, children, harvested))
    if exhausted and definitive:
        raise AssertionError(
            "the depth bound n - 2*ell + 1 can never truncate; this is a bug"
        )
    return SolveResult(Answer.EXHAUSTED if exhausted else Answer.NO, None, stats)


def solve_imba(inst: Instance, budget: int, *, trace=None) -> SolveResult:
    """Run the decomposition-guided search with a fixed branching budget.

    ``budget`` is the maximum number of branchings on any root-to-leaf
    path (twice the averaged below-guarantee parameter, when that is
    known).  Yes answers carry a certificate verified against the original
    graph.  Exhausted means the budget truncated at least one branch and
    no solution was found; it collapses to a definitive No only when the
    budget is known to dominate the instance's true parameter.  The search
    is unpruned.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    return _search(inst, trace, budget)


def solve_auto(inst: Instance, *, trace=None) -> SolveResult:
    """Definitive Yes/No from one exhaustive decomposition-guided search.

    The search runs once, at the budget ``n - 2*ell + 1``, which no path
    can reach, so its No is final; and since nothing truncates it, it
    prunes (see ``_search``).  Pruning cuts only No subtrees, so the answer
    and the certificate are those of ``solve_imba`` at that budget; the
    node count can only fall.
    """
    return _search(inst, trace)


def solve_imbtg(inst: Instance, *, trace=None) -> SolveResult:
    """The simple solver for the below-half-the-vertices parameterization.

    Degree-based reductions only and one naive 3-way branching rule, run
    once at the depth bound ``n - 2*ell + 1`` taken from the input; within
    that bound every leaf closes as Yes or No, so the answer is always
    definitive.  The search is unpruned.
    """
    return _search(inst, trace, naive=True)
