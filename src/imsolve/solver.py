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
  the Gallai-Edmonds matching bound (a node whose maximum matching is
  below the target) and a memo of the reduced vertex sets already proven
  No are sound No leaves once nothing truncates.  They cut only No
  subtrees, so the first Yes leaf in preorder, and with it the
  certificate, is the one the unpruned search finds.

* ``solve_imbtg``: the simple below-half-the-vertices algorithm, used for
  cross-validation.  Degree-based reductions only, one 3-way branching
  rule, and the same definitive depth bound, unpruned.

Answers are Yes (with a verified certificate), No, or Exhausted when the
budget truncated the search without finding a solution; only
``solve_imba`` can return Exhausted.

The search interns its input once (``graph.Interned``) and explores
vertex-deleted subgraphs of it as int masks: reductions, terminal tests,
the memo and the naive branch all work on masks, and a label-level
``Graph`` is built only for a paper-engine node that the memo does not
close, for the decomposition and the rule choice (see ``_search``).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

from .errors import PreconditionViolatedError
from .gallai_edmonds import GEDecomposition, decompose
from .graph import (
    Graph,
    Interned,
    label_key,
    lowest_two,
    sort_labels,
    verify_induced_matching,
)
from .kernel import Instance, TerminalState, node_state, reduce_mask
from .oracle import triangle_star_parts


class Rule(str, Enum):
    """Branching rules, named by the structure they act on."""

    C_VERTEX = "c-vertex"
    A_EDGE = "a-edge"
    TRIANGLE = "triangle"
    TRIANGLE_STAR = "triangle-star"
    FOUR_PATH = "four-path"
    DEGREE_TWO = "degree-two"
    NAIVE = "naive"


@dataclass(frozen=True)
class BranchChoice:
    """A rule plus the concrete vertices it acts on.

    Actor keys by rule:
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

    ``_CHILDREN`` lists the vertices each child of a rule deletes.
    """

    rule: Rule
    actors: dict


@dataclass
class SearchStats:
    nodes_visited: int = 0
    max_depth: int = 0
    branchings_by_rule: Counter = field(default_factory=Counter)
    reductions_by_rule: Counter = field(default_factory=Counter)
    # No leaves cut by the matching bound and by the memo (solve_auto only).
    bound_prunes: int = 0
    memo_hits: int = 0


class Answer(str, Enum):
    YES = "yes"
    NO = "no"
    EXHAUSTED = "exhausted"


@dataclass
class SolveResult:
    answer: Answer
    certificate: frozenset | None
    stats: SearchStats


# -- structural helpers for the branching rules ------------------------------


def find_path4(g: Graph, component):
    """An ordered path on four distinct vertices inside ``component``.

    Exists whenever the component has at least four vertices and is not a
    star; returns None otherwise.  Constructive: pivot on a maximum-degree
    vertex v.  If v sees everything, any adjacent pair among its neighbors
    extends to a path; otherwise some neighbor of v has a neighbor outside
    v's closed neighborhood.  Ties break to the smallest label.
    """
    comp = frozenset(component)
    if len(comp) < 4:
        return None
    sub = g.induced(comp)
    order = sub.vertices
    v = min(order, key=lambda x: (-sub.degree(x), label_key(x)))
    nv = sub.neighbors(v)
    if sub.degree(v) == len(comp) - 1:
        for w in sort_labels(nv):
            for x in sort_labels(sub.neighbors(w) & nv):
                # The first x will do: v has at least 3 neighbors.
                return (sort_labels(nv - {w, x})[0], v, w, x)
        return None  # neighbors pairwise nonadjacent: a star
    outside = frozenset(order) - nv - {v}
    for w in sort_labels(nv):
        hits = sort_labels(sub.neighbors(w) & outside)
        if hits:
            u = sort_labels(nv - {w})[0]
            return (u, v, w, hits[0])
    return None


def find_degree2_survivor(g: Graph, component, v):
    """A vertex of the component with two neighbors there after deleting v.

    Guaranteed to exist when the component induces a factor-critical graph
    that is not a triangle star; its absence indicates a decomposition bug,
    so it raises rather than returning a sentinel.  Returns
    ``(vertex, nbr1, nbr2)`` with smallest-label ties.
    """
    rest = frozenset(component) - {v}
    for cand in sort_labels(rest):
        nbrs = sort_labels(g.neighbors(cand) & rest)
        if len(nbrs) >= 2:
            return cand, nbrs[0], nbrs[1]
    raise PreconditionViolatedError(
        f"no vertex of degree 2 in the component after removing {v!r}; "
        "the component cannot be factor-critical and non-triangle-star"
    )


def _smallest_neighbor_in(g: Graph, v, pool):
    return min((x for x in g.neighbors(v) if x in pool), key=label_key, default=None)


def _anchors(g: Graph, candidates, pool) -> dict:
    """Each candidate with a neighbor in ``pool``, in the given order, mapped
    to its smallest such neighbor."""
    return {
        x: a
        for x in candidates
        if (a := _smallest_neighbor_in(g, x, pool)) is not None
    }


def _vertex_branch(g: Graph, rule: Rule, candidates) -> BranchChoice:
    """Branch on the first candidate of degree >= 2 and its two smallest
    neighbors.

    Every caller passes candidates that hold such a vertex in a reduced
    nonempty graph, so finding none is a bug in the reductions and raises.
    """
    for v in candidates:
        if g.degree(v) >= 2:
            u, w = sort_labels(g.neighbors(v))[:2]
            return BranchChoice(rule, {"v": v, "u": u, "w": w})
    raise PreconditionViolatedError(
        f"no vertex of degree at least 2 for the {rule.value} rule; "
        "reductions were not exhaustive"
    )


def choose_rule(g: Graph, dec: GEDecomposition) -> BranchChoice:
    """Pick the highest-priority applicable branching rule.

    Requires a fully reduced nonempty graph.  The priority is: a vertex of
    C; an edge inside A; a triangle D-component; a triangle-star
    D-component; a 4-vertex path in the first other D-component of at
    least five vertices; a degree-two vertex.  Triangle and triangle-star
    branches act on the members with a neighbor in A, each paired with its
    smallest one.  A precondition that reduction guarantees raises
    ``PreconditionViolatedError`` when it fails.
    """
    if dec.c:
        return _vertex_branch(g, Rule.C_VERTEX, sort_labels(dec.c))
    for u in sort_labels(dec.a):
        v = _smallest_neighbor_in(g, u, dec.a)
        if v is not None:
            return BranchChoice(Rule.A_EDGE, {"u": u, "v": v})
    for comp in dec.d_components:
        # D-components are factor-critical, and on three vertices that
        # means a triangle.
        if len(comp) != 3:
            continue
        anchors = _anchors(g, sort_labels(comp), dec.a)
        if len(anchors) < 2:
            raise PreconditionViolatedError(
                "triangle component without two separator neighbors; the "
                "pendant-triangle reduction was not exhaustive"
            )
        (u, ua), (v, va) = list(anchors.items())[:2]
        (w,) = comp - {u, v}
        return BranchChoice(Rule.TRIANGLE, {"u": u, "v": v, "w": w, "ua": ua, "va": va})
    long_comp = None
    for comp in dec.d_components:
        if len(comp) < 5:
            continue
        parts = triangle_star_parts(g.induced(comp))
        if parts is None:
            if long_comp is None:
                long_comp = comp
            continue
        _, pairs = parts
        partner = {x: y for pair in pairs for x, y in (pair, pair[::-1])}
        # Outer vertices of distinct pendant triangles are nonadjacent;
        # after exhausting the pendant-triangle reduction, each pair has
        # a member with a separator neighbor.
        sep = _anchors(g, sort_labels(partner), dec.a)
        u = next(iter(sep), None)
        rest = [x for x in sep if x not in (u, partner[u])]
        if not rest:
            raise PreconditionViolatedError(
                "triangle-star component with separator contact in fewer "
                "than two pendant triangles"
            )
        v = rest[0]
        return BranchChoice(
            Rule.TRIANGLE_STAR,
            {
                "u": u,
                "v": v,
                "ua": sep[u],
                "va": sep[v],
                "uc": partner[u],
                "vc": partner[v],
            },
        )
    if long_comp is not None:
        path = find_path4(g, long_comp)
        if path is None:
            raise PreconditionViolatedError(
                "large factor-critical component without a 4-vertex path"
            )
        u, v, w, x = path
        vp, v1, v2 = find_degree2_survivor(g, long_comp, v)
        wp, w1, w2 = find_degree2_survivor(g, long_comp, w)
        return BranchChoice(
            Rule.FOUR_PATH,
            {
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
            },
        )
    return _vertex_branch(g, Rule.DEGREE_TWO, g.vertices)


# The children of each rule in the rule statement's order (first listed
# child explored first).  A child names the actors whose vertices it
# deletes; one that starts with "N" deletes instead the outside
# neighborhood N(X) of the actors X that follow.
_CHILDREN = {
    Rule.C_VERTEX: ("v", "u", "w"),
    Rule.DEGREE_TWO: ("v", "u", "w"),
    Rule.NAIVE: ("u", "v", "w"),
    Rule.A_EDGE: ("u", "v", "N u v"),
    Rule.TRIANGLE: ("ua", "u va", "u v", "u w", "v ua", "v u", "v w"),
    Rule.TRIANGLE_STAR: ("ua", "u v", "u va", "u vc", "uc v", "uc va", "uc vc"),
    Rule.FOUR_PATH: ("v vp", "v v1", "v v2", "w wp", "w w1", "w w2", "N v w"),
}


def expand(g: Graph, choice: BranchChoice) -> list:
    """The deletion sets that define the children of a branching choice,
    read from ``_CHILDREN``.

    Each child is ``g`` minus one of these sets, with the parent's target;
    no graph is built here.
    """
    deletions = []
    for child in _CHILDREN[choice.rule]:
        keys = child.split()
        if keys[0] != "N":
            deletions.append({choice.actors[k] for k in keys})
            continue
        hood = g.neighborhood_of_set({choice.actors[k] for k in keys[1:]})
        if not hood:
            raise PreconditionViolatedError(
                "branch on an adjacent pair with empty outside neighborhood"
            )
        deletions.append(set(hood))
    return deletions


# -- the depth-first engine ---------------------------------------------------


def _naive_branch(adj, live: int):
    """``_vertex_branch`` of the naive rule on a mask: the lowest vertex of
    degree >= 2 and its two lowest neighbours, as indices ``(v, u, w)``."""
    rest = live
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        nbrs = adj[v] & live
        if nbrs & (nbrs - 1):
            return (v, *lowest_two(nbrs))
    raise PreconditionViolatedError(
        "no vertex of degree at least 2 for the naive rule; "
        "reductions were not exhaustive"
    )


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
    its decomposition gives ``2*mm = n - #d_components + |a| < 2*ell``;
    otherwise that decomposition picks the rule.  A frame popped before a
    Yes had every child searched to No, so its reduced vertex set goes into
    the memo.  A pruned node counts as a node and traces as a No leaf.

    The input is interned once (``graph.Interned``), and a node is the int
    mask of its vertices: a child is its parent's reduced mask minus a
    deletion mask, ``reduce_mask`` reduces it, the terminal test counts its
    bits, the memo is keyed on it, and the naive rule reads its branch off
    it.  A naive child is a reduced mask minus one vertex, so its reduction
    scans only that vertex's neighbours.  A label-level ``Graph`` is built
    only for a paper-engine node that passes the memo test: ``decompose``,
    the matching bound, ``choose_rule`` and ``expand`` run on it, and
    ``expand``'s deletion sets are mapped back to masks.  Harvested edges
    are index pairs until a Yes maps them to labels.

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
    naive_rule = Rule.NAIVE.value
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
        child = parent & ~deleted
        changed = None
        if naive and deleted:
            # The parent is reduced, so only the deleted vertex's neighbours
            # can be part of a feature of the child.
            changed = adj[deleted.bit_length() - 1] & child
        live, ell, got, steps = reduce_mask(adj, child, target, not naive, changed)
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
        if state is TerminalState.CONTINUE:
            if naive:
                v, u, w = _naive_branch(adj, live)
                rule = naive_rule
                actors = {"v": labels[v], "u": labels[u], "w": labels[w]}
                # _CHILDREN[Rule.NAIVE] deletes u, then v, then w.
                children = [1 << w, 1 << v, 1 << u]
            elif prune and memo.get(live, ell + 1) <= ell:
                stats.memo_hits += 1
                state = TerminalState.NO
            else:
                g = bits.subgraph(live)
                dec = decompose(g)
                if prune and n - len(dec.d_components) + len(dec.a) < 2 * ell:
                    stats.bound_prunes += 1
                    state = TerminalState.NO
                else:
                    choice = choose_rule(g, dec)
                    rule, actors = choice.rule.value, choice.actors
                    children = list(map(bits.mask_of, reversed(expand(g, choice))))
        if rule is not None:
            stats.branchings_by_rule[rule] += 1
        if trace is not None:
            record = {
                "depth": depth,
                "n": n,
                "ell": ell,
                "state": state.value,
                "rule": rule,
                "actors": actors if rule else None,
            }
            trace(json.dumps(record, sort_keys=True, default=str))
        if state is TerminalState.YES:
            certificate = frozenset((labels[i], labels[j]) for i, j in harvested)
            if len(certificate) != inst.ell or not verify_induced_matching(
                inst.graph, certificate
            ):
                raise AssertionError(
                    "solver produced an invalid certificate; this is a bug"
                )
            return SolveResult(Answer.YES, certificate, stats)
        if state is TerminalState.EXHAUSTED:
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
