"""Brute-force ground truth and structural recognizers.

Everything here is exact.  The ``brute_*`` functions enumerate at desk
scale and refuse inputs above a configurable cap; they are the independent
oracles that the solver, the decomposition and the recognizers are tested
against, so none of them may share code with the routines they check.

The recognizers classify connected graphs by the structure that forces
equality between the matching-type invariants: ``recognize_cameron_walker``
detects graphs whose maximum matching and maximum induced matching sizes
coincide, ``classify_tight`` the (rarer) graphs where the induced matching
number reaches the average of matching number and independence number.
Both recognizers, and ``triangle_star_parts``, take pendant triangles from
``Graph.local_features``, which reports the triangles that the kernel's
mask scan finds for its pendant-triangle rule and for the search's
triangle-star test.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace
from itertools import combinations

from .errors import DisconnectedError, TooLargeError
from .graph import Graph, label_key, sort_labels
from .matching import maximum_matching

DEFAULT_CAP = 16

NOT_CAMERON_WALKER = "not-cameron-walker"
STAR = "star"
TRIANGLE_STAR = "triangle-star"
PENDANT_BIPARTITE = "pendant-bipartite"
ISOLATED_EDGE = "isolated-edge"
TIGHT_PENDANT_BIPARTITE = "tight-pendant-bipartite"
NOT_TIGHT = "not-tight"


def _require_cap(n: int, cap: int):
    """Raise TooLargeError if the brute force may not take ``n`` vertices."""
    if n > cap:
        raise TooLargeError(f"{n} vertices exceeds the brute-force cap ({cap})")
    depth = sys.getrecursionlimit() // 2  # a level per edge or vertex taken
    if n > depth:
        raise TooLargeError(
            f"{n} vertices exceeds the brute-force recursion cap ({depth})"
        )


def _require_connected(g: Graph):
    if len(g.connected_components()) != 1:
        raise DisconnectedError("classification requires a connected graph")


# -- exact optima -----------------------------------------------------------


def brute_im(g: Graph, cap: int = DEFAULT_CAP):
    """Exact maximum induced matching, with a witness.

    Depth-first enumeration over edges in sorted order; a chosen edge
    blocks its endpoints and all their neighbors, so compatibility is a
    two-membership test.  Pruned by the pairs still packable among
    unblocked vertices.  The witness is the first maximum found, which
    makes it deterministic.
    """
    _require_cap(g.vertex_count, cap)
    edges = g.edges()
    m = len(edges)
    n = g.vertex_count
    closed = [
        frozenset((u, v)) | g.neighbors(u) | g.neighbors(v) for (u, v) in edges
    ]
    best = 0
    best_set: tuple = ()

    def grow(start, blocked, chosen):
        nonlocal best, best_set
        if len(chosen) > best:
            best = len(chosen)
            best_set = tuple(chosen)
        if len(chosen) + (n - len(blocked)) // 2 <= best:
            return
        for j in range(start, m):
            u, v = edges[j]
            if u in blocked or v in blocked:
                continue
            chosen.append(edges[j])
            grow(j + 1, blocked | closed[j], chosen)
            chosen.pop()

    grow(0, frozenset(), [])
    return best, frozenset(best_set)


def brute_mm(g: Graph, cap: int = DEFAULT_CAP) -> int:
    """Exact maximum matching size by edge enumeration (oracle for blossom)."""
    _require_cap(g.vertex_count, cap)
    edges = g.edges()
    m = len(edges)
    n = g.vertex_count
    best = 0

    def grow(start, covered, size):
        nonlocal best
        if size > best:
            best = size
        if size + (n - len(covered)) // 2 <= best:
            return
        for j in range(start, m):
            u, v = edges[j]
            if u in covered or v in covered:
                continue
            grow(j + 1, covered | {u, v}, size + 1)

    grow(0, frozenset(), 0)
    return best


def brute_is(g: Graph, cap: int = DEFAULT_CAP) -> int:
    """Exact maximum independent set size (branch on a max-degree vertex)."""
    _require_cap(g.vertex_count, cap)

    def go(adj):
        if not adj:
            return 0
        v = min(adj, key=lambda x: (-len(adj[x]), label_key(x)))
        if not adj[v]:
            return len(adj)
        # exclude v
        without = {x: ns - {v} for x, ns in adj.items() if x != v}
        best = go(without)
        # include v: drop its closed neighborhood
        drop = adj[v] | {v}
        kept = {x: ns - drop for x, ns in adj.items() if x not in drop}
        best = max(best, 1 + go(kept))
        return best

    return go({v: set(g.neighbors(v)) for v in g.vertices})


def brute_vc(g: Graph, cap: int = DEFAULT_CAP) -> int:
    """Exact minimum vertex cover size (branch on an endpoint of an edge)."""
    _require_cap(g.vertex_count, cap)

    def go(adj):
        u = None
        for x in sort_labels(adj):
            if adj[x]:
                u = x
                break
        if u is None:
            return 0
        v = min(adj[u], key=label_key)
        without_u = {x: ns - {u} for x, ns in adj.items() if x != u}
        without_v = {x: ns - {v} for x, ns in adj.items() if x != v}
        return 1 + min(go(without_u), go(without_v))

    return go({v: set(g.neighbors(v)) for v in g.vertices})


def brute_ds(g: Graph, cap: int = DEFAULT_CAP) -> int:
    """Exact minimum dominating set size by subset enumeration."""
    _require_cap(g.vertex_count, cap)
    verts = g.vertices
    n = len(verts)
    if n == 0:
        return 0
    closed = {v: g.neighbors(v) | {v} for v in verts}
    full = frozenset(verts)
    for k in range(n + 1):
        for subset in combinations(verts, k):
            seen = set()
            for v in subset:
                seen |= closed[v]
            if seen == full:
                return k
    raise AssertionError("unreachable: the full vertex set dominates")


@dataclass(frozen=True)
class ParameterReport:
    """All exact quantities of an instance, plus the derived parameters.

    ``k_trivial``, ``k_avg`` may be half-integral and are stored as floats
    (halves are exact in binary); ``budget`` is twice the averaged
    parameter as an exact integer, the branching allowance the main solver
    is entitled to on a yes-instance.
    """

    n: int
    ell: int
    mm: int
    is_: int
    im: int
    vc: int
    k_trivial: float
    k_mm: int
    k_is: int
    k_avg: float

    @property
    def budget(self) -> int:
        return self.mm + self.is_ - 2 * self.ell


def parameters(g: Graph, ell: int, cap: int = DEFAULT_CAP) -> ParameterReport:
    """Exact parameter report for the instance ``(g, ell)``."""
    _require_cap(g.vertex_count, cap)
    mm = brute_mm(g, cap)
    is_ = brute_is(g, cap)
    im, _ = brute_im(g, cap)
    vc = brute_vc(g, cap)
    n = g.vertex_count
    return ParameterReport(
        n=n,
        ell=ell,
        mm=mm,
        is_=is_,
        im=im,
        vc=vc,
        k_trivial=n / 2 - ell,
        k_mm=mm - ell,
        k_is=is_ - ell,
        k_avg=(mm + is_) / 2 - ell,
    )


# -- structural recognizers -------------------------------------------------


@dataclass(frozen=True)
class StructureClass:
    """Outcome of a structural classification.

    ``u_side``/``w_side`` are the two sides of the core for the pendant-
    bipartite shapes; ``pendant_vertices`` maps a core vertex to its
    attached pendant vertices, ``pendant_triangles`` to its attached
    triangle pairs.
    """

    kind: str
    u_side: frozenset | None = None
    w_side: frozenset | None = None
    pendant_vertices: dict = field(default_factory=dict)
    pendant_triangles: dict = field(default_factory=dict)


def is_star(g: Graph) -> bool:
    """One center adjacent to all others, no other edges (K1 and K2 count)."""
    n = g.vertex_count
    if n == 0:
        return False
    if n == 1:
        return True
    degs = sorted(g.degree(v) for v in g.vertices)
    return degs[-1] == n - 1 and all(d == 1 for d in degs[:-1])


def triangle_star_parts(g: Graph):
    """Center and pendant pairs of ``g`` if it is a triangle star, or None.

    A triangle star is a triangle with any number of further pendant
    triangles attached to one shared center; to test part of a graph, pass
    the subgraph it induces.  The test reads the pendant triangles of
    :meth:`Graph.local_features`: a graph is a triangle star exactly when
    it has ``2k + 1`` vertices and ``k >= 1`` pendant triangles.  Their
    pairs are disjoint and hold no center, so every triangle deletes the
    one vertex left over, the center (for a plain triangle, its smallest
    vertex).  Pairs keep the scan's order, which is sorted: each is
    ``(x, partner)`` for the smallest vertex ``x`` not yet paired.
    """
    triangles = g.local_features().pendant_triangles
    if not triangles or g.vertex_count != 2 * len(triangles) + 1:
        return None
    return triangles[0][1], tuple((u, w) for u, _, w in triangles)


def is_triangle_star(g: Graph) -> bool:
    """Whether ``g`` is a triangle star; see :func:`triangle_star_parts`."""
    return triangle_star_parts(g) is not None


def _peel(g: Graph):
    """Strip pendant vertices and pendant triangles off the core.

    Returns ``(core, pendant_map, triangle_map)``.  On a connected graph
    that is neither a star nor a triangle star every attachment target is
    a core vertex, so the core is not empty: a pendant vertex's neighbour
    is no pendant vertex (that is K2) and no triangle-pair member (whose
    two neighbours are in its triangle), and pendant-triangle pairs hold
    no center.
    """
    feats = g.local_features()
    tri_members = set()
    triangle_map: dict = {}
    # Pendant-triangle pairs are disjoint, so no vertex is claimed twice.
    for u, v, w in feats.pendant_triangles:
        tri_members.update((u, w))
        triangle_map.setdefault(v, []).append((u, w))
    pendant_map: dict = {}
    pendant_vs = set()
    for x in g.vertices:
        if g.degree(x) == 1:
            pendant_vs.add(x)
            (target,) = g.neighbors(x)
            pendant_map.setdefault(target, []).append(x)
    core = frozenset(g.vertices) - pendant_vs - tri_members
    pendant_map = {k: tuple(v) for k, v in pendant_map.items()}
    triangle_map = {k: tuple(v) for k, v in triangle_map.items()}
    return core, pendant_map, triangle_map


def _core_sides_ok(g: Graph, core, u_side) -> bool:
    """Each core edge must join u_side to the rest of the core, and the
    core must be connected."""
    for x in core:
        for y in g.neighbors(x):
            if y not in core:
                continue
            if (x in u_side) == (y in u_side):
                return False
    return len(g.induced(core).connected_components()) == 1


def recognize_cameron_walker(g: Graph) -> StructureClass:
    """Classify a connected graph by whether its maximum matching size can
    be achieved by an induced matching.

    The positive shapes are: a star; a triangle star; a connected bipartite
    core with at least one pendant vertex on every vertex of one side and
    any number of pendant triangles on each vertex of the other.
    """
    _require_connected(g)
    if is_star(g):
        return StructureClass(STAR)
    if is_triangle_star(g):
        return StructureClass(TRIANGLE_STAR)
    core, pendant_map, triangle_map = _peel(g)
    u_side = frozenset(x for x in core if pendant_map.get(x))
    if any(x in triangle_map for x in u_side):
        return StructureClass(NOT_CAMERON_WALKER)
    if not _core_sides_ok(g, core, u_side):
        return StructureClass(NOT_CAMERON_WALKER)
    return StructureClass(
        PENDANT_BIPARTITE, u_side, core - u_side, pendant_map, triangle_map
    )


def classify_tight(g: Graph) -> StructureClass:
    """Classify a connected graph by whether its induced matching number
    reaches the average of matching number and independence number.

    The positive shapes are: a single edge; a triangle star; a connected
    bipartite core with exactly one pendant vertex on every vertex of one
    side and at least one pendant triangle on every vertex of the other.
    All of them are Cameron-Walker graphs, so this refines
    :func:`recognize_cameron_walker` (no other star is tight).  For the
    last shape the matching-size identity ``mm = (n - |w_side|) / 2`` is
    re-derived from the blossom matching as a runtime self-check.
    """
    if g.vertex_count == 2 and g.edge_count == 1:
        return StructureClass(ISOLATED_EDGE)
    cw = recognize_cameron_walker(g)
    if cw.kind == TRIANGLE_STAR:
        return cw
    if (
        cw.kind != PENDANT_BIPARTITE
        or any(len(ps) > 1 for ps in cw.pendant_vertices.values())
        or any(not cw.pendant_triangles.get(w) for w in cw.w_side)
    ):
        return StructureClass(NOT_TIGHT)
    mm = len(maximum_matching(g))
    if 2 * mm != g.vertex_count - len(cw.w_side):
        raise AssertionError(
            "tight classification contradicts the matching size; "
            "this is a bug in the structural test"
        )
    return replace(cw, kind=TIGHT_PENDANT_BIPARTITE)
