"""Immutable simple graphs over opaque vertex labels, and their interning.

A ``Graph`` keeps stable labels, so a certificate found deep in the search
still names vertices of the original input.  Label order is decided once:
``Graph.build`` inserts the vertices of its adjacency dict in
``sort_labels`` order, and every derived graph keeps its parent's order by
filtering the parent's items.  So iteration is by label everywhere, without
a sort, and branching decisions and traces are reproducible.

The search builds no ``Graph``.  It interns its input once (``Interned``):
vertex ``i`` in label order becomes bit ``1 << i`` and its neighbourhood
one int mask, so a search node is the int mask of the vertices it keeps, a
child is ``mask & ~deleted``, and index order is label order.  Reductions,
the decomposition and the branching rules all run on masks; labels come
back only in traces and certificates.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Iterable, NamedTuple

from .errors import (
    DuplicateEdgeError,
    SelfLoopError,
    TooLargeError,
    UnknownEndpointError,
    UnknownVertexError,
)

Label = Hashable
Edge = tuple

# The one vertex cap, of interning and of both instance readers.
MAX_VERTICES = 1 << 15


def label_key(label):
    """Sort key that stays total when a graph mixes label types."""
    return (type(label).__name__, label)


def sort_labels(labels) -> list:
    return sorted(labels, key=label_key)


def edge(u, v) -> Edge:
    """The normalized (unordered) pair for the edge between u and v."""
    if label_key(v) < label_key(u):
        return (v, u)
    return (u, v)


class LocalFeatures(NamedTuple):
    """Degree-local structure consumed by the reduction rules.

    ``pendant_triangles`` lists triples ``(u, v, w)`` where ``u`` and ``w``
    have degree exactly 2 in the whole graph; ``v`` is the vertex that the
    pendant-triangle rule deletes, which leaves ``u``-``w`` as an isolated
    edge.
    """

    isolated_vertices: tuple
    isolated_edges: tuple
    pendant_triangles: tuple


class Graph:
    """Undirected simple graph, immutable after construction.

    Construct via :meth:`build`, which validates the edge list.  All
    operations return new values; the receiver is never mutated.  The
    adjacency dict is in label order: ``build`` sets it and every derived
    graph inherits it, so vertices, edges and scans come out sorted.
    """

    __slots__ = ("_adj",)

    def __init__(self, adjacency: dict):
        # Internal constructor: keeps ``adjacency``, a fresh symmetric
        # label -> frozenset dict whose keys are in label order, uncopied.
        # Only build() sorts; derived graphs filter their parent's items in
        # order.  Users go through Graph.build().
        self._adj = adjacency

    @classmethod
    def build(cls, labels: Iterable, edges: Iterable) -> "Graph":
        """Validate and construct a graph.

        Rejects self-loops, duplicate edges (after normalization to
        unordered pairs) and endpoints outside ``labels``.
        """
        adj = {v: set() for v in sort_labels(set(labels))}
        for u, v in edges:
            if u == v:
                raise SelfLoopError(f"self-loop at {u!r}")
            if u not in adj:
                raise UnknownEndpointError(f"endpoint {u!r} not among the vertices")
            if v not in adj:
                raise UnknownEndpointError(f"endpoint {v!r} not among the vertices")
            if v in adj[u]:
                raise DuplicateEdgeError(f"duplicate edge {edge(u, v)!r}")
            adj[u].add(v)
            adj[v].add(u)
        return cls({v: frozenset(ns) for v, ns in adj.items()})

    # -- basic queries ----------------------------------------------------

    @property
    def vertices(self) -> tuple:
        return tuple(self._adj)

    @property
    def vertex_count(self) -> int:
        return len(self._adj)

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self):
        return iter(self._adj)

    def __contains__(self, v) -> bool:
        return v in self._adj

    def has_edge(self, u, v) -> bool:
        nbrs = self._adj.get(u)
        return nbrs is not None and v in nbrs

    def neighbors(self, v) -> frozenset:
        try:
            return self._adj[v]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v!r}") from None

    def degree(self, v) -> int:
        return len(self.neighbors(v))

    def edges(self) -> list:
        """All edges as normalized pairs, sorted."""
        rank = {v: i for i, v in enumerate(self._adj)}
        out = []
        for i, (v, nbrs) in enumerate(self._adj.items()):
            out.extend((v, u) for u in sorted(nbrs, key=rank.get) if rank[u] > i)
        return out

    def neighborhood_of_set(self, vertices) -> frozenset:
        """N(X): all neighbors of X that lie outside X."""
        vs = frozenset(vertices)
        out = set()
        for v in vs:
            out |= self.neighbors(v)
        return frozenset(out - vs)

    # -- derived graphs ---------------------------------------------------

    def delete_vertices(self, remove) -> "Graph":
        """The induced subgraph on ``vertices - remove``; self is unchanged."""
        rm = frozenset(remove)
        for v in rm:
            if v not in self._adj:
                raise UnknownVertexError(f"unknown vertex {v!r}")
        if not rm:
            return self
        return Graph(
            {v: nbrs - rm for v, nbrs in self._adj.items() if v not in rm}
        )

    def induced(self, keep) -> "Graph":
        """The induced subgraph on ``keep``."""
        ks = frozenset(keep)
        for v in ks:
            if v not in self._adj:
                raise UnknownVertexError(f"unknown vertex {v!r}")
        return Graph({v: nbrs & ks for v, nbrs in self._adj.items() if v in ks})

    # -- structure --------------------------------------------------------

    def connected_components(self) -> tuple:
        """Vertex sets of the connected components, ordered by smallest label."""
        seen = set()
        parts = []
        for start in self._adj:
            if start in seen:
                continue
            comp = {start}
            queue = deque([start])
            seen.add(start)
            while queue:
                v = queue.popleft()
                for u in self._adj[v]:
                    if u not in seen:
                        seen.add(u)
                        comp.add(u)
                        queue.append(u)
            parts.append(frozenset(comp))
        return tuple(parts)

    def local_features(self) -> LocalFeatures:
        """Isolated vertices, isolated edges and pendant triangles.

        Degrees are taken in the whole graph.  A triangle with all three
        degrees equal to 2 (an isolated triangle) is reported with its
        smallest vertex as ``v``, the one the reduction deletes.  Each
        triangle is reported once, from its smallest degree-2 vertex.

        The kernel finds the same features on masks with a scan of its own
        (``kernel._scan``).  This one stays a separate, label-level scan
        because the tests check the kernel against it, so it must not share
        the kernel's code.  Written as a call to ``kernel._scan`` it also
        took 12-17 ms instead of 3 ms on a 2,080-vertex tight ``cw`` graph,
        almost all of it interning (Python 3.11, 2 cores).
        """
        adj = self._adj
        isolated = []
        iso_edges = []
        pendants = []
        for x, nbrs in adj.items():
            deg = len(nbrs)
            if deg == 0:
                isolated.append(x)
            elif deg == 1:
                (u,) = nbrs
                if len(adj[u]) == 1 and label_key(x) < label_key(u):
                    iso_edges.append((x, u))
            elif deg == 2:
                a, b = nbrs
                if b not in adj[a]:
                    continue
                a2 = len(adj[a]) == 2
                b2 = len(adj[b]) == 2
                if a2 and b2:
                    # An isolated triangle, reported from its smallest vertex.
                    kx, ka, kb = label_key(x), label_key(a), label_key(b)
                    if kx < ka and kx < kb:
                        pendants.append((a, x, b) if ka < kb else (b, x, a))
                elif a2 or b2:
                    # y is the other degree-2 vertex and v the third one.
                    y, v = (a, b) if a2 else (b, a)
                    if label_key(x) < label_key(y):
                        pendants.append((x, v, y))
        pendants.sort(key=lambda t: (label_key(t[1]), label_key(t[0])))
        return LocalFeatures(tuple(isolated), tuple(iso_edges), tuple(pendants))

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self):
        return hash(frozenset(self._adj.items()))

    def __repr__(self):
        return f"Graph(n={self.vertex_count}, m={self.edge_count})"


def indices(mask: int) -> list:
    """The set bits of ``mask`` as indices, ascending."""
    out = []
    # Clearing the highest bit shortens the int, so it is cheaper than
    # clearing the lowest.
    while mask:
        i = mask.bit_length() - 1
        out.append(i)
        mask ^= 1 << i
    out.reverse()
    return out


def lowest_two(mask: int) -> tuple:
    """The two lowest set bits of ``mask`` as indices; it has at least two."""
    low = mask & -mask
    mask ^= low
    return low.bit_length() - 1, (mask & -mask).bit_length() - 1


def check_vertex_count(n: int) -> None:
    """Raise TooLargeError if ``n`` vertices are past ``MAX_VERTICES``."""
    if n > MAX_VERTICES:
        raise TooLargeError(f"{n} vertices exceeds the vertex cap ({MAX_VERTICES})")


class Interned:
    """A graph's vertices as the bits of an int, in label order.

    ``labels[i]`` is the vertex of bit ``1 << i``, ``adj[i]`` the mask of
    its neighbours and ``full`` the mask of all vertices.  A vertex set is
    then one int, and the induced subgraph on a mask is ``adj[i] & mask``
    for each of its bits.  The bits alone take about n * n / 16 bytes, so a
    graph past ``MAX_VERTICES`` raises TooLargeError at once, as a file
    header past it does in ``read_instance``.
    """

    __slots__ = ("labels", "adj", "full")

    def __init__(self, graph: Graph):
        check_vertex_count(graph.vertex_count)
        self.labels = graph.vertices
        bit = {v: 1 << i for i, v in enumerate(self.labels)}
        # The bits of distinct neighbours are distinct powers of two, so
        # their sum is their union.
        self.adj = [sum(map(bit.__getitem__, nbrs)) for nbrs in graph._adj.values()]
        self.full = (1 << len(self.labels)) - 1


def verify_induced_matching(g: Graph, matching) -> bool:
    """True iff ``matching`` is an induced matching in ``g``.

    That is: the pairs are edges of ``g``, no two share an endpoint, and no
    edge of ``g`` joins endpoints of two distinct pairs.  Raises
    UnknownEndpointError if an endpoint does not exist in ``g``.
    """
    pairs = list(matching)
    for u, v in pairs:
        if u not in g:
            raise UnknownEndpointError(f"unknown endpoint {u!r}")
        if v not in g:
            raise UnknownEndpointError(f"unknown endpoint {v!r}")
    mate = {}
    for u, v in pairs:
        if not g.has_edge(u, v) or u in mate or v in mate:
            return False
        mate[u] = v
        mate[v] = u
    # Induced iff no matched vertex has a matched neighbour besides its mate.
    return not any(
        u in mate and u != w for v, w in mate.items() for u in g.neighbors(v)
    )
