"""Maximum matching on general graphs via blossom contraction.

The implementation is the classical O(n^3) augmenting-path search with
blossom shrinking, kept deliberately simple: matching is never the
bottleneck next to the exponential search, and at desk scale (up to a few
thousand vertices) the cubic bound is comfortable.  All tie-breaking is by
smallest label, so the returned matching is deterministic.
"""

from __future__ import annotations

from collections import deque

from .errors import NotBipartiteError
from .graph import Graph, edge, sort_labels


class _View:
    """Index view of a graph: labels mapped to 0..n-1 in sorted order."""

    __slots__ = ("labels", "index", "adj")

    def __init__(self, g: Graph):
        self.labels = g.vertices
        self.index = {v: i for i, v in enumerate(self.labels)}
        # Appending i in increasing order leaves every list sorted.
        self.adj = [[] for _ in self.labels]
        for i, v in enumerate(self.labels):
            for u in g.neighbors(v):
                self.adj[self.index[u]].append(i)


def _lowest_common_base(match, parent, base, a, b):
    seen = set()
    while True:
        a = base[a]
        seen.add(a)
        if match[a] == -1:
            break
        a = parent[match[a]]
    while True:
        b = base[b]
        if b in seen:
            return b
        b = parent[match[b]]


def _mark_blossom_path(match, parent, base, path_mark, v, stop, child):
    while base[v] != stop:
        path_mark[base[v]] = True
        path_mark[base[match[v]]] = True
        parent[v] = child
        child = match[v]
        v = parent[match[v]]


def _augment_from(match, parent, v):
    while v != -1:
        pv = parent[v]
        nxt = match[pv]
        match[pv] = v
        match[v] = pv
        v = nxt


def _search(adj, match, roots):
    """Grow an alternating forest from the exposed vertices ``roots``.

    If the forest reaches an exposed vertex outside it, augment along that
    path and return None.  Otherwise ``match`` is left untouched and the
    outer marks are returned: ``outer[i]`` is True iff ``i`` is reachable
    from a root by an even alternating path (blossoms included).
    """
    n = len(adj)
    parent = [-1] * n
    base = list(range(n))
    outer = [False] * n
    for r in roots:
        outer[r] = True
    queue = deque(roots)
    while queue:
        v = queue.popleft()
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            # Several roots come only with a maximum matching, so two trees
            # never meet at outer vertices (that edge would close an
            # augmenting path).  An exposed outer ``to`` is then this tree's
            # root, and blossom bases never cross trees.
            if (match[to] == -1 and outer[to]) or (
                match[to] != -1 and parent[match[to]] != -1
            ):
                # Odd cycle found: contract the blossom into its base.
                stop = _lowest_common_base(match, parent, base, v, to)
                path_mark = [False] * n
                _mark_blossom_path(match, parent, base, path_mark, v, stop, to)
                _mark_blossom_path(match, parent, base, path_mark, to, stop, v)
                for i in range(n):
                    if path_mark[base[i]]:
                        base[i] = stop
                        if not outer[i]:
                            outer[i] = True
                            queue.append(i)
            elif parent[to] == -1:
                parent[to] = v
                if match[to] == -1:
                    _augment_from(match, parent, to)
                    return None
                outer[match[to]] = True
                queue.append(match[to])
    return outer


def _maximum_matching_indices(adj):
    n = len(adj)
    match = [-1] * n
    for v in range(n):
        if match[v] == -1:
            for u in adj[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break
    for v in range(n):
        if match[v] == -1:
            _search(adj, match, [v])
    return match


def maximum_matching(g: Graph) -> frozenset:
    """A maximum matching of ``g`` as a frozenset of normalized edges."""
    view = _View(g)
    match = _maximum_matching_indices(view.adj)
    return frozenset(
        edge(view.labels[i], view.labels[match[i]])
        for i in range(len(match))
        if match[i] > i
    )


def has_perfect_matching(g: Graph) -> bool:
    return 2 * len(maximum_matching(g)) == g.vertex_count


def is_factor_critical(g: Graph) -> bool:
    """True iff ``g`` is connected and ``g - v`` has a perfect matching for
    every vertex ``v``.

    The empty graph is not factor-critical; a single vertex is.  Checked by
    one perfect-matching computation per vertex; intended for small
    components and audits, not hot paths.
    """
    n = g.vertex_count
    if n == 0:
        return False
    if len(g.connected_components()) != 1:
        return False
    if n % 2 == 0:
        return False
    for v in g.vertices:
        if not has_perfect_matching(g.delete_vertices({v})):
            return False
    return True


def konig_cover(g: Graph) -> frozenset:
    """A minimum vertex cover of a bipartite graph.

    Extracted from a maximum matching by alternating reachability from the
    unmatched vertices of one side; the result has size exactly equal to
    the maximum matching size.
    """
    sides = g.bipartition()
    if sides is None:
        raise NotBipartiteError("graph contains an odd cycle")
    left, right = sides
    mate = {}
    for u, v in maximum_matching(g):
        mate[u] = v
        mate[v] = u
    reached = set()
    queue = deque()
    for u in sort_labels(left):
        if u not in mate:
            reached.add(u)
            queue.append(u)
    while queue:
        v = queue.popleft()
        if v in left:
            # leave the left side along non-matching edges
            for w in sort_labels(g.neighbors(v)):
                if mate.get(v) != w and w not in reached:
                    reached.add(w)
                    queue.append(w)
        else:
            # return to the left side along the matching edge
            w = mate.get(v)
            if w is not None and w not in reached:
                reached.add(w)
                queue.append(w)
    return frozenset((left - reached) | (right & reached))
