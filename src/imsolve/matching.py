"""Maximum matching on general graphs via blossom contraction.

The implementation is the classical O(n^3) augmenting-path search with
blossom shrinking, kept deliberately simple: matching is never the
bottleneck next to the exponential search, and at desk scale (up to a few
thousand vertices) the cubic bound is comfortable.  All tie-breaking is by
smallest label, so the returned matching is deterministic.

Which vertices some maximum matching misses is read off one alternating
forest (``_missable``); both the Gallai-Edmonds ``d`` set and
factor-criticality come from it.
"""

from __future__ import annotations

from collections import deque

from .graph import Graph, edge


def _index_adjacency(g: Graph) -> list:
    """Neighbour lists of ``g`` by vertex index, in label order."""
    labels = g.vertices
    index = {v: i for i, v in enumerate(labels)}
    # Appending i in increasing order leaves every list sorted.
    adj = [[] for _ in labels]
    for i, v in enumerate(labels):
        for u in g.neighbors(v):
            adj[index[u]].append(i)
    return adj


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
        # A vertex without neighbours stays exposed in every matching.
        if match[v] == -1 and adj[v]:
            _search(adj, match, [v])
    return match


def maximum_matching(g: Graph) -> frozenset:
    """A maximum matching of ``g`` as a frozenset of normalized edges."""
    labels = g.vertices
    match = _maximum_matching_indices(_index_adjacency(g))
    return frozenset(
        edge(labels[i], labels[match[i]])
        for i in range(len(match))
        if match[i] > i
    )


def _missable(g: Graph) -> list:
    """Per vertex of ``g`` in label order: is it missed by some maximum
    matching?

    Given one maximum matching, those are exactly the outer vertices of the
    alternating forest grown from all its exposed vertices at once
    (Edmonds 1965; Lovasz and Plummer, *Matching Theory*, ch. 3).  As the
    matching is maximum the forest never augments, so one search suffices.
    """
    adj = _index_adjacency(g)
    match = _maximum_matching_indices(adj)
    return _search(adj, match, [i for i, m in enumerate(match) if m == -1])


def has_perfect_matching(g: Graph) -> bool:
    return 2 * len(maximum_matching(g)) == g.vertex_count


def is_factor_critical(g: Graph) -> bool:
    """True iff ``g`` is connected and ``g - v`` has a perfect matching for
    every vertex ``v``.

    The empty graph is not factor-critical; a single vertex is.  By
    Gallai's lemma (Lovasz and Plummer, *Matching Theory*, ch. 3) a
    connected graph is factor-critical exactly when every vertex is missed
    by some maximum matching, so one alternating forest decides it.
    """
    return len(g.connected_components()) == 1 and all(_missable(g))
