"""Maximum matching on general graphs via blossom contraction.

A greedy pass matches what it can, then one alternating-forest search
(Edmonds' augmenting-path search with blossom shrinking) runs from each
vertex the greedy pass left exposed.  A search costs what it touches: the
forest's per-vertex arrays are allocated at most once per matching, when
the first search starts, and a search resets only the vertices it
reached.  A blossom is contracted over the members of the bases on it
(sorted by index, O(k log k) for k members), not by a scan of every
vertex.  So a search that stays inside a small component costs the size of
that component, and k disjoint odd components cost time near-linear in n,
not k times n.  The worst case is still a search per vertex over the whole
graph.  All tie-breaking is by smallest label, so the returned matching is
deterministic.

Which vertices some maximum matching misses is read off one alternating
forest, grown from the vertices a given maximum matching leaves exposed
(``_outer``); both the Gallai-Edmonds ``d`` set and factor-criticality
come from it.
"""

from __future__ import annotations

from .graph import Graph


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


def _mark_blossom_path(match, parent, base, marked, v, stop, child):
    while base[v] != stop:
        marked.add(base[v])
        marked.add(base[match[v]])
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


def _forest(n):
    """Clear ``parent``, ``base`` and ``outer`` arrays for ``_search``."""
    return [-1] * n, list(range(n)), [False] * n


def _search(adj, match, roots, parent, base, outer, *, reset=True):
    """Grow an alternating forest from the exposed vertices ``roots``.

    If the forest reaches an exposed vertex outside it, augment along that
    path and return None.  Otherwise ``match`` is left untouched and the
    outer vertices are returned: those reachable from a root by an even
    alternating path (blossoms included).

    ``parent``, ``base`` and ``outer`` (from ``_forest``) are clear on entry
    and are cleared again on return, for the vertices the forest touched
    only, so a search costs what it reaches and not the size of the graph.
    A last search, whose arrays are thrown away, skips that with
    ``reset=False``; resetting there too made ``decompose`` on sparse
    G(n, c/n) graphs, n from 400 to 1,600, about 5% slower (median 0.0395
    to 0.0414 s over 5 runs, Python 3.11, 2 cores).
    """
    # The queue keeps every outer vertex, each appended once when it turns
    # outer; with ``inner`` it holds every vertex the forest touched.
    queue = list(roots)
    inner = []
    # Members of each blossom base formed so far; any other base is alone.
    blossoms = {}
    for r in roots:
        outer[r] = True
    try:
        for v in queue:
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                mate = match[to]
                # Several roots come only with a maximum matching, so two
                # trees never meet at outer vertices (that edge would close an
                # augmenting path).  An exposed outer ``to`` is then this
                # tree's root, and blossom bases never cross trees.
                if (mate == -1 and outer[to]) or (mate != -1 and parent[mate] != -1):
                    # Odd cycle found: contract the blossom into its base.
                    # The members of the bases on it are relabelled in index
                    # order, as a scan of all vertices would meet them; those
                    # of ``stop`` itself are outer already and keep their base.
                    stop = _lowest_common_base(match, parent, base, v, to)
                    marked = set()
                    _mark_blossom_path(match, parent, base, marked, v, stop, to)
                    _mark_blossom_path(match, parent, base, marked, to, stop, v)
                    marked.discard(stop)
                    joined = [b for b in marked if b not in blossoms]
                    for b in marked & blossoms.keys():
                        joined += blossoms.pop(b)
                    joined.sort()
                    for i in joined:
                        base[i] = stop
                        if not outer[i]:
                            outer[i] = True
                            queue.append(i)
                    blossoms[stop] = blossoms.get(stop, [stop]) + joined
                elif parent[to] == -1:
                    parent[to] = v
                    inner.append(to)
                    if mate == -1:
                        _augment_from(match, parent, to)
                        return None
                    outer[mate] = True
                    queue.append(mate)
        return queue
    finally:
        if reset:
            # Only outer vertices change base or have their parent
            # re-pointed inside a blossom.
            for i in queue:
                parent[i] = -1
                base[i] = i
                outer[i] = False
            for i in inner:
                parent[i] = -1


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
    forest = None
    for v in range(n):
        # A vertex without neighbours stays exposed in every matching.
        if match[v] == -1 and adj[v]:
            if forest is None:
                forest = _forest(n)
            _search(adj, match, [v], *forest)
    return match


def maximum_matching(g: Graph) -> frozenset:
    """A maximum matching of ``g`` as a frozenset of normalized edges."""
    labels = g.vertices
    match = _maximum_matching_indices(_index_adjacency(g))
    # Indices follow label order, so (labels[i], labels[j]) with i < j is
    # already the normalized pair.
    return frozenset((labels[i], labels[j]) for i, j in enumerate(match) if j > i)


def _outer(adj, match) -> list:
    """The vertices, by index into ``adj``, that some maximum matching
    misses, given one maximum matching ``match`` (the mate of each index,
    -1 if exposed).

    Those are exactly the outer vertices of the alternating forest grown
    from all of ``match``'s exposed vertices at once (Edmonds 1965; Lovasz
    and Plummer, *Matching Theory*, ch. 3).  As the matching is maximum the
    forest never augments, so one search suffices and ``match`` is left
    unchanged.
    """
    roots = [i for i, m in enumerate(match) if m == -1]
    return _search(adj, match, roots, *_forest(len(adj)), reset=False)


def _missable(adj) -> list:
    """``_outer`` of one maximum matching of ``adj``."""
    return _outer(adj, _maximum_matching_indices(adj))


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
    if len(g.connected_components()) != 1:
        return False
    return len(_missable(_index_adjacency(g))) == g.vertex_count
