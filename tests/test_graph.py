import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import imsolve as im
from imsolve import graph as graph_module
from imsolve.errors import (
    DuplicateEdgeError,
    SelfLoopError,
    TooLargeError,
    UnknownEndpointError,
    UnknownVertexError,
)
from imsolve.graph import (
    MAX_INTERNED_VERTICES,
    Interned,
    _check_internable,
    edge,
    label_key,
    sort_labels,
)

from conftest import (
    all_labeled_graphs,
    build,
    complete,
    cycle,
    graphs,
    naive_branch_trap,
    path,
    paw_with_tail,
    random_graphs,
    triangle_star_graph,
)


def test_build_smallest():
    g = im.Graph.build({"a", "b"}, [("a", "b")])
    assert g.vertex_count == 2
    assert g.edge_count == 1
    assert g.has_edge("a", "b") and g.has_edge("b", "a")


def test_build_fig2_shape():
    g = naive_branch_trap()
    assert g.vertex_count == 9
    assert g.edge_count == 13


def test_build_rejections():
    with pytest.raises(SelfLoopError):
        im.Graph.build({"a"}, [("a", "a")])
    with pytest.raises(DuplicateEdgeError):
        im.Graph.build({"a", "b"}, [("a", "b"), ("b", "a")])
    with pytest.raises(UnknownEndpointError):
        im.Graph.build({"a", "b"}, [("a", "c")])
    with pytest.raises(UnknownEndpointError, match="'c'"):
        im.Graph.build({"a", "b"}, [("c", "a")])


def test_unknown_vertex_queries():
    g = cycle(5)
    with pytest.raises(UnknownVertexError, match="99"):
        g.neighbors(99)
    with pytest.raises(UnknownVertexError, match="99"):
        g.induced({1, 99})


def test_delete_vertices_identity_and_empty():
    g = cycle(5)
    assert g.delete_vertices(set()) == g
    assert g.delete_vertices(set(g.vertices)).vertex_count == 0
    with pytest.raises(UnknownVertexError):
        g.delete_vertices({99})


def test_interning_refuses_a_graph_past_its_cap():
    # 2**15 + 1 isolated vertices; the check runs before any mask is built,
    # and, passed to ``read_instance``, before the file's vertices are.
    text = f"p im {MAX_INTERNED_VERTICES + 1} 0 1\n"
    g = im.read_instance(text).graph
    message = r"32769 vertices exceeds the interning cap \(32768\)"
    with pytest.raises(TooLargeError, match=message):
        Interned(g)
    for text in (text, "c\n" + text):  # the bulk reader and the line loop
        with pytest.raises(TooLargeError, match=message):
            im.read_instance(text, check=_check_internable)
    with pytest.raises(TooLargeError):
        im.solve_auto(im.Instance(g, 1))


def test_delete_keeps_matching_number_on_trap():
    g = naive_branch_trap()
    h = g.delete_vertices({"s"})
    assert h.vertex_count == 8
    assert len(im.maximum_matching(h)) == 4
    assert g.vertex_count == 9  # value semantics


def test_connected_components():
    g = build(4, [(1, 2), (3, 4)])
    comps = g.connected_components()
    assert comps == (frozenset({1, 2}), frozenset({3, 4}))
    assert build(0).connected_components() == ()
    assert len(naive_branch_trap().connected_components()) == 1


def test_local_features_single_edge():
    feats = build(2, [(1, 2)]).local_features()
    assert feats.isolated_edges == ((1, 2),)
    assert feats.isolated_vertices == ()
    assert feats.pendant_triangles == ()


def test_local_features_triangle_star():
    feats = triangle_star_graph(4).local_features()
    assert len(feats.pendant_triangles) == 4
    assert all(v == "s" for _, v, _ in feats.pendant_triangles)


def test_local_features_c5_empty():
    feats = cycle(5).local_features()
    assert feats == ((), (), ())


def test_local_features_isolated_triangle():
    # all three degrees are 2: the smallest vertex is reported as survivor
    feats = complete(3).local_features()
    assert feats.pendant_triangles == ((2, 1, 3),)


def test_pendant_triangle_pairs_are_disjoint_and_hold_no_center():
    # triangle_star_parts and oracle._peel rely on this: with 2k + 1
    # vertices and k pendant triangles one vertex is left outside the
    # pairs, and it is the center of every triangle.
    specs = ("cw:u=2,w=2,p=0.5,nu=1-2,nw=0-2", "cw:u=2,w=3,p=0.4,nu=1,nw=1-2,tight")
    cw = [im.generate(spec, seed=seed) for spec in specs for seed in range(40)]
    rng = random.Random(71)
    stars = []
    for k in range(1, 6):
        g = triangle_star_graph(k)
        for _ in range(10):
            names = dict(zip(g.vertices, rng.sample(range(100), g.vertex_count)))
            names.update({v: f"v{names[v]}" for v in rng.sample(g.vertices, k)})
            stars.append(
                im.Graph.build(names.values(), [(names[u], names[v]) for u, v in g.edges()])
            )
    cases = 0
    for g in [*all_labeled_graphs(6), *random_graphs(2000, max_n=14, seed0=71), *cw, *stars]:
        triangles = g.local_features().pendant_triangles
        paired = [x for u, _, w in triangles for x in (u, w)]
        centers = {v for _, v, _ in triangles}
        assert len(set(paired)) == len(paired)
        assert not centers & set(paired)
        if triangles and g.vertex_count == 2 * len(triangles) + 1:
            assert len(centers) == 1
            cases += 1
    assert cases >= 100


def test_verify_induced_matching_cases():
    paw = paw_with_tail()
    assert im.verify_induced_matching(paw, {("b", "c"), ("x", "y")})
    assert not im.verify_induced_matching(paw, {("a", "b"), ("a", "x")})
    p4 = path(4)
    assert not im.verify_induced_matching(p4, {(1, 2), (3, 4)})
    assert im.verify_induced_matching(p4, {(1, 2)})
    assert im.verify_induced_matching(p4, set())
    with pytest.raises(UnknownEndpointError):
        im.verify_induced_matching(p4, {(1, 99)})
    with pytest.raises(UnknownEndpointError, match="99"):
        im.verify_induced_matching(p4, {(99, 1)})
    # pair that is not an edge of the host graph
    assert not im.verify_induced_matching(p4, {(1, 3)})


def _pairwise_induced(g, pairs):
    """Reference check: every pair an edge, no shared endpoint, and no edge
    between the endpoints of any two pairs."""
    pairs = [edge(u, v) for u, v in pairs]
    ends = [x for pair in pairs for x in pair]
    if len(set(ends)) != len(ends) or not all(g.has_edge(u, v) for u, v in pairs):
        return False
    for i, (a, b) in enumerate(pairs):
        for c, d in pairs[i + 1 :]:
            if any(g.has_edge(x, y) for x in (a, b) for y in (c, d)):
                return False
    return True


def _greedy_induced_matching(g, rng):
    order = g.edges()
    rng.shuffle(order)
    taken, blocked = [], set()
    for u, v in order:
        if u not in blocked and v not in blocked:
            taken.append((u, v))
            blocked |= {u, v} | g.neighbors(u) | g.neighbors(v)
    return taken


def test_verify_induced_matching_matches_pairwise_reference():
    rng = random.Random(5)
    outcomes = {True: 0, False: 0}
    for g in random_graphs(300, max_n=12, seed0=71, min_n=2):
        vs = list(g.vertices)
        es = g.edges()
        good = _greedy_induced_matching(g, rng)
        candidates = [
            good,
            [(v, u) for u, v in good],  # reversed pairs
            good + good[:1],  # a duplicated pair
            [tuple(rng.sample(vs, 2)) for _ in range(rng.randint(1, 3))],
            rng.sample(es, min(len(es), rng.randint(1, 4))),  # often not induced
        ]
        if es:
            u, v = rng.choice(es)
            w = rng.choice([x for x in vs if x not in (u, v)] or [u])
            candidates.append(good + [(u, v), (v, w)])  # shared endpoint
        for pairs in candidates:
            expected = _pairwise_induced(g, pairs)
            assert im.verify_induced_matching(g, pairs) == expected, (g.edges(), pairs)
            outcomes[expected] += 1
    assert min(outcomes.values()) >= 300


@given(graphs(max_n=7))
def test_degree_sum_is_twice_edges(g):
    assert sum(g.degree(v) for v in g.vertices) == 2 * g.edge_count


@given(graphs(max_n=7))
def test_delete_composes_over_disjoint_sets(g):
    vs = list(g.vertices)
    s1 = frozenset(vs[::3])
    s2 = frozenset(vs[1::3])
    assert g.delete_vertices(s1).delete_vertices(s2) == g.delete_vertices(s1 | s2)


@given(graphs(max_n=7))
def test_components_partition_vertices(g):
    comps = g.connected_components()
    seen = set()
    for comp in comps:
        assert not (comp & seen)
        seen |= comp
    assert seen == set(g.vertices)


@given(graphs(max_n=7))
def test_induced_matching_survives_into_host(g):
    # a certificate of an induced subgraph stays valid in the host graph
    keep = frozenset(list(g.vertices)[::2])
    sub = g.induced(keep)
    _, witness = im.brute_im(sub)
    assert im.verify_induced_matching(g, witness)


def test_label_order_is_decided_once(monkeypatch):
    g = cycle(60)
    calls = []
    real = graph_module.label_key

    def counting(label):
        calls.append(label)
        return real(label)

    monkeypatch.setattr(graph_module, "label_key", counting)
    deleted = g.delete_vertices({1, 30})
    kept = g.induced(range(10, 40))
    for h in (g, deleted, kept):
        h.local_features()
    assert calls == []
    assert deleted.vertices == tuple(v for v in range(1, 61) if v not in (1, 30))
    assert kept.vertices == tuple(range(10, 40))


@st.composite
def shuffled_mixed_graphs(draw, max_n=9):
    """(labels, edges, graph): int and str labels, built in shuffled order
    with edges given in either orientation."""
    label = st.one_of(st.integers(-30, 30), st.text("abxyz", min_size=1, max_size=3))
    labels = draw(st.permutations(draw(st.lists(label, unique=True, max_size=max_n))))
    pairs = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1 :]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in chosen]
    return labels, edges, im.Graph.build(labels, edges)


def _sorted_pairs(edges):
    return sorted(
        (edge(u, v) for u, v in edges), key=lambda e: (label_key(e[0]), label_key(e[1]))
    )


@given(shuffled_mixed_graphs(), st.data())
def test_derived_graphs_keep_label_order(case, data):
    labels, edges, g = case
    assert g.vertices == tuple(sort_labels(labels))
    assert g.edges() == _sorted_pairs(edges)
    drop = data.draw(st.sets(st.sampled_from(labels))) if labels else set()
    keep = data.draw(st.sets(st.sampled_from(labels))) if labels else set()
    for h, vs in ((g.delete_vertices(drop), set(labels) - drop), (g.induced(keep), keep)):
        assert h.vertices == tuple(sort_labels(vs))
        assert list(h) == list(h.vertices)
        assert h.edges() == _sorted_pairs((u, v) for u, v in edges if u in vs and v in vs)
