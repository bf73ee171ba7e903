import hashlib
import random
from itertools import combinations

import imsolve as im
from imsolve import matching
from imsolve.gallai_edmonds import decompose
from imsolve.graph import label_key, sort_labels

from conftest import (
    all_labeled_graphs,
    build,
    complete,
    cycle,
    is_connected,
    naive_branch_trap,
    path,
    random_graphs,
    triangle_star_graph,
)


def test_sizes_on_landmarks():
    assert len(im.maximum_matching(cycle(5))) == 2
    assert len(im.maximum_matching(naive_branch_trap())) == 4
    assert len(im.maximum_matching(complete(4))) == 2
    assert im.maximum_matching(build(0)) == frozenset()


def test_matching_edges_are_disjoint_and_real():
    for g in random_graphs(150, seed0=11):
        m = im.maximum_matching(g)
        seen = set()
        for u, v in m:
            assert g.has_edge(u, v)
            assert u not in seen and v not in seen
            seen |= {u, v}


def test_agrees_with_bruteforce_exhaustively():
    for g in all_labeled_graphs(5):
        assert len(im.maximum_matching(g)) == im.brute_mm(g)


def test_agrees_with_bruteforce_randomly():
    for g in random_graphs(400, seed0=23):
        assert len(im.maximum_matching(g)) == im.brute_mm(g)


def test_deterministic():
    for g in random_graphs(40, seed0=5):
        assert im.maximum_matching(g) == im.maximum_matching(g)


def test_deletion_monotonicity():
    for g in random_graphs(120, seed0=31):
        mm = len(im.maximum_matching(g))
        for v in g.vertices:
            after = len(im.maximum_matching(g.delete_vertices({v})))
            assert after in (mm, mm - 1)


def test_separator_and_core_vertices_always_matched():
    # deleting a vertex of a or c drops the matching number
    for g in random_graphs(120, seed0=47):
        mm = len(im.maximum_matching(g))
        dec = decompose(g)
        for v in dec.a | dec.c:
            assert len(im.maximum_matching(g.delete_vertices({v}))) == mm - 1


def test_two_deletions_in_a_nontrivial_d_component():
    from itertools import combinations

    for g in random_graphs(120, seed0=59):
        mm = len(im.maximum_matching(g))
        dec = decompose(g)
        for comp in dec.d_components:
            if len(comp) < 3:
                continue
            for u, v in combinations(sorted(comp, key=str), 2):
                assert len(im.maximum_matching(g.delete_vertices({u, v}))) <= mm - 1


def test_factor_critical():
    assert im.is_factor_critical(cycle(5))
    assert not im.is_factor_critical(complete(4))
    assert im.is_factor_critical(triangle_star_graph(4))
    assert not im.is_factor_critical(build(0))
    assert im.is_factor_critical(build(1))
    assert not im.is_factor_critical(path(4))
    assert not im.is_factor_critical(path(3))  # deleting 2 leaves no edge
    assert not im.is_factor_critical(build(3, [(1, 2)]))  # disconnected


def test_factor_critical_agrees_with_definition():
    # The definition, from the brute-force oracle: connected, and a perfect
    # matching of g - v for every vertex v.
    def by_definition(g):
        n = g.vertex_count
        return (
            n > 0
            and is_connected(g)
            and all(2 * im.brute_mm(g.delete_vertices({v})) == n - 1 for v in g.vertices)
        )

    positives = 0
    for g in [*all_labeled_graphs(5), *random_graphs(1000, max_n=12, seed0=83)]:
        expected = by_definition(g)
        assert im.is_factor_critical(g) == expected
        positives += expected
    assert positives > 100


def test_no_forest_is_grown_from_an_isolated_vertex(monkeypatch):
    # The greedy pass leaves 3 of the triangle and every isolated vertex
    # exposed; only 3 has a neighbour, so only 3 starts an alternating
    # forest.
    calls = 0
    search = matching._search

    def counting(*args):
        nonlocal calls
        calls += 1
        return search(*args)

    monkeypatch.setattr(matching, "_search", counting)
    g = build(10, [(1, 2), (2, 3), (1, 3)])
    assert len(im.maximum_matching(g)) == 1
    assert calls == 1


def test_forest_arrays_are_allocated_only_for_a_search(monkeypatch):
    # On the 1,200-vertex path at ell = 1 the search branches at 599 nodes,
    # each a path on an even number of vertices that the greedy pass
    # matches completely.  So a node's matching allocates no forest, and
    # only the forest the decomposition reads d from does.
    calls = 0
    forest = matching._forest

    def counting(n):
        nonlocal calls
        calls += 1
        return forest(n)

    monkeypatch.setattr(matching, "_forest", counting)
    result = im.solve_auto(im.Instance(path(1200), 1))
    assert result.answer is im.Answer.YES
    assert calls == 599


def _golden_graphs():
    """Seeded sparse G(n, c/n) up to n = 600, 300 disjoint triangles plus a
    C_5, and 200 small G(n, p) whose labels mix ints and strings."""
    for i, (n, c) in enumerate(
        (n, c) for n in (50, 150, 300, 600) for c in (0.8, 1.5, 2.0, 3.0)
    ):
        rng = random.Random(900 + i)
        edges = set()
        while len(edges) < round(c * n / 2):
            u, v = sorted(rng.sample(range(1, n + 1), 2))
            edges.add((u, v))
        yield im.Graph.build(range(1, n + 1), sorted(edges))
    k = 300
    triangles = [(3 * t + a, 3 * t + b) for t in range(k) for a, b in ((1, 2), (2, 3), (1, 3))]
    c5 = [(3 * k + 1 + j, 3 * k + 1 + (j + 1) % 5) for j in range(5)]
    yield im.Graph.build(range(1, 3 * k + 6), triangles + c5)
    for i in range(200):
        rng = random.Random(1300 + i)
        n = rng.randint(1, 16)
        labels = [j if j % 2 else f"v{j}" for j in range(n)]
        p = rng.choice((0.1, 0.2, 0.3, 0.5, 0.7))
        edges = [e for e in combinations(labels, 2) if rng.random() < p]
        yield im.Graph.build(labels, edges)


def test_matching_and_decomposition_are_pinned():
    # The matching found and the whole decomposition, byte for byte; the
    # digest was recorded before the forest searches shared their arrays.
    digest = hashlib.sha256()
    for g in _golden_graphs():
        dec = decompose(g)
        record = (
            sorted(im.maximum_matching(g), key=lambda e: (label_key(e[0]), label_key(e[1]))),
            sort_labels(dec.d),
            sort_labels(dec.a),
            sort_labels(dec.c),
            [sort_labels(comp) for comp in dec.d_components],
        )
        digest.update(repr(record).encode() + b"\n")
    assert digest.hexdigest() == (
        "fc28083b4e81f715bd9096b208d9011b5ae0db8a891cb90f050eae86d4c663b1"
    )
