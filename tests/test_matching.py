import imsolve as im
from imsolve import matching
from imsolve.gallai_edmonds import decompose

from conftest import (
    all_labeled_graphs,
    build,
    complete,
    cycle,
    is_connected,
    path,
    random_graphs,
)


def test_sizes_on_landmarks():
    assert len(im.maximum_matching(cycle(5))) == 2
    assert len(im.maximum_matching(im.naive_branch_trap())) == 4
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
    assert im.is_factor_critical(im.triangle_star_graph(4))
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

    def counting(adj, match, roots):
        nonlocal calls
        calls += 1
        return search(adj, match, roots)

    monkeypatch.setattr(matching, "_search", counting)
    g = build(10, [(1, 2), (2, 3), (1, 3)])
    assert len(im.maximum_matching(g)) == 1
    assert calls == 1
