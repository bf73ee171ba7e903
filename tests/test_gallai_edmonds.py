import ast
import random
import re
from itertools import chain, combinations

import imsolve as im
from imsolve import solver
from imsolve.gallai_edmonds import (
    GEDecomposition,
    audit,
    decompose,
    decompose_mask,
    mask_matching,
)
from imsolve.graph import Interned

from conftest import (
    all_labeled_graphs,
    anchored_triangle,
    build,
    complete,
    cycle,
    mixed_labels,
    naive_branch_trap,
    random_graphs,
    star,
)


def test_star_decomposition():
    dec = decompose(star(3))
    assert dec.d == frozenset({2, 3, 4})
    assert dec.a == frozenset({1})
    assert dec.c == frozenset()
    assert dec.d_components == (frozenset({2}), frozenset({3}), frozenset({4}))


def test_perfectly_matched_clique():
    dec = decompose(complete(4))
    assert dec.d == frozenset()
    assert dec.a == frozenset()
    assert dec.c == frozenset({1, 2, 3, 4})
    assert dec.d_components == ()


def test_anchored_triangle_decomposition():
    dec = decompose(anchored_triangle())
    assert dec.d == frozenset({"a", "b", "c", "y"})
    assert dec.a == frozenset({"z"})
    assert dec.c == frozenset()
    assert dec.d_components == (frozenset({"a", "b", "c"}), frozenset({"y"}))


def test_factor_critical_graph_is_all_d():
    dec = decompose(cycle(5))
    assert dec.d == frozenset({1, 2, 3, 4, 5})
    assert dec.a == dec.c == frozenset()


def test_trap_fixture_decomposition():
    dec = decompose(naive_branch_trap())
    assert dec.d == frozenset({"s", "su", "lm", "lu", "lb", "rb1", "rb2"})
    assert dec.a == frozenset({"ru1", "ru2"})
    assert dec.c == frozenset()
    assert dec.d_components == (
        frozenset({"lb", "lm", "lu", "s", "su"}),
        frozenset({"rb1"}),
        frozenset({"rb2"}),
    )


def test_decompose_is_stable():
    for g in random_graphs(40, seed0=3):
        assert decompose(g) == decompose(g)


def test_decompose_matches_naive_definitional_test():
    # dual route for the alternating-forest membership test: recompute a
    # maximum matching from scratch for every single-vertex deletion.  The
    # sparse graphs leave many vertices exposed, so the forest has many trees.
    sparse = [
        im.gen_random(n, c / n, 100 * n + i)
        for n in range(20, 41)
        for i, c in enumerate((1, 1.5, 2, 2.5, 3))
    ]
    for g in random_graphs(250, seed0=7) + sparse:
        mm = len(im.maximum_matching(g))
        missable = frozenset(
            v
            for v in g.vertices
            if len(im.maximum_matching(g.delete_vertices({v}))) == mm
        )
        dec = decompose(g)
        assert dec.d == missable
        assert dec.a == g.neighborhood_of_set(missable)
        assert dec.c == frozenset(g.vertices) - dec.d - dec.a


def test_deficiency_formula_gives_the_matching_number():
    # solve_auto's matching bound reads mm off the decomposition:
    # 2*mm = n - #d_components + |a| (Gallai-Edmonds).
    for g in chain(all_labeled_graphs(6), random_graphs(1000, max_n=12, seed0=29)):
        dec = decompose(g)
        assert 2 * im.brute_mm(g) == g.vertex_count - len(dec.d_components) + len(dec.a)


def test_decompose_mask_agrees_with_decompose(monkeypatch):
    # The search decomposes a node on masks: d from the forest of the
    # node's own matching, a and the components by a flood fill.  That must
    # be decompose of the induced subgraph, components in the same order,
    # and the bound the search reads off the matching alone must be the
    # deficiency formula's 2*mm = n - #components + |a|, so both give the
    # same verdict at every ell.  Checked on random masks and on every
    # reduced mask solve_auto decomposes or bounds.
    visited = []
    record = solver.mask_matching

    def recorded(adj, live):
        visited.append(live)
        return record(adj, live)

    monkeypatch.setattr(solver, "mask_matching", recorded)
    rng = random.Random(107)
    nodes = 0
    for g in random_graphs(160, max_n=14, seed0=109):
        g = mixed_labels(g, rng)
        bits = Interned(g)
        n = len(bits.labels)
        visited.clear()
        for ell in (2, 3):
            solver.solve_auto(im.Instance(g, ell))
        nodes += len(visited)
        for live in visited + [rng.getrandbits(n) for _ in range(4)] + [bits.full]:
            matched = mask_matching(bits.adj, live)
            d, a, comps = decompose_mask(bits.adj, live, matched)
            dec = decompose(g.induced(bits.labels_of(live)))
            assert d == bits.mask_of(dec.d)
            assert a == bits.mask_of(dec.a)
            assert comps == list(map(bits.mask_of, dec.d_components))
            match = matched[2]
            size = live.bit_count()
            assert size - match.count(-1) == size - len(comps) + a.bit_count()
    assert nodes > 1000


def test_audit_passes_exhaustively_small():
    for g in all_labeled_graphs(4):
        report = audit(g, decompose(g))
        assert report.ok, report.failures


def test_audit_passes_on_random_graphs():
    for g in random_graphs(250, seed0=13):
        report = audit(g, decompose(g))
        assert report.ok, report.failures


def test_audit_flags_tampering():
    g = anchored_triangle()
    dec = decompose(g)
    tampered = GEDecomposition(
        d=dec.d - {"y"},
        a=dec.a | {"y"},
        c=dec.c,
        d_components=tuple(c for c in dec.d_components if "y" not in c),
    )
    report = audit(g, tampered)
    assert not report.ok
    assert not report.checks["a-is-neighborhood-of-d"]
    assert not report.checks["surplus"]


def test_audit_empty_graph_vacuous():
    g = build(0)
    report = audit(g, decompose(g))
    assert report.ok


def test_audit_flags_component_without_near_perfect_matching():
    # The three leaves of a star as one d-component: it has no edge, so no
    # matching of the star puts a pair inside it.
    g = star(3)
    dec = decompose(g)
    tampered = GEDecomposition(dec.d, dec.a, dec.c, d_components=(dec.d,))
    report = audit(g, tampered)
    assert not report.checks["maximum-matching-structure"]
    assert report.failures[-1].endswith(
        "(a matched into d: True, near-perfect on d-components: False, perfect on c: True)"
    )


def test_audit_guard():
    # 21 disjoint 3-vertex paths put 21 vertices into the separator
    labels = []
    edges = []
    for i in range(21):
        a, b, c = f"a{i}", f"b{i}", f"c{i}"
        labels += [a, b, c]
        edges += [(a, b), (b, c)]
    g = im.Graph.build(labels, edges)
    dec = decompose(g)
    assert len(dec.a) == 21
    assert audit(g, dec).ok


def test_audit_many_components(monkeypatch):
    # 300 disjoint triangles and a C_5: 301 factor-critical d-components.
    # Each component's subgraph comes from its own vertices, so the audit
    # induces on the whole graph only for d and c, not once per component.
    k = 300
    edges = [(3 * i + x, 3 * i + y) for i in range(k) for x, y in ((1, 2), (1, 3), (2, 3))]
    five = range(3 * k + 1, 3 * k + 6)
    edges += [(v, v % 5 + 3 * k + 1) for v in five]
    g = build(3 * k + 5, edges)
    dec = decompose(g)
    assert len(dec.d_components) == k + 1 and dec.d == frozenset(g.vertices)
    calls = 0
    original = im.Graph.induced

    def counted(self, keep):
        nonlocal calls
        calls += 1
        return original(self, keep)

    monkeypatch.setattr(im.Graph, "induced", counted)
    assert audit(g, dec).ok
    assert calls <= 2
    # Split the C_5 into an edge and a path: neither part is factor-critical,
    # and each is judged on its own edges only.
    c5 = frozenset(five)
    head = frozenset(five[:2])
    tampered = GEDecomposition(
        dec.d, dec.a, dec.c, dec.d_components[:-1] + (head, c5 - head)
    )
    report = audit(g, tampered)
    assert not report.checks["d-components-factor-critical"]
    assert (
        f"d-components-factor-critical: components not factor-critical: "
        f"{[list(five[:2]), list(five[2:])]}"
    ) in report.failures


def _surplus_by_enumeration(g, dec):
    """Reference: |N(X)| > |X| over every nonempty subset X of a."""
    comp = {v: j for j, c in enumerate(dec.d_components) for v in c}
    reach = {x: {comp[y] for y in g.neighbors(x) if y in comp} for x in dec.a}
    a = sorted(dec.a)
    return all(
        len(set().union(*(reach[x] for x in sub))) > size
        for size in range(1, len(a) + 1)
        for sub in combinations(a, size)
    )


def _partition(g, d):
    d = frozenset(d)
    a = g.neighborhood_of_set(d)
    c = frozenset(g.vertices) - d - a
    return GEDecomposition(d, a, c, g.induced(d).connected_components())


def test_audit_surplus_matches_subset_enumeration():
    # Every labeled graph with n <= 5 and random graphs with n <= 12, each
    # with its decomposition; the random ones also with a random d and with
    # one d-vertex moved into a.  A failure names a subset of a that
    # reaches at most as many components as it has vertices.
    rng = random.Random(29)
    cases = [(g, decompose(g)) for g in all_labeled_graphs(5)]
    for g in random_graphs(4000, max_n=12, seed0=29):
        dec = decompose(g)
        random_d = [v for v in g.vertices if rng.random() < 0.5]
        cases += [(g, dec), (g, _partition(g, random_d))]
        if dec.d:
            y = rng.choice(sorted(dec.d))
            d = dec.d - {y}
            comps = g.induced(d).connected_components()
            cases.append((g, GEDecomposition(d, dec.a | {y}, dec.c, comps)))
    failing = 0
    for g, dec in cases:
        report = audit(g, dec)
        expected = _surplus_by_enumeration(g, dec)
        assert report.checks["surplus"] == expected, (g.edges(), dec)
        if not expected:
            failing += 1
            (detail,) = [f for f in report.failures if f.startswith("surplus: ")]
            subset, count = re.fullmatch(
                r"surplus: subset (\[.*\]) reaches only (\d+) components", detail
            ).groups()
            subset = ast.literal_eval(subset)
            comp = {v: j for j, c in enumerate(dec.d_components) for v in c}
            seen = {comp[y] for x in subset for y in g.neighbors(x) if y in comp}
            assert subset and set(subset) <= dec.a
            assert len(seen) == int(count) <= len(subset)
    assert len(cases) >= 10_000 and failing >= 5_000
