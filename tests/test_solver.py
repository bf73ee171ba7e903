import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest

import imsolve as im
from imsolve import solver
from imsolve.errors import PreconditionViolatedError
from imsolve.gallai_edmonds import decompose
from imsolve.graph import Interned, label_key
from imsolve.kernel import Instance, node_state
from imsolve.solver import (
    Answer,
    Rule,
    _path4,
    _survivor,
    solve_auto,
    solve_imba,
    solve_imbtg,
)

from conftest import (
    all_labeled_graphs,
    anchored_triangle,
    build,
    choose_labels,
    complete,
    cycle,
    expand_labels,
    mask_of,
    naive_branch_trap,
    path,
    paw_with_tail,
    random_graphs,
    reduce_labels,
    star,
)


def bowtie():
    return im.Graph.build(
        "cdefg",
        [("c", "d"), ("c", "e"), ("d", "e"), ("c", "f"), ("c", "g"), ("f", "g")],
    )


def a_edge_graph():
    """Two adjacent separator vertices, each anchored to two triangles."""
    labels = ["p", "q"] + [f"{c}{i}" for i in (1, 2, 3, 4) for c in "xyz"]
    edges = [("p", "q")]
    for i in (1, 2, 3, 4):
        edges += [(f"x{i}", f"y{i}"), (f"y{i}", f"z{i}"), (f"x{i}", f"z{i}")]
    edges += [
        ("p", "x1"), ("p", "y1"), ("p", "x2"), ("p", "y2"),
        ("q", "x3"), ("q", "y3"), ("q", "x4"), ("q", "y4"),
    ]
    return im.Graph.build(labels, edges)


def triangle_star_component_graph():
    """A bowtie living inside d, anchored by a separator vertex a."""
    return im.Graph.build(
        "cdefgay",
        [
            ("c", "d"), ("c", "e"), ("d", "e"),
            ("c", "f"), ("c", "g"), ("f", "g"),
            ("a", "d"), ("a", "f"), ("a", "y"),
        ],
    )


# -- path and survivor helpers -------------------------------------------------


def on_labels(rule, g, component, *vertices):
    """``rule`` (``_path4`` or ``_survivor``) on labels: the component and
    the vertices go in as a mask and indices, and the result comes back as
    labels."""
    bits = Interned(g)
    found = rule(
        bits.adj,
        mask_of(bits, frozenset(component)),
        *(bits.labels.index(v) for v in vertices),
    )
    return None if found is None else tuple(map(bits.labels.__getitem__, found))


def test_find_path4_on_cycle():
    got = on_labels(_path4, cycle(5), {1, 2, 3, 4, 5})
    assert got == (5, 1, 2, 3)
    u, v, w, x = got
    g = cycle(5)
    assert g.has_edge(u, v) and g.has_edge(v, w) and g.has_edge(w, x)


def test_find_path4_star_absent():
    g = star(4)
    assert on_labels(_path4, g, set(g.vertices)) is None


def test_find_path4_on_path():
    assert on_labels(_path4, path(4), {1, 2, 3, 4}) == (1, 2, 3, 4)


def test_find_path4_small_component_absent():
    assert on_labels(_path4, cycle(3), {1, 2, 3}) is None


def test_find_path4_validity_random():
    for g in random_graphs(200, seed0=101):
        for comp in g.connected_components():
            got = on_labels(_path4, g, comp)
            if got is None:
                sub = g.induced(comp)
                assert len(comp) < 4 or all(
                    sub.degree(v) in (len(comp) - 1, 1) for v in comp
                )
                continue
            u, v, w, x = got
            assert len({u, v, w, x}) == 4
            assert {u, v, w, x} <= comp
            assert g.has_edge(u, v) and g.has_edge(v, w) and g.has_edge(w, x)


def test_find_path4_absent_at_maximum_degree_one():
    # _path4 has no degree test of its own: when no vertex of the set
    # has two neighbours in it, its outward scan finds nothing.
    assert on_labels(_path4, build(4), {1, 2, 3, 4}) is None
    assert on_labels(_path4, build(4, [(1, 2), (3, 4)]), {1, 2, 3, 4}) is None
    checked = 0
    for g in all_labeled_graphs(6, min_n=4):
        if all(g.degree(v) <= 1 for v in g.vertices):
            assert on_labels(_path4, g, g.vertices) is None
            checked += 1
    rng = random.Random(103)
    for g in random_graphs(300, max_n=12, seed0=103, min_n=4):
        keep = frozenset(rng.sample(g.vertices, rng.randint(4, g.vertex_count)))
        sub = g.induced(keep)
        if all(sub.degree(v) <= 1 for v in keep):
            assert on_labels(_path4, g, keep) is None
            checked += 1
    assert checked >= 100


def test_find_degree2_survivor():
    assert on_labels(_survivor, cycle(5), {1, 2, 3, 4, 5}, 1) == (3, 2, 4)
    assert on_labels(_survivor, cycle(7), set(range(1, 8)), 1) == (3, 2, 4)


def test_find_degree2_survivor_rejects_triangle_star():
    g = bowtie()
    with pytest.raises(PreconditionViolatedError):
        on_labels(_survivor, g, set(g.vertices), "c")


# -- rule selection -------------------------------------------------------------


def test_choose_c_vertex_on_clique():
    g = complete(4)
    assert choose_labels(g, decompose(g)) == (Rule.C_VERTEX, {"v": 1, "u": 2, "w": 3})


def test_choose_a_edge():
    g = a_edge_graph()
    assert choose_labels(g, decompose(g)) == (Rule.A_EDGE, {"u": "p", "v": "q"})


def test_choose_triangle_on_anchored_triangle():
    g = anchored_triangle()
    rule, actors = choose_labels(g, decompose(g))
    assert rule is Rule.TRIANGLE
    assert actors == {"u": "a", "v": "b", "w": "c", "ua": "z", "va": "z"}


def test_choose_triangle_star_on_anchored_bowtie():
    g = triangle_star_component_graph()
    rule, actors = choose_labels(g, decompose(g))
    assert rule is Rule.TRIANGLE_STAR
    assert actors == {
        "u": "d", "v": "f", "ua": "a", "va": "a", "uc": "e", "vc": "g",
    }


def test_choose_four_path_on_cycle():
    g = cycle(5)
    rule, actors = choose_labels(g, decompose(g))
    assert rule is Rule.FOUR_PATH
    assert actors == {
        "u": 5, "v": 1, "w": 2, "x": 3,
        "vp": 3, "v1": 2, "v2": 4,
        "wp": 4, "w1": 3, "w2": 5,
    }


def test_rule_always_found_after_reduction():
    # a reduced nonempty graph has a vertex of degree 2, so some rule fires
    for g in random_graphs(250, seed0=113):
        reduced, _, _ = reduce_labels(Instance(g, 1))
        h = reduced.graph
        if h.vertex_count == 0:
            continue
        assert max(h.degree(v) for v in h.vertices) >= 2
        rule, _ = choose_labels(h, decompose(h))
        assert isinstance(rule, Rule)


def test_three_vertex_d_components_are_anchored_triangles():
    # choose_rule tests no edges of a 3-vertex D-component: D-components
    # are factor-critical, and on three vertices that means a triangle.
    seen = 0
    for g in random_graphs(300, max_n=12, seed0=7):
        frontier = [g]
        for _ in range(3):
            children = []
            for node in frontier:
                h = reduce_labels(Instance(node, 1))[0].graph
                if h.vertex_count == 0:
                    continue
                dec = decompose(h)
                for comp in dec.d_components:
                    if len(comp) != 3:
                        continue
                    a, b, c = comp
                    assert h.has_edge(a, b) and h.has_edge(a, c) and h.has_edge(b, c)
                    assert sum(1 for x in comp if h.neighbors(x) & dec.a) >= 2
                    seen += 1
                choice = choose_labels(h, dec)
                children += [h.delete_vertices(d) for d in expand_labels(h, choice)]
            frontier = children
    assert seen >= 100


# -- expansion -------------------------------------------------------------------


def vertex_sets(g, deletions):
    return [frozenset(g.vertices) - dels for dels in deletions]


def test_expand_clique():
    g = complete(4)
    deletions = expand_labels(g, choose_labels(g, decompose(g)))
    assert deletions == [{1}, {2}, {3}]
    for dels in deletions:
        assert g.delete_vertices(dels).edge_count == 3


def test_expand_triangle_children_exact():
    g = anchored_triangle()
    deletions = expand_labels(g, choose_labels(g, decompose(g)))
    v = frozenset(g.vertices)
    assert vertex_sets(g, deletions) == [
        v - {"z"},
        v - {"a", "z"},
        v - {"a", "b"},
        v - {"a", "c"},
        v - {"b", "z"},
        v - {"b", "a"},
        v - {"b", "c"},
    ]


def test_expand_triangle_star_children_exact():
    g = triangle_star_component_graph()
    deletions = expand_labels(g, choose_labels(g, decompose(g)))
    v = frozenset(g.vertices)
    assert vertex_sets(g, deletions) == [
        v - {"a"},
        v - {"d", "f"},
        v - {"d", "a"},
        v - {"d", "g"},
        v - {"e", "f"},
        v - {"e", "a"},
        v - {"e", "g"},
    ]


def test_expand_a_edge_children():
    g = a_edge_graph()
    deletions = expand_labels(g, choose_labels(g, decompose(g)))
    v = frozenset(g.vertices)
    assert vertex_sets(g, deletions) == [
        v - {"p"},
        v - {"q"},
        v - {"x1", "y1", "x2", "y2", "x3", "y3", "x4", "y4"},
    ]


def test_expand_refuses_an_empty_neighborhood_child():
    g = build(2, [(1, 2)])
    with pytest.raises(PreconditionViolatedError):
        expand_labels(g, (Rule.A_EDGE, {"u": 1, "v": 2}))


def test_expand_four_path_spec_example():
    # explicit path (1,2,3,4) on the 5-cycle: the last child deletes the
    # outside neighborhood of the two middle vertices
    g = cycle(5)
    choice = (
        Rule.FOUR_PATH,
        {
            "u": 1, "v": 2, "w": 3, "x": 4,
            "vp": 4, "v1": 3, "v2": 5,
            "wp": 1, "w1": 2, "w2": 5,
        },
    )
    deletions = expand_labels(g, choice)
    assert len(deletions) == 7
    last = g.delete_vertices(deletions[6])
    assert frozenset(last.vertices) == frozenset({2, 3, 5})
    assert last.edges() == [(2, 3)]


# -- end-to-end solving ----------------------------------------------------------


def test_reduction_alone_solves_paw_with_tail():
    res = solve_imba(Instance(paw_with_tail(), 2), 0)
    assert res.answer is Answer.YES
    assert res.certificate == frozenset({("b", "c"), ("x", "y")})
    assert res.stats.nodes_visited == 1
    assert res.stats.max_depth == 0
    assert res.stats.branchings_by_rule == {}


def test_budget_zero_exhausts_on_cycle():
    res = solve_imba(Instance(cycle(5), 2), 0)
    assert res.answer is Answer.EXHAUSTED
    assert res.certificate is None


def test_empty_graph_zero_target():
    res = solve_imba(Instance(build(0), 0), 0)
    assert res.answer is Answer.YES
    assert res.certificate == frozenset()


def test_auto_on_cycle():
    assert solve_auto(Instance(cycle(5), 1)).answer is Answer.YES
    assert solve_auto(Instance(cycle(5), 2)).answer is Answer.NO


def test_auto_is_one_search_at_the_exhaustive_budget():
    inst = Instance(cycle(5), 2)
    auto_lines, fixed_lines = [], []
    auto = solve_auto(inst, trace=auto_lines.append)
    fixed = solve_imba(inst, 5 - 2 * 2 + 1, trace=fixed_lines.append)
    roots = [line for line in auto_lines if json.loads(line)["depth"] == 0]
    assert len(roots) == 1
    assert auto.answer is Answer.NO
    assert auto == fixed
    assert auto_lines == fixed_lines


def test_search_deeper_than_the_recursion_limit():
    inst = Instance(path(400), 1)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        res = solve_auto(inst)
    finally:
        sys.setrecursionlimit(limit)
    assert res.answer is Answer.YES
    assert res.stats.max_depth > 150


def test_children_are_built_only_when_visited(monkeypatch):
    # The search reduces a node only when it visits it, and picks a rule
    # and expands its children once per branching.  It calls each layer
    # through its module name, which is what a wrapper on that name (the
    # benchmark's spans) sees.
    calls = Counter()

    def counted(name):
        fn = getattr(solver, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(solver, name, wrapper)

    for name in ("reduce_instance", "choose_rule", "expand"):
        counted(name)
    res = solve_auto(Instance(path(200), 1))
    assert res.answer is Answer.YES
    stats = res.stats
    bound = stats.nodes_visited + sum(stats.reductions_by_rule.values())
    assert bound == 200
    assert calls["reduce_instance"] == stats.nodes_visited
    pairs = list(combinations(range(1, 17), 2))
    g = im.Graph.build(range(1, 17), random.Random(1).sample(pairs, 30))
    inst = Instance(g, im.brute_im(g)[0] + 1)
    calls.clear()
    res = solve_auto(inst)
    assert res.answer is Answer.NO
    branchings = sum(res.stats.branchings_by_rule.values())
    assert calls["reduce_instance"] == res.stats.nodes_visited
    assert calls["choose_rule"] == calls["expand"] == branchings > 10
    calls.clear()
    res = solve_imbtg(inst)
    assert res.answer is Answer.NO
    assert calls["reduce_instance"] == res.stats.nodes_visited > 100
    assert calls["choose_rule"] == calls["expand"] == 0


def test_auto_on_trap_fixture():
    res = solve_auto(Instance(naive_branch_trap(), 2))
    assert res.answer is Answer.YES
    assert len(res.certificate) == 2


def test_simple_solver_examples():
    assert solve_imbtg(Instance(paw_with_tail(), 2)).answer is Answer.YES
    assert solve_imbtg(Instance(cycle(5), 2)).answer is Answer.NO
    assert solve_imbtg(Instance(build(2, [(1, 2)]), 1)).answer is Answer.YES


def test_engines_agree_with_bruteforce_small():
    for g in all_labeled_graphs(4):
        best, _ = im.brute_im(g)
        for ell in range((g.vertex_count + 1) // 2 + 2):
            expected = best >= ell
            a = solve_auto(Instance(g, ell))
            b = solve_imbtg(Instance(g, ell))
            assert (a.answer is Answer.YES) == expected
            assert (b.answer is Answer.YES) == expected


def test_engines_agree_with_bruteforce_random():
    for g in random_graphs(250, seed0=131):
        best, _ = im.brute_im(g)
        for ell in range((g.vertex_count + 1) // 2 + 1):
            expected = best >= ell
            a = solve_auto(Instance(g, ell))
            b = solve_imbtg(Instance(g, ell))
            assert (a.answer is Answer.YES) == expected
            assert (b.answer is Answer.YES) == expected
            for res in (a, b):
                if res.answer is Answer.YES:
                    assert len(res.certificate) == ell
                    assert im.verify_induced_matching(g, res.certificate)


def test_auto_agrees_with_bruteforce_past_the_default_cap():
    # Seeded G(n, m) graphs above the oracle's default cap of 16 vertices,
    # where the search is deep enough to expose a wrong prune.
    specs = [(18, 0.2), (20, 0.2), (21, 0.18), (22, 0.15), (24, 0.15), (25, 0.12), (26, 0.1)]
    for seed, (n, p) in enumerate(specs):
        pairs = list(combinations(range(1, n + 1), 2))
        edges = random.Random(seed).sample(pairs, round(p * len(pairs)))
        g = im.Graph.build(range(1, n + 1), edges)
        best, _ = im.brute_im(g, cap=n)
        yes = solve_auto(Instance(g, best))
        assert yes.answer is Answer.YES
        assert len(yes.certificate) == best
        assert im.verify_induced_matching(g, yes.certificate)
        assert solve_auto(Instance(g, best + 1)).answer is Answer.NO


def seeded_gnm(count, seed0=0):
    """Seeded G(n, m) graphs, n cycling 6-14, m = round(p * n(n-1)/2) with
    p cycling 0.1, 0.2, 0.3."""
    out = []
    for i in range(count):
        n = 6 + i % 9
        p = (0.1, 0.2, 0.3)[i // 9 % 3]
        pairs = list(combinations(range(1, n + 1), 2))
        edges = random.Random(seed0 + i).sample(pairs, round(p * len(pairs)))
        out.append(im.Graph.build(range(1, n + 1), edges))
    return out


def test_auto_prunes_cut_only_no_subtrees():
    # The matching bound and the memo may only close nodes that the
    # unpruned search would close as No, so the first Yes leaf in preorder
    # and its certificate stay those of solve_imba at a budget that never
    # truncates it.  The totals are exact node counts and pinned as such;
    # since reduced nodes with n = 2*ell close as No in both searches, the
    # pruned search takes 0.71 of the unpruned one's nodes here.
    auto_nodes = fixed_nodes = bound_prunes = memo_hits = 0
    for g in seeded_gnm(1600):
        best, _ = im.brute_im(g)
        for ell in (best, best + 1):
            inst = Instance(g, ell)
            auto = solve_auto(inst)
            fixed = solve_imba(inst, g.vertex_count - 2 * ell + 1)
            assert (auto.answer is Answer.YES) == (ell <= best)
            assert auto.answer is fixed.answer
            assert auto.certificate == fixed.certificate
            assert auto.stats.nodes_visited <= fixed.stats.nodes_visited
            assert fixed.stats.bound_prunes == fixed.stats.memo_hits == 0
            auto_nodes += auto.stats.nodes_visited
            fixed_nodes += fixed.stats.nodes_visited
            bound_prunes += auto.stats.bound_prunes
            memo_hits += auto.stats.memo_hits
    assert bound_prunes >= 2500
    assert memo_hits >= 400
    assert (auto_nodes, fixed_nodes, bound_prunes, memo_hits) == (
        48677,
        68784,
        2597,
        1451,
    )


def test_pruned_nodes_trace_as_no_leaves():
    # A terminal No has n <= 2*ell, so the No records with n > 2*ell are
    # exactly the pruned nodes; the simple engine never prunes.
    pruned = 0
    for g in seeded_gnm(90, seed0=1000):
        best, _ = im.brute_im(g)
        inst = Instance(g, best + 1)
        lines = []
        res = solve_auto(inst, trace=lines.append)
        records = [json.loads(line) for line in lines]
        assert len(records) == res.stats.nodes_visited
        cut = [r for r in records if r["state"] == "no" and r["n"] > 2 * r["ell"]]
        assert len(cut) == res.stats.bound_prunes + res.stats.memo_hits
        for r in cut:
            assert set(r) == {"depth", "n", "ell", "state", "rule", "actors"}
            assert r["rule"] is None and r["actors"] is None
        pruned += len(cut)
        tg = solve_imbtg(inst)
        assert tg.stats.bound_prunes == tg.stats.memo_hits == 0
    assert pruned >= 100


def anchored_triangle_stars(count, seed):
    """Triangle stars attached to separator vertices with pendant tails.

    A center ``c`` with k = 2-4 triangles ``c x_i y_i`` and 1-3 separator
    vertices ``s_j``, each starting a pendant path of one or two further
    vertices.  At least two pairs are joined to the separators, each by one
    or both of its members.  At most 16 vertices.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        k = rng.randint(2, 4)
        tails = [rng.randint(1, 2) for _ in range(rng.randint(1, 3))]
        if 1 + 2 * k + len(tails) + sum(tails) > 16:
            continue
        pairs = [(f"x{i}", f"y{i}") for i in range(k)]
        labels = ["c"] + [x for pair in pairs for x in pair]
        edges = [("c", x) for pair in pairs for x in pair] + pairs
        for j, t in enumerate(tails):
            chain = [f"s{j}"] + [f"t{j}{i}" for i in range(t)]
            labels += chain
            edges += list(zip(chain, chain[1:]))
        for i in rng.sample(range(k), rng.randint(2, k)):
            for x in rng.sample(pairs[i], rng.randint(1, 2)):
                edges.append((x, f"s{rng.randrange(len(tails))}"))
        out.append(im.Graph.build(labels, edges))
    return out


def test_engines_agree_with_bruteforce_on_anchored_triangle_stars():
    branchings = 0
    for g in anchored_triangle_stars(300, seed=0):
        best, _ = im.brute_im(g)
        for ell in (best, best + 1):
            a = solve_auto(Instance(g, ell))
            b = solve_imbtg(Instance(g, ell))
            assert (a.answer is Answer.YES) == (ell <= best)
            assert (b.answer is Answer.YES) == (ell <= best)
            branchings += a.stats.branchings_by_rule.get(Rule.TRIANGLE_STAR.value, 0)
    assert branchings >= 100


def test_budget_contract_on_yes_instances():
    for g in random_graphs(150, seed0=149):
        best, _ = im.brute_im(g)
        mm, is_ = im.brute_mm(g), im.brute_is(g)
        for ell in range(best + 1):
            budget = mm + is_ - 2 * ell
            res = solve_imba(Instance(g, ell), budget)
            assert res.answer is Answer.YES
            assert res.stats.max_depth <= budget


def test_yes_instance_at_budget_boundary_has_collapsed_invariants():
    # a node reached after spending the whole (oracle-exact) budget can
    # only still be a yes-instance when matching number, independence
    # number and induced matching number all coincide with the target
    hits = 0

    def visit(inst, depth, budget):
        nonlocal hits
        if depth == budget:
            size, _ = im.brute_im(inst.graph)
            if size >= inst.ell:
                hits += 1
                mm = im.brute_mm(inst.graph)
                is_ = im.brute_is(inst.graph)
                assert mm == is_ == size == inst.ell
            return
        reduced, _, _ = reduce_labels(inst)
        state = node_state(reduced.graph.vertex_count, reduced.ell, depth, budget)
        if state is not None:
            return
        choice = choose_labels(reduced.graph, decompose(reduced.graph))
        for dels in expand_labels(reduced.graph, choice):
            child = Instance(reduced.graph.delete_vertices(dels), reduced.ell)
            visit(child, depth + 1, budget)

    for g in random_graphs(60, max_n=7, seed0=163):
        best, _ = im.brute_im(g)
        for ell in range(1, best + 1):
            budget = im.brute_mm(g) + im.brute_is(g) - 2 * ell
            visit(Instance(g, ell), 0, budget)
    assert hits > 0


def test_stats_are_populated():
    res = solve_auto(Instance(cycle(7), 2))
    assert res.answer is Answer.YES
    assert res.stats.nodes_visited >= 1
    assert sum(res.stats.branchings_by_rule.values()) >= 0


def test_reductions_alone_solve_tight_instances_at_scale():
    # for graphs whose induced matching number reaches half of
    # (matching number + independence number), asking for exactly that
    # value must be settled by the reductions, with no branching at all,
    # even well beyond oracle size
    from imsolve.oracle import TIGHT_PENDANT_BIPARTITE, classify_tight

    for seed in range(8):
        g = im.generate("cw:u=4,w=4,p=0.4,nu=1,nw=1-3,tight", seed=seed)
        assert g.vertex_count >= 20
        shape = classify_tight(g)
        assert shape.kind == TIGHT_PENDANT_BIPARTITE
        target = (g.vertex_count - len(shape.w_side)) // 2
        res = solve_imba(Instance(g, target), 0)
        assert res.answer is Answer.YES
        assert res.stats.branchings_by_rule == {}
        assert len(res.certificate) == target
        # one more than the optimum must come back definitively negative
        assert solve_auto(Instance(g, target + 1)).answer is Answer.NO


def test_trace_stream_is_deterministic_jsonl():
    def run():
        lines = []
        solve_imba(Instance(cycle(5), 2), 1, trace=lines.append)
        return lines

    first, second = run(), run()
    assert first == second
    assert len(first) >= 2
    for line in first:
        record = json.loads(line)
        assert set(record) == {"depth", "n", "ell", "state", "rule", "actors"}
    root = json.loads(first[0])
    assert root["depth"] == 0
    assert root["rule"] == "four-path"


def test_unpruned_searches_are_unchanged():
    # solve_imba at budget 1 and at n - 2*ell + 1, and solve_imbtg, on 40
    # seeded G(n, m) graphs (n 8-13, p .15/.25/.35) each at ell = im and
    # im + 1, pinned exactly: every run's answer, sorted certificate, stats
    # and trace lines, 5,435 lines in all.  The digest was recorded when
    # reduced nodes with n = 2*ell began to close as No, which changes the
    # unpruned searches too.  solve_auto is left out, as new prunes change
    # its search by design.
    digest = hashlib.sha256()
    for i in range(40):
        n = 8 + i % 6
        p = (0.15, 0.25, 0.35)[i // 6 % 3]
        pairs = list(combinations(range(1, n + 1), 2))
        edges = random.Random(500 + i).sample(pairs, round(p * len(pairs)))
        g = im.Graph.build(range(1, n + 1), edges)
        best, _ = im.brute_im(g)
        for ell in (best, best + 1):
            inst = Instance(g, ell)
            runs = (
                lambda trace: solve_imba(inst, 1, trace=trace),
                lambda trace: solve_imba(inst, max(0, n - 2 * ell + 1), trace=trace),
                lambda trace: solve_imbtg(inst, trace=trace),
            )
            for run in runs:
                lines = []
                res = run(lines.append)
                lines[:0] = [
                    res.answer.value,
                    json.dumps(sorted(res.certificate or ())),
                    json.dumps(vars(res.stats), sort_keys=True),
                ]
                for line in lines:
                    digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == (
        "556d68058de6abd700e584c411338d22d028de91896548fbb1dbde71208c2c05"
    )


def relabelled(g, name):
    return im.Graph.build(map(name, g.vertices), [(name(a), name(b)) for a, b in g.edges()])


def seeded_gnm_graph(n, p, seed):
    pairs = list(combinations(range(1, n + 1), 2))
    edges = random.Random(seed).sample(pairs, round(p * len(pairs)))
    return im.Graph.build(range(1, n + 1), edges)


def test_pruned_search_is_unchanged():
    # solve_auto at ell = im and im + 1, pinned exactly: every run's
    # answer, sorted certificate, stats (bound_prunes and memo_hits
    # included) and trace lines.  The inputs are 27 seeded G(n, m) graphs
    # (n 8-16, p .15/.25/.35), 8 tight cw graphs (the pendant-triangle
    # path; im is their matching number), 20 anchored triangle stars, and
    # 12 G(n, m) graphs with about half their vertices renamed to strs.
    # The digest was recorded when reduced nodes with n = 2*ell began to
    # close as No.
    graphs = [
        (g, im.brute_im(g)[0])
        for g in [seeded_gnm_graph(8 + i % 9, (0.15, 0.25, 0.35)[i // 9], 700 + i) for i in range(27)]
        + anchored_triangle_stars(20, seed=9)
    ]
    for s in range(8):
        g = im.generate("cw:u=3,w=4,p=0.4,nu=1,nw=1-2,tight", seed=s)
        graphs.append((g, len(im.maximum_matching(g))))
    rng = random.Random(11)
    for i in range(12):
        g = seeded_gnm_graph(9 + i % 4, 0.25, 800 + i)
        strs = {v for v in g.vertices if rng.random() < 0.5}
        mixed = relabelled(g, lambda v: f"v{v}" if v in strs else v)
        graphs.append((mixed, im.brute_im(mixed)[0]))
    digest = hashlib.sha256()
    for g, best in graphs:
        for ell in (best, best + 1):
            lines = []
            res = solve_auto(Instance(g, ell), trace=lines.append)
            cert = sorted(res.certificate or (), key=lambda e: (label_key(e[0]), label_key(e[1])))
            lines[:0] = [
                res.answer.value,
                json.dumps(cert),
                json.dumps(vars(res.stats), sort_keys=True),
            ]
            for line in lines:
                digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == (
        "663f13b7e5841c1a8bc4e1280aff3ca557121bf03c0f3b647bdf3c37adb3f72d"
    )


def anchored_stars(count, seed):
    """Triangle stars whose every pendant pair is anchored to separators.

    A center ``c`` with k = 2-4 triangles ``c x_i y_i`` and 1-3 separator
    vertices ``s_j``, each with two pendant leaves; one or both members of
    every pair are joined to separators, so no pendant triangle is left for
    the reduction and the star is a D-component.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        k, r = rng.randint(2, 4), rng.randint(1, 3)
        pairs = [(f"x{i}", f"y{i}") for i in range(k)]
        labels = ["c"] + [x for pair in pairs for x in pair]
        edges = [("c", x) for pair in pairs for x in pair] + pairs
        for j in range(r):
            labels += [f"s{j}", f"l{j}a", f"l{j}b"]
            edges += [(f"s{j}", f"l{j}a"), (f"s{j}", f"l{j}b")]
        for pair in pairs:
            for x in rng.sample(pair, rng.randint(1, 2)):
                edges.append((x, f"s{rng.randrange(r)}"))
        out.append(im.Graph.build(labels, edges))
    return out


def hung_odd_cycles(count, seed):
    """Two or three copies of C_3, C_5 or C_7 hung on 1-3 separator
    vertices, each separator with two pendant leaves and sometimes joined to
    the next one.  A triangle hangs by two of its vertices, a longer cycle
    by one or two."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        k = rng.randint(1, 3)
        labels = [f"s{j}" for j in range(k)] + [f"l{j}{x}" for j in range(k) for x in "ab"]
        edges = [(f"s{j}", f"s{j + 1}") for j in range(k - 1) if rng.random() < 0.3]
        edges += [(f"s{j}", f"l{j}{x}") for j in range(k) for x in "ab"]
        for c in range(rng.randint(2, 3)):
            size = rng.choice((3, 3, 5, 7))
            cyc = [f"c{c}_{i}" for i in range(size)]
            labels += cyc
            edges += [(cyc[i], cyc[(i + 1) % size]) for i in range(size)]
            for x in rng.sample(cyc, 2 if size == 3 else rng.randint(1, 2)):
                edges.append((x, f"s{rng.randrange(k)}"))
        out.append(im.Graph.build(labels, edges))
    return out


def test_rule_choice_is_unchanged():
    # choose_rule and expand on the reduced nonempty nodes of the first
    # three levels of the paper's search tree, pinned exactly: every rule,
    # its actors and its deletion sets.  The inputs are 120 anchored
    # triangle stars, 60 graphs of odd cycles hung on separators and 30
    # G(n, m) graphs (n 10-16), so each of the six rules fires at least 100
    # times.  The digest was recorded before the rules ran on bitmasks.
    graphs = (
        anchored_stars(120, seed=21)
        + hung_odd_cycles(60, seed=22)
        + [seeded_gnm_graph(10 + i % 7, (0.15, 0.25, 0.35)[i % 3], 900 + i) for i in range(30)]
    )
    digest = hashlib.sha256()
    fired = Counter()
    for g in graphs:
        frontier = [g]
        for _ in range(3):
            children = []
            for node in frontier:
                h = reduce_labels(Instance(node, 1))[0].graph
                if h.vertex_count == 0:
                    continue
                rule, actors = choose_labels(h, decompose(h))
                deletions = expand_labels(h, (rule, actors))
                fired[rule.value] += 1
                line = json.dumps(
                    [
                        rule.value,
                        sorted(actors.items()),
                        [sorted(d, key=label_key) for d in deletions],
                    ]
                )
                digest.update(line.encode() + b"\n")
                children += [h.delete_vertices(d) for d in deletions]
            frontier = children
    assert min(fired[rule.value] for rule in Rule if rule is not Rule.NAIVE) >= 100
    assert digest.hexdigest() == (
        "a49465a1ab709df4b566d891343c8cfdd42dc49c30a61a7947cfbf0121812800"
    )


_TRACE_DIGEST = """
import hashlib, random, sys
from itertools import combinations
import imsolve as im
from imsolve.graph import label_key
digest = hashlib.sha256()
for i in range(24):
    n = 10 + i % 7
    pairs = list(combinations(range(n), 2))
    edges = random.Random(1200 + i).sample(pairs, round((0.2, 0.3)[i % 2] * len(pairs)))
    # Odd vertices get str labels, so label order mixes both types.
    name = lambda v: f"v{v}" if v % 2 else v
    g = im.Graph.build(map(name, range(n)), [(name(a), name(b)) for a, b in edges])
    best, _ = im.brute_im(g)
    for ell in (best, best + 1):
        inst = im.Instance(g, ell)
        for run in (
            lambda trace: im.solve_auto(inst, trace=trace),
            lambda trace: im.solve_imba(inst, 2, trace=trace),
        ):
            lines = []
            res = run(lines.append)
            cert = sorted(res.certificate or (), key=lambda e: (label_key(e[0]), label_key(e[1])))
            lines += [res.answer.value, repr(cert)]
            for line in lines:
                digest.update(line.encode() + b"\\n")
print(digest.hexdigest())
"""


def test_search_does_not_depend_on_the_hash_seed():
    # Iterating a set of labels follows the hash seed, so any such order
    # leaking into the search would change its trace between processes.
    src = str(Path(im.__file__).resolve().parents[1])
    digests = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", _TRACE_DIGEST],
            env=env, capture_output=True, text=True, check=True,
        )
        digests.add(out.stdout.strip())
    assert len(digests) == 1


def test_disjoint_union_of_int_and_str_labelled_graphs():
    # im(G + H) = im(G) + im(H); the union mixes int and str labels, so
    # interning orders and indexes both label types.  Up to n = 24 brute_im
    # gives each part's im; at n 30-60, past the oracle cap, the solve_auto
    # ladder does, and solve_imbtg runs only up to n = 40.
    small = [(8, 12), (10, 10), (12, 9), (11, 12), (12, 12), (9, 8)]
    pairs = [
        (seeded_gnm_graph(n_g, 0.3, 40 + i), seeded_gnm_graph(n_h, 0.25, 60 + i))
        for i, (n_g, n_h) in enumerate(small)
    ] + [(sparse_gnm(n, 7000 + n), sparse_gnm(n, 8000 + n)) for n in range(15, 31, 3)]
    for g, h in pairs:
        h = relabelled(h, lambda v: f"h{v}")
        union = im.Graph.build(g.vertices + h.vertices, g.edges() + h.edges())
        n = union.vertex_count
        part_im = (lambda x: im.brute_im(x)[0]) if n <= 24 else im_by_ladder
        best = part_im(g) + part_im(h)
        for solve in (solve_auto, solve_imbtg) if n <= 40 else (solve_auto,):
            yes = solve(Instance(union, best))
            assert yes.answer is Answer.YES
            assert len(yes.certificate) == best
            assert im.verify_induced_matching(union, yes.certificate)
            assert solve(Instance(union, best + 1)).answer is Answer.NO


def sparse_gnm(n, seed):
    """Seeded G(n, m) on 1..n with m = round(0.8 n): sparse enough that
    solve_auto decides it in milliseconds at n up to 60."""
    pairs = list(combinations(range(1, n + 1), 2))
    return im.Graph.build(range(1, n + 1), random.Random(seed).sample(pairs, round(0.8 * n)))


def im_by_ladder(g):
    """im(g) as the last ell at which solve_auto says yes, asking at
    ell = 1, 2, ... and verifying each yes's certificate."""
    ell = 1
    while (res := solve_auto(Instance(g, ell))).answer is Answer.YES:
        assert len(res.certificate) == ell
        assert im.verify_induced_matching(g, res.certificate)
        ell += 1
    return ell - 1


def test_metamorphic_relations_past_the_oracle_cap():
    # No oracle reaches n 30-60, but the answers must still fit together:
    # yes up to some ell and no from there on, each yes with a verified
    # certificate; the same answers after relabelling the vertices at
    # random to mixed int and str labels; and, at n = 30, the answer and
    # certificate of the unpruned solve_imba at the exhaustive budget.
    rng = random.Random(113)
    for n in range(30, 61, 6):
        for seed in (1, 2):
            g = sparse_gnm(n, 100 * n + seed)
            best = im_by_ladder(g)
            assert best >= 6
            assert solve_auto(Instance(g, best + 2)).answer is Answer.NO
            shuffled = list(g.vertices)
            rng.shuffle(shuffled)
            name = {
                v: x if rng.random() < 0.5 else f"v{x}" for v, x in zip(g.vertices, shuffled)
            }
            h = relabelled(g, name.__getitem__)
            yes = solve_auto(Instance(h, best))
            assert yes.answer is Answer.YES
            assert im.verify_induced_matching(h, yes.certificate)
            assert solve_auto(Instance(h, best + 1)).answer is Answer.NO
            if n == 30:
                for target in (best, best + 1):
                    inst = Instance(g, target)
                    auto = solve_auto(inst)
                    fixed = solve_imba(inst, n - 2 * target + 1)
                    assert (auto.answer, auto.certificate) == (fixed.answer, fixed.certificate)
