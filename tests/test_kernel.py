import random
from itertools import combinations

import pytest

import imsolve as im
from imsolve import kernel
from imsolve.graph import Interned, indices
from imsolve.kernel import (
    RULE_ISOLATED_EDGE,
    RULE_ISOLATED_VERTEX,
    RULE_PENDANT_TRIANGLE,
    Answer,
    Instance,
    node_state,
    reduce_instance,
)

from conftest import (
    all_labeled_graphs,
    build,
    complete,
    cycle,
    mixed_labels,
    path,
    paw_with_tail,
    random_graphs,
    reduce_labels,
    triangle_star_graph,
)


def test_instance_rejects_negative_target():
    with pytest.raises(ValueError):
        Instance(build(1), -1)


def test_paw_with_tail_trace():
    reduced, harvested, steps = reduce_labels(Instance(paw_with_tail(), 2))
    rules = [rule for rule, _, _ in steps]
    assert rules == [RULE_PENDANT_TRIANGLE, RULE_ISOLATED_EDGE, RULE_ISOLATED_EDGE]
    assert steps[0][1] == ("a",)
    assert harvested == frozenset({("b", "c"), ("x", "y")})
    assert reduced.ell == 0
    assert reduced.graph.vertex_count == 0
    assert im.verify_induced_matching(paw_with_tail(), harvested)


def test_triangle_star_reduces_completely():
    g = triangle_star_graph(4)
    reduced, harvested, steps = reduce_labels(Instance(g, 4))
    assert reduced.ell == 0
    assert reduced.graph.vertex_count == 0
    assert len(harvested) == 4
    rules = [rule for rule, _, _ in steps]
    assert rules.count(RULE_PENDANT_TRIANGLE) == 1
    assert rules.count(RULE_ISOLATED_EDGE) == 4
    assert steps[0][1] == ("s",)
    assert im.verify_induced_matching(g, harvested)


def test_cycle_is_already_reduced():
    inst = Instance(cycle(5), 1)
    reduced, harvested, steps = reduce_labels(inst)
    assert reduced == inst
    assert harvested == frozenset()
    assert steps == ()


def test_target_floor_deletes_without_harvest():
    reduced, harvested, steps = reduce_labels(Instance(build(2, [(1, 2)]), 0))
    assert reduced.ell == 0
    assert reduced.graph.vertex_count == 0
    assert harvested == frozenset()
    assert steps == ((RULE_ISOLATED_EDGE, (1, 2), None),)


def test_isolated_vertices_removed_first_smallest_first():
    g = build(3)
    _, _, steps = reduce_labels(Instance(g, 0))
    assert steps == tuple((RULE_ISOLATED_VERTEX, (v,), None) for v in (1, 2, 3))


def test_pendant_triangle_mode_toggle():
    g = triangle_star_graph(1)  # one triangle: only the triangle rule acts
    reduced, _, _ = reduce_labels(Instance(g, 1), pendant_triangles=False)
    assert reduced.graph.vertex_count == 3
    reduced, harvested, _ = reduce_labels(Instance(g, 1))
    assert reduced.graph.vertex_count == 0
    assert len(harvested) == 1


def test_fixpoint_no_features_left():
    for g in random_graphs(200, seed0=17):
        reduced, _, _ = reduce_labels(Instance(g, 2))
        feats = reduced.graph.local_features()
        assert feats.isolated_vertices == ()
        assert feats.isolated_edges == ()
        assert feats.pendant_triangles == ()


def test_trace_harvest_bookkeeping():
    for g in random_graphs(150, seed0=29):
        for ell in (0, 1, 2, 3):
            inst = Instance(g, ell)
            reduced, harvested, steps = reduce_labels(inst)
            assert all(
                (h is not None) <= (rule == RULE_ISOLATED_EDGE) for rule, _, h in steps
            )
            assert len(harvested) == ell - reduced.ell


def test_equivalence_on_small_graphs():
    for g in all_labeled_graphs(4):
        top = (g.vertex_count + 1) // 2 + 1
        for ell in range(top + 1):
            reduced, harvested, _ = reduce_labels(Instance(g, ell))
            before = im.brute_im(g)[0] >= ell
            after = im.brute_im(reduced.graph)[0] >= reduced.ell
            assert before == after


def test_certificate_composition():
    for g in random_graphs(150, seed0=37):
        reduced, harvested, _ = reduce_labels(Instance(g, 3))
        _, witness = im.brute_im(reduced.graph)
        assert im.verify_induced_matching(g, harvested | witness)


def test_measure_never_increases():
    def measure(g, ell):
        return (im.brute_mm(g) + im.brute_is(g)) / 2 - ell

    for g in random_graphs(120, max_n=8, seed0=41):
        for ell in (1, 2):
            reduced, _, _ = reduce_labels(Instance(g, ell))
            assert measure(reduced.graph, reduced.ell) <= measure(g, ell)


def one_rule_per_scan(inst, pendant_triangles):
    """Reference kernel: rescan after every single rule application."""
    g, ell, steps, harvested = inst.graph, inst.ell, [], set()
    while True:
        feats = g.local_features()
        if feats.isolated_vertices:
            v = feats.isolated_vertices[0]
            g = g.delete_vertices({v})
            steps.append((RULE_ISOLATED_VERTEX, (v,), None))
        elif feats.isolated_edges:
            e = feats.isolated_edges[0]
            g = g.delete_vertices(e)
            if ell > 0:
                ell -= 1
                harvested.add(e)
                steps.append((RULE_ISOLATED_EDGE, e, e))
            else:
                steps.append((RULE_ISOLATED_EDGE, e, None))
        elif pendant_triangles and feats.pendant_triangles:
            _, v, _ = feats.pendant_triangles[0]
            g = g.delete_vertices({v})
            steps.append((RULE_PENDANT_TRIANGLE, (v,), None))
        else:
            return Instance(g, ell), frozenset(harvested), tuple(steps)


def triangle_chains(count, seed):
    """Disjoint triangles joined by random edges between some of their
    vertices, labelled by a shuffled mix of ints and strs.  Deleting one
    apex often makes the next pendant triangle, or leaves a triangle
    isolated, whose apex is then its smallest vertex."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        k = rng.randint(1, 8)
        labels = [v if rng.random() < 0.5 else f"v{v}" for v in range(3 * k)]
        rng.shuffle(labels)
        triangles = [labels[i : i + 3] for i in range(0, 3 * k, 3)]
        edges = {frozenset(e) for t in triangles for e in combinations(t, 2)}
        ends = [v for t in triangles for v in t[: rng.randint(0, 2)]]
        for _ in range(rng.randint(0, 2 * k) if len(ends) > 1 else 0):
            edges.add(frozenset(rng.sample(ends, 2)))
        out.append(im.Graph.build(labels, [tuple(e) for e in edges]))
    return out


def test_rounds_match_one_rule_per_scan():
    specs = ("cw:u=2,w=2,p=0.5,nu=1-2,nw=0-2", "cw:u=2,w=3,p=0.4,nu=1,nw=1-2,tight")
    cw = [im.generate(spec, seed=seed) for spec in specs for seed in range(15)]
    rng = random.Random(59)
    mixed = [mixed_labels(g, rng) for g in random_graphs(120, max_n=12, seed0=59)]
    cases = [
        (g, range(g.vertex_count // 2 + 2))
        for g in random_graphs(240, max_n=12, seed0=53) + cw + mixed + triangle_chains(150, 67)
    ]
    # Tight cw graphs of about 40-170 vertices reduce to nothing along
    # chains of pendant-triangle steps; the target only decides where
    # harvesting stops, so a few targets cover it.
    for u in range(6, 25):
        for seed in range(2):
            g = im.generate(f"cw:u={u},w={u},nu=1,nw=1-3,tight", seed=seed)
            cases.append((g, (0, 1, g.vertex_count // 4, g.vertex_count // 2 + 1)))
    for g, ells in cases:
        for ell in ells:
            for mode in (True, False):
                inst = Instance(g, ell)
                reduced, harvested, steps = reduce_labels(inst, pendant_triangles=mode)
                assert (reduced, harvested, steps) == one_rule_per_scan(inst, mode)


def test_one_scan_and_at_most_one_rebuild_per_reduction(monkeypatch):
    # Only the first round scans the whole graph, however many
    # pendant-triangle steps the reduction takes.  Each later round follows
    # one pendant-triangle step and scans only the live neighbours of a
    # deleted vertex, the apex.
    calls = 0
    scan = kernel._scan

    def counted_scan(adj, live, pendant_triangles, changed):
        nonlocal calls
        if calls == 0:
            assert changed == live
        else:
            assert any(
                not live >> v & 1 and changed == adj[v] & live for v in range(len(adj))
            )
        calls += 1
        return scan(adj, live, pendant_triangles, changed)

    monkeypatch.setattr(kernel, "_scan", counted_scan)
    cw = [im.generate("cw:u=2,w=3,p=0.4,nu=1,nw=1-2,tight", seed=s) for s in range(10)]
    tight = [im.generate("cw:u=20,w=20,nu=1,nw=1-3,tight", seed=s) for s in range(3)]
    chains = 0
    for g in random_graphs(200, max_n=12, seed0=61) + cw + tight + triangle_chains(60, 71):
        bits = Interned(g)
        for ell in range(g.vertex_count // 2 + 2):
            for mode in (True, False):
                calls = 0
                steps = reduce_instance(bits.adj, bits.full, ell, mode)[3]
                pendant_steps = [step[0] for step in steps].count(RULE_PENDANT_TRIANGLE)
                assert calls == 1 + pendant_steps
                chains += pendant_steps > 1
    assert chains > 500


def _deletions(adj, parent):
    """Every deletion mask of the forms the search's children take on the
    mask ``parent``: one vertex, two vertices, and the outside neighbourhood
    of an adjacent pair."""
    vertices = indices(parent)
    out = [1 << x for x in vertices]
    for x, y in combinations(vertices, 2):
        pair = 1 << x | 1 << y
        out.append(pair)
        if adj[x] >> y & 1 and (hood := (adj[x] | adj[y]) & parent & ~pair):
            out.append(hood)
    return out


def test_scan_of_a_deleted_vertex_neighbours_finds_every_feature():
    # A reduced mask minus a deletion mask has every feature at a neighbour
    # of the deleted vertices, so the search's children scan only those and
    # still take the steps of a whole scan: in steps, harvest, mask and
    # target.  Without pendant triangles the naive search deletes one
    # vertex; with them, on random masks reduced first, every child the
    # paper's rules can name.
    rng = random.Random(79)
    graphs = random_graphs(150, max_n=12, seed0=83)
    graphs += [mixed_labels(g, rng) for g in random_graphs(60, max_n=12, seed0=89)]
    partial = 0
    for g in graphs:
        bits = Interned(g)
        for ell in (0, 2):
            parent, _, _, _ = reduce_instance(bits.adj, bits.full, ell, False)
            for x in indices(parent):
                child = parent & ~(1 << x)
                seeded = reduce_instance(bits.adj, child, ell, False, 1 << x)
                assert seeded == reduce_instance(bits.adj, child, ell, False)
                partial += bits.adj[x] & child != child
    assert partial > 1000
    cw = [im.generate("cw:u=2,w=3,p=0.4,nu=1,nw=1-2,tight", seed=s) for s in range(10)]
    cw += [im.generate("cw:u=4,w=4,nu=1,nw=1-3,tight", seed=s) for s in range(5)]
    pendant = 0
    for g in graphs[::3] + cw + triangle_chains(150, 97):
        bits = Interned(g)
        n = len(bits.labels)
        # The whole vertex set, then masks that keep each vertex with
        # probability 3/4.
        starts = [rng.getrandbits(n) | rng.getrandbits(n) for _ in range(5)]
        for start in [bits.full] + starts:
            ell = rng.randint(0, 3)
            parent, _, _, _ = reduce_instance(bits.adj, start, ell, True)
            for deleted in _deletions(bits.adj, parent):
                child = parent & ~deleted
                seeded = reduce_instance(bits.adj, child, ell, True, deleted)
                assert seeded == reduce_instance(bits.adj, child, ell, True)
                pendant += any(step[0] == RULE_PENDANT_TRIANGLE for step in seeded[3])
    assert pendant > 500


def test_node_state_order():
    assert node_state(5, 0, 0, 0) is Answer.YES
    assert node_state(3, 2, 0, 9) is Answer.NO
    assert node_state(4, 2, 0, 9) is Answer.NO
    assert node_state(5, 2, 0, 0) is Answer.EXHAUSTED
    assert node_state(5, 2, 0, 1) is None
    # the yes check precedes the budget check
    assert node_state(0, 0, 5, 0) is Answer.YES


def test_reduced_graphs_have_no_induced_matching_on_half_their_vertices():
    # The No test n <= 2*ell rests on this: an induced matching covering
    # every vertex of a graph makes it isolated edges, which both reduction
    # modes delete, so a reduced nonempty graph has 2*im < n.
    checked = 0
    for g in random_graphs(4000, max_n=11, seed0=5000):
        bits = Interned(g)
        for pendant_triangles in (False, True):
            live = reduce_instance(bits.adj, bits.full, 1, pendant_triangles)[0]
            if live:
                h = g.delete_vertices([bits.labels[i] for i in indices(bits.full & ~live)])
                assert 2 * im.brute_im(h)[0] < live.bit_count()
                checked += 1
    assert checked >= 5000


def test_graphs_on_twice_the_target_close_at_the_root():
    # C_4, K_4 and P_4 are reduced, with 4 vertices and no induced matching
    # of size 2, so every engine answers No at the root without branching.
    for g in (cycle(4), complete(4), path(4)):
        inst = Instance(g, 2)
        for res in (im.solve_auto(inst), im.solve_imbtg(inst), im.solve_imba(inst, 0)):
            assert res.answer is Answer.NO
            assert res.stats.nodes_visited == 1
