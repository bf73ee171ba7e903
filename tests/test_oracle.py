import random
import re
import sys
from itertools import combinations

import pytest

import imsolve as im
from imsolve.errors import DisconnectedError, TooLargeError
from imsolve.graph import label_key, sort_labels
from imsolve.oracle import (
    ISOLATED_EDGE,
    NOT_CAMERON_WALKER,
    NOT_TIGHT,
    PENDANT_BIPARTITE,
    STAR,
    TIGHT_PENDANT_BIPARTITE,
    TRIANGLE_STAR,
    _peel,
    classify_tight,
    is_star,
    is_triangle_star,
    parameters,
    recognize_cameron_walker,
    triangle_star_parts,
)

from conftest import (
    all_labeled_graphs,
    build,
    complete,
    cycle,
    is_connected,
    naive_branch_trap,
    path,
    paw_with_tail,
    random_bipartite,
    random_graphs,
    star,
    triangle_star_graph,
)


def tight_fixture():
    """Core edge u1-w1 with one pendant on u1 and one pendant triangle on w1."""
    return im.Graph.build(
        ["u1", "w1", "p", "t1", "t2"],
        [("u1", "w1"), ("u1", "p"), ("w1", "t1"), ("w1", "t2"), ("t1", "t2")],
    )


def test_brute_im_landmarks():
    assert im.brute_im(cycle(5))[0] == 1
    size, witness = im.brute_im(path(5))
    assert size == 2
    assert witness == frozenset({(1, 2), (4, 5)})
    assert im.brute_im(build(2, [(1, 2)])) == (1, frozenset({(1, 2)}))
    assert im.brute_im(build(0)) == (0, frozenset())


def test_brute_im_witness_verifies():
    for g in random_graphs(200, seed0=211):
        size, witness = im.brute_im(g)
        assert len(witness) == size
        assert im.verify_induced_matching(g, witness)


def test_brute_counts_landmarks():
    fig2 = naive_branch_trap()
    assert im.brute_is(fig2) == 4
    assert im.brute_is(complete(4)) == 1
    assert im.brute_vc(complete(4)) == 3
    assert im.brute_ds(complete(3)) == 1
    assert im.brute_ds(build(0)) == 0
    assert im.brute_ds(build(4)) == 4  # edgeless: every vertex dominates itself


def test_caps_are_enforced():
    big = build(17)
    for fn in (im.brute_is, im.brute_vc, im.brute_ds, im.brute_mm):
        with pytest.raises(TooLargeError):
            fn(big)
    with pytest.raises(TooLargeError):
        im.brute_im(big)
    assert im.brute_is(big, cap=17) == 17


def test_caps_stop_short_of_the_recursion_limit():
    # One recursion level per chosen edge or removed vertex: a long path or a
    # big star would overflow Python's stack under any cap, so a graph past
    # half the recursion limit is refused before the enumeration starts.
    depth = sys.getrecursionlimit() // 2
    big = path(depth + 1)
    message = f"{depth + 1} vertices exceeds the brute-force recursion cap ({depth})"
    for fn in (im.brute_im, im.brute_mm, im.brute_is, im.brute_vc, im.brute_ds):
        with pytest.raises(TooLargeError, match=re.escape(message)):
            fn(big, cap=10 * depth)
    with pytest.raises(TooLargeError, match=re.escape(message)):
        parameters(star(depth), 0, cap=10 * depth)


def test_parameters_landmarks():
    rep = parameters(paw_with_tail(), 2)
    assert (rep.mm, rep.is_, rep.im) == (2, 2, 2)
    assert rep.k_avg == 0 and rep.budget == 0
    rep = parameters(cycle(5), 1)
    assert (rep.mm, rep.is_, rep.im) == (2, 2, 1)
    assert rep.k_avg == 1 and rep.budget == 2
    rep = parameters(build(0), 0)
    assert (rep.mm, rep.is_, rep.im, rep.vc, rep.k_trivial) == (0, 0, 0, 0, 0)


def test_parameter_invariant_chain():
    for g in random_graphs(250, seed0=223):
        rep = parameters(g, 1)
        n = g.vertex_count
        assert rep.im <= rep.mm
        assert rep.im <= rep.is_
        assert 2 * rep.im <= rep.mm + rep.is_ <= rep.vc + rep.is_ <= n
        assert rep.vc + rep.is_ == n
        assert rep.mm <= rep.vc


def test_konig_cross_check():
    for g in random_bipartite(150, seed0=227):
        assert im.brute_vc(g) == len(im.maximum_matching(g))


def test_measure_helper():
    # The potential (mm + is)/2 - ell, from the brute-force oracles.
    def measure(g, ell):
        return (im.brute_mm(g) + im.brute_is(g)) / 2 - ell

    assert measure(cycle(5), 1) == 1.0
    assert measure(paw_with_tail(), 2) == 0.0


def test_shape_predicates():
    assert is_star(star(5)) and is_star(build(1)) and is_star(build(2, [(1, 2)]))
    assert not is_star(cycle(3))
    assert is_triangle_star(cycle(3))
    assert is_triangle_star(triangle_star_graph(2))  # bowtie
    assert is_triangle_star(triangle_star_graph(4))
    assert not is_triangle_star(complete(4))
    assert not is_triangle_star(star(4))
    assert not is_triangle_star(path(5))


def test_triangle_star_parts():
    for g in (complete(4), star(4), path(5), cycle(5)):
        assert triangle_star_parts(g) is None
    assert triangle_star_parts(cycle(3)) == (1, ((2, 3),))
    assert triangle_star_parts(triangle_star_graph(2)) == (
        "s",
        (("u1", "w1"), ("u2", "w2")),
    )


def reference_triangle_star_parts(g):
    """Some vertex c is adjacent to all others and G - c is a nonempty
    disjoint union of edges; for a triangle, c is its smallest vertex.
    Pairs are sorted by their smaller endpoint."""
    for c in sort_labels(g.vertices):
        if g.degree(c) != g.vertex_count - 1:
            continue
        rest = g.delete_vertices({c})
        if rest.vertex_count and all(rest.degree(x) == 1 for x in rest.vertices):
            pairs = {tuple(sort_labels((x, *rest.neighbors(x)))) for x in rest.vertices}
            return c, tuple(sorted(pairs, key=lambda pair: label_key(pair[0])))
    return None


def test_triangle_star_parts_matches_reference_on_small_graphs():
    rng = random.Random(71)
    stars = 0
    for g in all_labeled_graphs(6):
        want = reference_triangle_star_parts(g)
        assert triangle_star_parts(g) == want
        stars += want is not None
        keep = [v for v in g.vertices if rng.random() < 0.7]
        want = reference_triangle_star_parts(g.induced(keep))
        assert triangle_star_parts(g.induced(keep)) == want
    assert stars == 1 + 5 * 3  # the triangle and the labeled bowties


def test_triangle_star_parts_matches_reference_on_perturbed_stars():
    rng = random.Random(73)
    for k in range(1, 6):
        for _ in range(10):
            labels = rng.sample(list(range(20)) + [f"v{i}" for i in range(20)], 2 * k + 1)
            center, outer = labels[0], labels[1:]
            edges = {frozenset((center, x)) for x in outer}
            edges |= {frozenset(outer[i : i + 2]) for i in range(0, 2 * k, 2)}
            non_edges = [
                frozenset(e) for e in combinations(labels, 2) if frozenset(e) not in edges
            ]
            variants = [edges] + [edges - {e} for e in edges] + [edges | {e} for e in non_edges]
            for variant in variants:
                pairs = [tuple(e) for e in variant]
                rng.shuffle(pairs)
                shuffled = rng.sample(labels, len(labels))
                g = im.Graph.build(shuffled, pairs)
                assert triangle_star_parts(g) == reference_triangle_star_parts(g)
                assert (triangle_star_parts(g) is not None) == (variant is edges)


def test_recognize_landmarks():
    assert recognize_cameron_walker(star(5)).kind == STAR
    assert recognize_cameron_walker(triangle_star_graph(4)).kind == TRIANGLE_STAR
    assert recognize_cameron_walker(cycle(5)).kind == NOT_CAMERON_WALKER
    got = recognize_cameron_walker(path(5))
    assert got.kind == PENDANT_BIPARTITE
    assert got.u_side == frozenset({2, 4})
    assert got.w_side == frozenset({3})
    with pytest.raises(DisconnectedError):
        recognize_cameron_walker(build(3, [(1, 2)]))


def test_classify_tight_landmarks():
    assert classify_tight(build(2, [(1, 2)])).kind == ISOLATED_EDGE
    got = classify_tight(triangle_star_graph(4))
    assert got.kind == TRIANGLE_STAR
    rep = parameters(triangle_star_graph(4), 0)
    assert rep.mm == rep.is_ == rep.im == 4
    got = classify_tight(tight_fixture())
    assert got.kind == TIGHT_PENDANT_BIPARTITE
    assert got.u_side == frozenset({"u1"})
    assert got.w_side == frozenset({"w1"})
    rep = parameters(tight_fixture(), 0)
    assert rep.mm == rep.is_ == rep.im == 2
    assert classify_tight(path(3)).kind == NOT_TIGHT
    assert classify_tight(cycle(5)).kind == NOT_TIGHT


def test_recognizer_matches_oracles_exhaustively():
    for g in all_labeled_graphs(5, min_n=1):
        if not is_connected(g):
            continue
        structural = recognize_cameron_walker(g).kind != NOT_CAMERON_WALKER
        assert structural == (im.brute_mm(g) == im.brute_im(g)[0])


def test_tightness_matches_oracles_exhaustively():
    for g in all_labeled_graphs(5, min_n=1):
        if not is_connected(g):
            continue
        structural = classify_tight(g).kind != NOT_TIGHT
        mm, is_ = im.brute_mm(g), im.brute_is(g)
        assert structural == (mm + is_ == 2 * im.brute_im(g)[0])


def test_recognizers_match_oracles_randomly():
    for g in random_graphs(250, max_n=8, seed0=233):
        if not is_connected(g) or g.vertex_count == 0:
            continue
        mm, is_, (imv, _) = im.brute_mm(g), im.brute_is(g), im.brute_im(g)
        assert (recognize_cameron_walker(g).kind != NOT_CAMERON_WALKER) == (mm == imv)
        assert (classify_tight(g).kind != NOT_TIGHT) == (mm + is_ == 2 * imv)


def cw_recipes_and_perturbations():
    """Graphs from ``cw:`` recipes with two vertices per core side, plus
    each one with an extra edge, which usually breaks the shape."""
    specs = (
        "cw:u=2,w=2,p=0.5,nu=1,nw=1-2,tight",
        "cw:u=2,w=2,p=0.5,nu=1-2,nw=0-2",
        "cw:u=2,w=2,p=0.5,nu=1,nw=0-1",
    )
    rng = random.Random(239)
    for spec in specs:
        for seed in range(12):
            g = im.generate(spec, seed=seed)
            yield g
            absent = [
                (u, v)
                for u, v in combinations(g.vertices, 2)
                if not g.has_edge(u, v)
            ]
            yield im.Graph.build(g.vertices, g.edges() + [rng.choice(absent)])


def test_recognizers_match_oracles_on_cw_recipes():
    kinds = set()
    for g in cw_recipes_and_perturbations():
        assert g.vertex_count <= 16
        mm, is_, (imv, _) = im.brute_mm(g), im.brute_is(g), im.brute_im(g)
        cw, tight = recognize_cameron_walker(g), classify_tight(g)
        assert (cw.kind != NOT_CAMERON_WALKER) == (mm == imv)
        assert (tight.kind != NOT_TIGHT) == (mm + is_ == 2 * imv)
        kinds.add((cw.kind, tight.kind))
    assert kinds == {
        (PENDANT_BIPARTITE, TIGHT_PENDANT_BIPARTITE),
        (PENDANT_BIPARTITE, NOT_TIGHT),
        (NOT_CAMERON_WALKER, NOT_TIGHT),
    }


def test_peel_attachments_hang_off_a_nonempty_core():
    # recognize_cameron_walker peels every connected graph that is neither
    # a star nor a triangle star, and relies on these premises unchecked:
    # the core is not empty, and every pendant target and every triangle
    # center is a core vertex.
    connected = (g for g in all_labeled_graphs(6, min_n=1) if is_connected(g))
    peeled = 0
    for g in [*connected, *cw_recipes_and_perturbations()]:
        if is_star(g) or is_triangle_star(g):
            continue
        core, pendant_map, triangle_map = _peel(g)
        assert core and set(pendant_map) | set(triangle_map) <= core
        peeled += 1
    assert peeled > 27_000
