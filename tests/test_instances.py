import pytest

import imsolve as im
from imsolve.errors import (
    AcyclicError,
    DisconnectedError,
    InconsistentHeaderError,
    InvalidSpecError,
    NotACliqueError,
    ParseError,
)
from imsolve.instances import MAX_VERTICES, CWSpec, generate, parse_generator_spec
from imsolve.kernel import Instance
from imsolve.oracle import NOT_CAMERON_WALKER, NOT_TIGHT, classify_tight

from conftest import build, complete, path, random_graphs


def test_read_minimal():
    inst = im.read_instance("p im 2 1 1\ne 1 2\n")
    assert inst.ell == 1
    assert inst.graph.vertices == (1, 2)
    assert inst.graph.edges() == [(1, 2)]


def test_read_tolerates_comments_and_blanks():
    text = "c a comment\n\np im 3 2 1\nc another\nc\te 9 9 not parsed\ne 1 2\ne 2 3\n"
    inst = im.read_instance(text)
    assert inst.graph.edge_count == 2


def test_header_edge_count_mismatch():
    with pytest.raises(InconsistentHeaderError):
        im.read_instance("p im 3 3 1\ne 1 2\ne 2 3\n")


def test_endpoint_outside_header_range():
    with pytest.raises(InconsistentHeaderError):
        im.read_instance("p im 2 1 0\ne 1 5\n")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as info:
        im.read_instance("p im 2 1 0\ne 1 1\n")
    assert info.value.line == 2
    with pytest.raises(ParseError):
        im.read_instance("e 1 2\n")
    with pytest.raises(ParseError):
        im.read_instance("p im 2 0 0\np im 2 0 0\n")
    with pytest.raises(ParseError):
        im.read_instance("p im 2 2 0\ne 1 2\ne 2 1\n")
    with pytest.raises(ParseError):
        im.read_instance("q something\n")
    with pytest.raises(ParseError):
        im.read_instance("")
    with pytest.raises(ParseError) as info:
        im.read_instance(f"c too many vertices\np im {MAX_VERTICES + 1} 0 0\n")
    assert info.value.line == 2
    for text, line in (
        ("c header\np im 2 1\n", 2),  # header shape
        ("p im 2 one 0\n", 1),  # header integer
        ("p im 2 0 -1\n", 1),  # header sign
        ("p im 2 1 0\n\ne 1 2 3\n", 3),  # edge shape
        ("p im 2 1 0\ne 1 b\n", 2),  # endpoint integer
    ):
        with pytest.raises(ParseError) as info:
            im.read_instance(text)
        assert info.value.line == line, text


def test_write_then_read_round_trip():
    for g in random_graphs(60, seed0=307):
        inst = Instance(g, 2)
        text = im.write_instance(inst)
        again = im.read_instance(text)
        assert im.write_instance(again) == text
        assert again.graph.vertex_count == g.vertex_count
        assert again.graph.edge_count == g.edge_count
        assert again.ell == 2


def test_fig2_file_round_trip():
    text = im.write_instance(Instance(im.naive_branch_trap(), 4))
    inst = im.read_instance(text)
    assert inst.graph.vertex_count == 9
    assert inst.graph.edge_count == 13
    assert len(im.maximum_matching(inst.graph)) == 4


def test_gen_random_contracts():
    assert im.gen_random(5, 0, 1).edge_count == 0
    assert im.gen_random(5, 1, 1).edge_count == 10
    assert im.gen_random(8, 0.5, 42) == im.gen_random(8, 0.5, 42)
    assert im.gen_random(8, 0.5, 42) != im.gen_random(8, 0.5, 43)
    with pytest.raises(ValueError):
        im.gen_random(3, 1.5, 0)


def test_fixture_shapes():
    assert im.paw_with_tail().vertex_count == 5
    assert im.anchored_triangle().vertex_count == 5
    g = im.triangle_star_graph(4)
    assert g.vertex_count == 9 and g.edge_count == 12
    assert im.naive_branch_trap().edge_count == 13


def test_cw_spec_triangle_star():
    spec = CWSpec(w_side=("s",), triangle_counts={"s": 4})
    g = im.gen_cameron_walker(spec)
    assert g.vertex_count == 9
    assert im.is_triangle_star(g)


def test_cw_spec_tight_fixture():
    spec = CWSpec(
        u_side=("u1",),
        w_side=("w1",),
        core_edges=(("u1", "w1"),),
        pendant_counts={"u1": 1},
        triangle_counts={"w1": 1},
        tight=True,
    )
    g = im.gen_cameron_walker(spec)
    assert g.vertex_count == 5
    got = classify_tight(g)
    assert got.kind == "tight-pendant-bipartite"
    assert im.brute_mm(g) == im.brute_is(g) == im.brute_im(g)[0] == 2


def test_cw_spec_validation():
    with pytest.raises(InvalidSpecError):
        im.gen_cameron_walker(CWSpec())  # empty core
    with pytest.raises(InvalidSpecError):
        im.gen_cameron_walker(
            CWSpec(u_side=("u1", "u2"), w_side=("w1",), core_edges=(("u1", "w1"),))
        )  # disconnected core
    with pytest.raises(InvalidSpecError):
        im.gen_cameron_walker(
            CWSpec(u_side=("u1",), w_side=("w1",), core_edges=(("u1", "w1"),),
                   pendant_counts={"u1": 0})
        )
    with pytest.raises(InvalidSpecError):
        im.gen_cameron_walker(
            CWSpec(u_side=("u1",), w_side=("w1",), core_edges=(("u1", "w1"),),
                   pendant_counts={"u1": 2}, triangle_counts={"w1": 1}, tight=True)
        )
    with pytest.raises(InvalidSpecError):
        im.gen_cameron_walker(
            CWSpec(u_side=("a",), w_side=("a",), core_edges=())
        )
    with pytest.raises(InvalidSpecError):
        im.gen_cameron_walker(
            CWSpec(u_side=("u1",), w_side=("w1",), core_edges=(("u1", "w1"),),
                   pendant_counts={"w1": 1})
        )  # count targets the wrong side
    with pytest.raises(InvalidSpecError):
        im.gen_cameron_walker(
            CWSpec(u_side=("u1", "u1_p1"), w_side=("w1",),
                   core_edges=(("u1", "w1"), ("u1_p1", "w1")))
        )  # core label collides with a generated pendant label


def test_generated_cw_graphs_have_equal_matching_invariants():
    from imsolve.oracle import recognize_cameron_walker

    for seed in range(12):
        g = generate("cw:u=2,w=2,p=0.4,nu=1-2,nw=0-2", seed=seed)
        assert recognize_cameron_walker(g).kind != NOT_CAMERON_WALKER
        if g.vertex_count <= 14:
            assert im.brute_mm(g) == im.brute_im(g)[0]


def test_generated_tight_graphs_classify_tight():
    for seed in range(12):
        g = generate("cw:u=1,w=2,p=0.6,nu=1,nw=1-2,tight", seed=seed)
        assert classify_tight(g).kind != NOT_TIGHT
        if g.vertex_count <= 14:
            mm, is_, (imv, _) = im.brute_mm(g), im.brute_is(g), im.brute_im(g)
            assert mm == is_ == imv


def test_generator_determinism():
    a = generate("cw:u=2,w=2,p=0.5,nu=1,nw=1,tight", seed=9)
    b = generate("cw:u=2,w=2,p=0.5,nu=1,nw=1,tight", seed=9)
    assert a == b


def test_generator_degenerate_single_vertex_core():
    g = generate("cw:u=0,w=1,nw=4", seed=0)
    assert im.is_triangle_star(g)
    assert g.vertex_count == 9
    g = generate("cw:u=1,w=0,nu=3", seed=0)
    assert g.vertex_count == 4  # a star: one core vertex, three pendants
    with pytest.raises(InvalidSpecError):
        generate("cw:u=0,w=2,nw=1", seed=0)  # two core vertices, no edges


def test_generator_backbone_with_more_u_than_w():
    # p = 0 leaves only the backbone, a spanning tree of the core.
    u_side, w_side = ["u1", "u2", "u3", "u4"], ["w1", "w2"]
    for seed in range(12):
        g = generate("cw:u=4,w=2,p=0,nu=1-2,nw=0-2", seed=seed)
        core = g.induced(u_side + w_side)
        assert len(core.connected_components()) == 1 and core.edge_count == 5
        pendants = [sum(g.degree(x) == 1 for x in g.neighbors(u)) for u in u_side]
        centers = [v for _, v, _ in g.local_features().pendant_triangles]
        triangles = [centers.count(w) for w in w_side]
        assert all(1 <= k <= 2 for k in pendants) and all(0 <= k <= 2 for k in triangles)
        assert g.vertex_count == 6 + sum(pendants) + 2 * sum(triangles)


def test_parse_generator_spec_errors():
    with pytest.raises(InvalidSpecError):
        parse_generator_spec("mystery:n=3")
    with pytest.raises(InvalidSpecError):
        parse_generator_spec("random:p=0.5")  # n is required
    too_many = MAX_VERTICES + 1
    with pytest.raises(InvalidSpecError):
        parse_generator_spec(f"random:n={too_many},p=0.5")
    with pytest.raises(InvalidSpecError):
        parse_generator_spec(f"cw:u={too_many - 5},w=5")
    for bad in (
        "random:n=8,q=0.9",  # unknown key
        "random:n=8,tight",  # random takes no flag
        "cw:u=2,w=2,nu=1,nw=1,tigth",  # unknown flag
        "cw:u=2,w=2,n=4",  # unknown key
        "cw:u=2,w=2,p=1.5",
        "cw:u=2,w=2,p=-0.1",
    ):
        with pytest.raises(InvalidSpecError):
            parse_generator_spec(bad)
    with pytest.raises(InvalidSpecError, match="u must be nonnegative"):
        parse_generator_spec("cw:u=-5,w=1,nw=1")
    with pytest.raises(InvalidSpecError, match="w must be nonnegative"):
        parse_generator_spec("cw:u=2,w=-3")
    with pytest.raises(InvalidSpecError, match="nu must be nonnegative, got -1"):
        parse_generator_spec("cw:u=1,w=1,nu=-1")
    with pytest.raises(InvalidSpecError, match="nw must be nonnegative, got -2"):
        parse_generator_spec("cw:u=1,w=1,nw=-2")
    with pytest.raises(InvalidSpecError, match="'q'"):
        parse_generator_spec("random:n=8,q=0.9")
    with pytest.raises(InvalidSpecError, match="'tigth'"):
        parse_generator_spec("cw:u=2,w=2,nu=1,nw=1,tigth")
    kind, opts = parse_generator_spec("cw:u=2,w=2,p=1,nu=1,nw=1,tight")
    assert kind == "cw" and opts["p"] == 1 and opts["tight"]
    kind, _ = parse_generator_spec(f"random:n={MAX_VERTICES},p=0")
    assert kind == "random"
    kind, opts = parse_generator_spec(f"cw:u={MAX_VERTICES - 5},w=5")
    assert kind == "cw" and opts["u"] + opts["w"] == MAX_VERTICES
    kind, opts = parse_generator_spec("random:n=6,p=0.25")
    assert kind == "random" and opts == {"n": 6, "p": 0.25}


# -- dominating-set reduction ---------------------------------------------------


def test_ds_reduction_on_triangle():
    inst = im.reduce_dominating_set(complete(3), 1)
    g = inst.graph
    assert inst.ell == 2
    assert g.vertex_count == 6
    assert g.edge_count == 6
    assert all(g.degree(v) == 2 for v in g.vertices)  # a 6-cycle
    assert len(g.connected_components()) == 1
    assert im.brute_ds(complete(3)) == 1
    assert im.brute_im(g)[0] == 2
    assert len(im.maximum_matching(g)) == 3


def test_ds_reduction_subdivision_labels_decode():
    inst = im.reduce_dominating_set(complete(3), 1)
    mids = [v for v in inst.graph.vertices if isinstance(v, str)]
    assert sorted(mids) == ["1_2", "1_3", "2_3"]
    for mid in mids:
        a, b = mid.split("_")
        assert complete(3).has_edge(int(a), int(b))


def test_ds_reduction_preconditions():
    with pytest.raises(AcyclicError):
        im.reduce_dominating_set(path(4), 1)
    with pytest.raises(DisconnectedError):
        im.reduce_dominating_set(build(4, [(1, 2), (3, 4)]), 1)
    with pytest.raises(ValueError):
        im.reduce_dominating_set(complete(3), 9)


def test_ds_reduction_equivalence_small():
    rng_graphs = [g for g in random_graphs(120, max_n=6, seed0=311)
                  if len(g.connected_components()) == 1 and g.edge_count >= g.vertex_count]
    assert rng_graphs
    for g in rng_graphs[:40]:
        ds = im.brute_ds(g)
        reduced = im.reduce_dominating_set(g, 0)
        imv = im.brute_im(reduced.graph, cap=30)[0]
        # the equivalence over every target collapses to one identity
        assert imv == g.vertex_count - ds
        assert len(im.maximum_matching(reduced.graph)) == g.vertex_count


# -- multicolored independent-set reduction --------------------------------------


def test_mis_reduction_spec_example():
    g = im.Graph.build("abcd", [("a", "b"), ("c", "d"), ("a", "c")])
    inst = im.reduce_multicolored_is(g, [{"a", "b"}, {"c", "d"}])
    assert inst.ell == 2
    assert inst.graph.vertex_count == 6
    assert im.brute_is(inst.graph) == 2
    assert im.brute_im(inst.graph)[0] == 2


def test_mis_reduction_single_clique_is_triangle():
    g = build(2, [(1, 2)])
    inst = im.reduce_multicolored_is(g, [{1, 2}])
    assert inst.ell == 1
    assert inst.graph.vertex_count == 3
    assert inst.graph.edge_count == 3
    assert im.brute_is(inst.graph) == 1
    assert im.brute_im(inst.graph)[0] == 1


def test_mis_reduction_validation():
    g = build(4, [(1, 2), (3, 4)])
    with pytest.raises(NotACliqueError):
        im.reduce_multicolored_is(g, [{1, 3}, {2, 4}])
    with pytest.raises(ValueError):
        im.reduce_multicolored_is(g, [{1, 2}])  # does not cover 3, 4
    with pytest.raises(ValueError):
        im.reduce_multicolored_is(g, [{1, 2}, {2, 3, 4}])  # overlap


def test_mis_reduction_apexes_form_maximum_independent_set():
    import random

    rng = random.Random(41)
    for _ in range(25):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
        labels = []
        edges = []
        parts = []
        next_label = 1
        for size in sizes:
            part = list(range(next_label, next_label + size))
            next_label += size
            labels += part
            edges += [(a, b) for i, a in enumerate(part) for b in part[i + 1:]]
            parts.append(part)
        # sprinkle cross edges
        for i, a in enumerate(labels):
            for b in labels[i + 1:]:
                if not any(a in p and b in p for p in parts) and rng.random() < 0.3:
                    edges.append((a, b))
        g = im.Graph.build(labels, edges)
        inst = im.reduce_multicolored_is(g, parts)
        apexes = [v for v in inst.graph.vertices if isinstance(v, str)]
        assert len(apexes) == len(parts)
        for i, a in enumerate(apexes):
            for b in apexes[i + 1:]:
                assert not inst.graph.has_edge(a, b)
        assert im.brute_is(inst.graph) == len(parts)
