import hashlib
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import imsolve as im
from imsolve.errors import (
    AcyclicError,
    DisconnectedError,
    InconsistentHeaderError,
    IMSolveError,
    InvalidSpecError,
    NotACliqueError,
    ParseError,
    TooLargeError,
)
from imsolve.instances import (
    MAX_VERTICES,
    _read_canonical,
    _read_lines,
    generate,
    parse_generator_spec,
)
from imsolve.kernel import Instance
from imsolve.oracle import NOT_CAMERON_WALKER, NOT_TIGHT, classify_tight

from conftest import (
    anchored_triangle,
    build,
    complete,
    naive_branch_trap,
    path,
    paw_with_tail,
    random_graphs,
    triangle_star_graph,
)


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
    with pytest.raises(TooLargeError):
        im.read_instance(f"c too many vertices\np im {MAX_VERTICES + 1} 0 0\n")
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


@st.composite
def _edge_lists(draw):
    """``(n, edges, ell)``: edges in any order and orientation, on 1..n with
    possibly some isolated high-numbered vertices."""
    core = draw(st.integers(0, 8))
    pairs = list(combinations(range(1, core + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    return core + draw(st.integers(0, 3)), edges, draw(st.integers(0, 4))


def _canonical(n, edges, ell, m=None):
    m = len(edges) if m is None else m
    return f"p im {n} {m} {ell}\n" + "".join(f"e {u} {v}\n" for u, v in edges)


def _outcome(read, text):
    try:
        inst = read(text)
    except IMSolveError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return list(inst.graph._adj.items()), inst.ell


@given(_edge_lists())
def test_bulk_read_equals_the_line_loop(case):
    n, edges, ell = case
    text = _canonical(n, edges, ell)
    assert _read_canonical(text) is not None
    texts = [
        text,
        _canonical(n, edges + [(0, max(n, 1))], ell),
        _canonical(n, edges + [(1, n + 1)], ell),
        _canonical(n, edges + [(n, n)], ell),
        _canonical(n, edges, ell, m=len(edges) + 1),
        _canonical(MAX_VERTICES + 1, edges, ell),
        _canonical(n, edges, 10**18),  # 19 digits
        text.replace("p im ", "p im 0", 1),
        text.replace("p im ", "p im +", 1),
        text.replace("\n", "\r\n"),
        "c a comment\n" + text,
        text.replace("\n", "\n\n", 1),
        text.replace("\n", " \n", 1),
        text.replace(" ", "\t", 1),
        text[:-1],
    ]
    if edges:
        u, v = edges[0]
        first = f"e {u} {v}\n"
        texts += [
            _canonical(n, edges + [(v, u)], ell),
            _canonical(n, edges, ell, m=len(edges) - 1),
            text.replace(first, f"e 0{u} {v}\n"),
            text.replace(first, f"e {u} +{v}\n"),
            text.replace(first, f"e {u} {v} \n"),
            text.replace(first, f"e {u}\t{v}\n"),
        ]
    for mutated in texts:
        assert _outcome(im.read_instance, mutated) == _outcome(
            _read_lines, mutated
        ), mutated


def test_both_readers_share_the_inclusive_vertex_cap():
    # A leading comment sends the same text through the line loop.
    at_cap = f"p im {MAX_VERTICES} 0 1\n"
    assert _read_canonical(at_cap) is not None
    for text in (at_cap, "c\n" + at_cap):
        inst = im.read_instance(text)
        assert inst.graph.vertices == tuple(range(1, MAX_VERTICES + 1))
        assert inst.graph.edge_count == 0 and inst.ell == 1
    # One vertex more is refused from the header, before a vertex is built:
    # reading the 32,768 above peaks near 2.5 MB.
    past = f"p im {MAX_VERTICES + 1} 0 1\n"
    for read, text in ((_read_canonical, past), (_read_lines, "c\n" + past)):
        tracemalloc.start()
        try:
            with pytest.raises(TooLargeError) as info:
                read(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == "32769 vertices exceeds the vertex cap (32768)"
        assert peak < 64 << 10, (read, peak)


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
    text = im.write_instance(Instance(naive_branch_trap(), 4))
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
    assert paw_with_tail().vertex_count == 5
    assert anchored_triangle().vertex_count == 5
    g = triangle_star_graph(4)
    assert g.vertex_count == 9 and g.edge_count == 12
    assert naive_branch_trap().edge_count == 13
    with pytest.raises(ValueError, match="at least one triangle"):
        triangle_star_graph(0)


def test_cw_spec_triangle_star():
    g = generate("cw:u=0,w=1,nw=4")
    assert g.vertex_count == 9
    assert im.is_triangle_star(g)


def test_cw_spec_tight_fixture():
    g = generate("cw:u=1,w=1,nu=1,nw=1,tight")
    assert g.vertex_count == 5
    got = classify_tight(g)
    assert got.kind == "tight-pendant-bipartite"
    assert im.brute_mm(g) == im.brute_is(g) == im.brute_im(g)[0] == 2


def test_cw_spec_validation():
    for spec, message in (
        ("cw:u=0,w=0", "the core must have at least one vertex"),
        ("cw:u=2,w=0", "the core must be connected"),
        ("cw:u=1,w=1,nu=0", "'u1' needs at least one pendant vertex"),
        (
            "cw:u=1,w=1,nu=2,nw=1,tight",
            "tight recipes attach exactly one pendant vertex, got 2 at 'u1'",
        ),
        (
            "cw:u=1,w=1,nu=1,nw=0,tight",
            "tight recipes attach at least one pendant triangle, got 0 at 'w1'",
        ),
        ("cw:u=1,w=1,nw=3-1", "empty count range (3, 1)"),
    ):
        with pytest.raises(InvalidSpecError) as info:
            generate(spec)
        assert str(info.value) == message, spec


# SHA-256 of write_instance(Instance(generate(spec, seed), 1)), pinned so a
# change to the generator cannot move the graphs that CI, the README and
# the benchmark build from these specs.
_GOLDEN_GRAPHS = {
    ("cw:u=80,w=80,nu=1,nw=1-3,tight", 1):
        "0b6f7b99669e3aa8885aa80a639c14a8f9a61e44fb29fdde1619cd8a0c0e5c36",
    ("cw:u=0,w=1,nw=4", 0):
        "290294edd06145b2e35d839fc96cb3052f57324623be8bef429e53f523977456",
    ("random:n=12,p=0.3", 1):
        "e66ff68d6e974699ae028a797955b4312dc0244992c66c66e7d77a4550507846",
}
_GOLDEN_SMALL_CW = (
    "a2094d6ae6372188d35395493dcf8f3474fe477c79cd4d572cc3d03ab9e478a4",
    "e91e26a62e83d7cd220fb50d22e957cfd71dde7045d200a23c927a94bb7c5103",
    "e91e26a62e83d7cd220fb50d22e957cfd71dde7045d200a23c927a94bb7c5103",
    "e0e473959d8eff3e1b3c96e4e2ea131f1a1c5a71c8fe771df90f2ac9b5153b59",
    "89abd55fe21a0baf6ec55edf5d919a562db46a5bd3376a81e0f5c7e5a6584be0",
    "abdf9fa7909b0533058d11f91394140db1b77cf905a0a8b9768a79ae4392d0c7",
    "069dbf9f3006b9d8e0f8c74c453ce9fb99a1e28886b2285009b51be501e31e59",
    "4be9cf8482478ab6ad1f2e6e398c7e0909f5b90b6c9c73d3a4c88c927583ffc7",
    "857db4b44281b5b4a418bcadc1033545ebb92f6a623d3290b6ab094a5ba91797",
    "e7dee7ec6662665eb0386d1316161d165c2d28b61a1d1a88e02e7fb5111703ca",
    "613d5889e2087806828f66c67322752c1a7681ba90befdf153b7a7e27f6c5353",
    "63370fe07c89165fcb4a36dd80f9cfa4303b7fe25d5402910357b9491e16af31",
)


def test_generate_golden_digests():
    def digest(spec, seed):
        text = im.write_instance(Instance(generate(spec, seed), 1))
        return hashlib.sha256(text.encode()).hexdigest()

    for (spec, seed), want in _GOLDEN_GRAPHS.items():
        assert digest(spec, seed) == want, (spec, seed)
    for seed, want in enumerate(_GOLDEN_SMALL_CW):
        assert digest("cw:u=2,w=2,p=0.5,nu=1-2,nw=0-2", seed) == want, seed


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
    # An empty item between commas is skipped.
    assert parse_generator_spec("random:n=3,,p=0.5") == ("random", {"n": 3, "p": 0.5})


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
    # The subdivision vertex of edge (1, 2) would be named "1_2".
    taken = im.Graph.build([1, 2, 3, "1_2"], [(1, 2), (1, 3), (2, 3), (3, "1_2")])
    with pytest.raises(ValueError, match="label '1_2' already exists"):
        im.reduce_dominating_set(taken, 1)


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
    with pytest.raises(ValueError, match="empty part"):
        im.reduce_multicolored_is(g, [{1, 2}, set(), {3, 4}])
    named = im.Graph.build(["a", "v1"], [("a", "v1")])
    with pytest.raises(ValueError, match="label 'v1' already exists"):
        im.reduce_multicolored_is(named, [{"a", "v1"}])


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
