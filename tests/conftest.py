import random
from itertools import combinations

from hypothesis import settings
from hypothesis import strategies as st

import imsolve as im
from imsolve.graph import Interned, indices
from imsolve.kernel import Instance, reduce_instance
from imsolve.solver import choose_rule, expand

settings.register_profile("suite", deadline=None, max_examples=60, derandomize=True)
settings.load_profile("suite")


def build(n, edges=()):
    """Graph on vertices 1..n."""
    return im.Graph.build(range(1, n + 1), edges)


def cycle(n):
    return build(n, [(i, i + 1) for i in range(1, n)] + [(n, 1)])


def path(n):
    return build(n, [(i, i + 1) for i in range(1, n)])


def complete(n):
    return build(n, list(combinations(range(1, n + 1), 2)))


def star(leaves):
    return build(leaves + 1, [(1, i) for i in range(2, leaves + 2)])


def naive_branch_trap():
    """9-vertex graph on which deleting the cut vertex ``s`` changes neither
    the maximum matching size nor the independence number (both stay 4),
    so naive branching on it makes no progress."""
    labels = ["s", "ru1", "ru2", "rb1", "rb2", "su", "lm", "lu", "lb"]
    edges = [
        ("ru1", "ru2"),
        ("ru1", "s"),
        ("ru2", "s"),
        ("ru1", "rb1"),
        ("rb1", "ru2"),
        ("ru1", "rb2"),
        ("rb2", "ru2"),
        ("s", "su"),
        ("su", "lm"),
        ("lm", "s"),
        ("lu", "lm"),
        ("lm", "lb"),
        ("lb", "lu"),
    ]
    return im.Graph.build(labels, edges)


def triangle_star_graph(triangles):
    """A triangle star with ``triangles`` triangles sharing the center ``s``."""
    if triangles < 1:
        raise ValueError("a triangle star has at least one triangle")
    labels = ["s"]
    edges = []
    for i in range(1, triangles + 1):
        u, w = f"u{i}", f"w{i}"
        labels += [u, w]
        edges += [("s", u), ("s", w), (u, w)]
    return im.Graph.build(labels, edges)


def paw_with_tail():
    """Triangle {a, b, c} plus the path a - x - y."""
    return im.Graph.build(
        ["a", "b", "c", "x", "y"],
        [("a", "b"), ("a", "c"), ("b", "c"), ("a", "x"), ("x", "y")],
    )


def anchored_triangle():
    """Triangle {a, b, c} with z adjacent to a and b, and a pendant y on z."""
    return im.Graph.build(
        ["a", "b", "c", "z", "y"],
        [("a", "b"), ("a", "c"), ("b", "c"), ("z", "a"), ("z", "b"), ("z", "y")],
    )


# -- label adapters of the search's mask functions ------------------------------


def mask_of(bits, vertices):
    """The mask of a set of labels of the interned graph ``bits``."""
    rank = {v: i for i, v in enumerate(bits.labels)}
    return sum(1 << rank[v] for v in vertices)


def labels_of(bits, mask):
    """The labels of the bits of ``mask``, in label order."""
    return [bits.labels[i] for i in indices(mask)]


def reduce_labels(inst, pendant_triangles=True):
    """``kernel.reduce_instance`` on the whole graph of ``inst``, in labels:
    ``(reduced, harvested, steps)``, the reduced ``Instance``, the set of
    harvested edges and the steps as ``(rule, deleted, harvested)``
    triples, ``harvested`` an edge or None."""
    g = inst.graph
    bits = Interned(g)
    live, ell, harvested, steps = reduce_instance(
        bits.adj, bits.full, inst.ell, pendant_triangles
    )
    if live != bits.full:
        g = g.delete_vertices(labels_of(bits, bits.full & ~live))
    labels = bits.labels

    def pair(e):
        return (labels[e[0]], labels[e[1]])

    return (
        Instance(g, ell),
        frozenset(map(pair, harvested)),
        tuple(
            (rule, tuple(map(labels.__getitem__, deleted)), h and pair(h))
            for rule, deleted, h in steps
        ),
    )


def choose_labels(g, dec):
    """``solver.choose_rule`` on the whole graph ``g`` with its
    decomposition ``dec``: ``(rule, actors)``, the actors as labels."""
    bits = Interned(g)
    rule, actors = choose_rule(
        bits.adj,
        bits.full,
        mask_of(bits, dec.a),
        mask_of(bits, dec.c),
        [mask_of(bits, comp) for comp in dec.d_components],
    )
    return rule, {k: bits.labels[i] for k, i in actors.items()}


def expand_labels(g, choice):
    """``solver.expand`` on the whole graph ``g`` for the ``(rule, actors)``
    pair ``choice`` in labels: the children's deletion sets."""
    rule, actors = choice
    bits = Interned(g)
    rank = {v: i for i, v in enumerate(bits.labels)}
    masks = expand(bits.adj, bits.full, rule, {k: rank[v] for k, v in actors.items()})
    return [set(labels_of(bits, mask)) for mask in masks]


def is_connected(g):
    return len(g.connected_components()) <= 1


def all_labeled_graphs(max_n, min_n=0):
    """Every labeled graph on min_n..max_n vertices (vertices 1..n)."""
    for n in range(min_n, max_n + 1):
        pairs = list(combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            yield build(n, edges)


def random_graphs(count, max_n=9, seed0=0, min_n=1):
    ps = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    span = max_n - min_n + 1
    out = []
    for i in range(count):
        n = min_n + (i % span)
        p = ps[(i // span) % len(ps)]
        out.append(im.gen_random(n, p, seed0 + i))
    return out


def mixed_labels(g, rng):
    """``g`` with about half its vertices renamed to strs."""
    name = {v: v if rng.random() < 0.5 else f"v{v}" for v in g.vertices}
    return im.Graph.build(name.values(), [(name[a], name[b]) for a, b in g.edges()])


def random_bipartite(count, max_side=5, seed0=0):
    rng = random.Random(seed0)
    out = []
    for _ in range(count):
        a = rng.randint(0, max_side)
        b = rng.randint(0, max_side)
        left = [f"l{i}" for i in range(a)]
        right = [f"r{i}" for i in range(b)]
        edges = [
            (u, v) for u in left for v in right if rng.random() < 0.5
        ]
        out.append(im.Graph.build(left + right, edges))
    return out


@st.composite
def graphs(draw, max_n=8, min_n=0):
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(1, n + 1), 2))
    chosen = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return build(n, sorted(chosen))
