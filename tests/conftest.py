import random
from itertools import combinations

from hypothesis import settings
from hypothesis import strategies as st

import imsolve as im

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
