"""Seeded workloads: instances, expected answers, ops and their checks.

Every workload is a list of rounds.  A round holds one instance from each
cell of the workload's parameter grid, in a seed-shuffled order, so any run
that stops on a round boundary sees the same mix of sizes and answers.
The benchmark generates its own graphs (only the dominating-set workload
goes through the library's reduction, which is what it measures), so the
inputs stay the same when the library's generators change.

Expected answers are fixed in set-up by routes that do not use the engine
under test: ``brute_im`` for ``gnp_mixed``, ``brute_ds`` on the base graph
for ``ds_subdivision``, the construction for ``tight_cw``.  The
``decompose_sparse`` ops are checked by a Tutte-Berge certificate computed
from the benchmark's own component count.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import imsolve as im

SEARCH_KINDS = ("auto", "tg")


@dataclass(frozen=True)
class Op:
    """One timed operation.

    ``kind`` is ``auto`` (parse + ``solve_auto``), ``tg`` (parse +
    ``solve_imbtg``) or ``decompose`` (``decompose`` + ``maximum_matching``).
    ``graph`` is the original graph, built by the benchmark from its own edge
    list: search certificates are verified against it, and ``decompose``
    ops run on it.
    """

    key: str
    kind: str
    graph: object
    text: str | None = None
    ell: int = 0
    expected: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    build_round: object  # (rng, cells, key prefix) -> list[Op]
    cells: tuple
    rounds: int
    trace_rounds: int


def _text(n: int, edges, ell: int) -> str:
    lines = [f"p im {n} {len(edges)} {ell}"]
    lines.extend(f"e {u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def _graph(n, edges):
    return im.Graph.build(range(1, n + 1), edges)


def _search_ops(key, graph, edges, answers, kinds):
    """Ops posing ``graph`` (on 1..n) at each ``(ell, expected)`` of ``answers``."""
    n = graph.vertex_count
    return [
        Op(f"{key}.{kind}.{expected}", kind, graph, _text(n, edges, ell), ell, expected)
        for ell, expected in answers
        for kind in kinds
    ]


def _gnm_edges(n, m, rng):
    """A uniformly random graph on 1..n with exactly m edges."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return sorted(rng.sample(pairs, m))


def _sparse_gnp_edges(n, p, rng):
    """G(n, p) by geometric edge skipping (Batagelj & Brandes 2005)."""
    edges = []
    log_q = math.log(1.0 - p)
    v, w = 1, -1
    while v < n:
        w += 1 + int(math.log(1.0 - rng.random()) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            edges.append((w + 1, v + 1))
    return edges


def _connected(n, edges):
    root = list(range(n + 1))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for u, v in edges:
        root[find(u)] = find(v)
    return len({find(v) for v in range(1, n + 1)}) == 1


# -- gnp_mixed ------------------------------------------------------------------


def _gnp_round(rng, cells, key):
    ops = []
    for n, p in cells:
        # G(n, m) at m = p * n(n-1)/2: the edge count sets the search cost,
        # and fixing it keeps the run-to-run spread inside the bounds.
        edges = _gnm_edges(n, round(p * n * (n - 1) / 2), rng)
        graph = _graph(n, edges)
        im_size, _ = im.brute_im(graph, cap=n)
        answers = ((im_size, "yes"), (im_size + 1, "no"))
        ops += _search_ops(f"{key}.n{n}p{p}", graph, edges, answers, SEARCH_KINDS)
    return ops


# -- tight_cw ---------------------------------------------------------------------


def _tight_cw(k, rng):
    """The ``cw:u=k,w=k,nu=1,nw=1-3,tight`` recipe on integer labels.

    A connected bipartite core U = 1..k, W = k+1..2k (a zig-zag backbone
    plus each other cross pair with probability 0.3), one pendant vertex
    per U vertex and 1-3 pendant triangles per W vertex.  Returns
    ``(n, edges, im)`` with im = |U| + number of pendant triangles.
    """
    edges = set()
    for i in range(1, k + 1):
        edges.add((i, k + i))
        if i < k:
            edges.add((i + 1, k + i))
    for u in range(1, k + 1):
        for w in range(k + 1, 2 * k + 1):
            if rng.random() < 0.3:
                edges.add((u, w))
    edges = sorted(edges)
    n = 2 * k
    for u in range(1, k + 1):
        n += 1
        edges.append((u, n))
    triangles = 0
    for w in range(k + 1, 2 * k + 1):
        for _ in range(rng.randint(1, 3)):
            a, b = n + 1, n + 2
            n += 2
            triangles += 1
            edges += [(w, a), (w, b), (a, b)]
    return n, edges, k + triangles


def _tight_round(rng, cells, key):
    ops = []
    for k in cells:
        n, edges, im_size = _tight_cw(k, rng)
        answers = ((im_size, "yes"), (im_size + 1, "no"))
        ops += _search_ops(f"{key}.k{k}", _graph(n, edges), edges, answers, ("auto",))
    return ops


# -- ds_subdivision ---------------------------------------------------------------


def _connected_gnm(n, m, rng):
    while True:
        edges = _gnm_edges(n, m, rng)
        if _connected(n, edges):
            return edges


def _subdivision(base, target):
    """The reduction's instance, renumbered 1..n in label order."""
    inst = im.reduce_dominating_set(base, target)
    index = {v: i for i, v in enumerate(inst.graph.vertices, start=1)}
    edges = sorted(tuple(sorted((index[u], index[v]))) for u, v in inst.graph.edges())
    return len(index), edges, inst.ell


def _ds_round(rng, cells, key):
    ops = []
    for n, m in cells:
        base = _graph(n, _connected_gnm(n, m, rng))
        gamma = im.brute_ds(base)
        for target, expected in ((gamma, "yes"), (gamma - 1, "no")):
            size, edges, ell = _subdivision(base, target)
            answers = ((ell, expected),)
            ops += _search_ops(f"{key}.n{n}m{m}", _graph(size, edges), edges, answers, ("auto",))
    return ops


# -- decompose_sparse -----------------------------------------------------------


def _sparse_round(rng, cells, key):
    ops = []
    for n, c in cells:
        edges = _sparse_gnp_edges(n, c / n, rng)
        ops.append(Op(f"{key}.n{n}c{c}", "decompose", _graph(n, edges)))
    return ops


# Cells keep every op cheap and alike in cost: the spread of a run's
# figures across seeds grows with the share of its time spent in its
# costliest cells, and must stay inside the bounds in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gnp_mixed",
            _gnp_round,
            ((14, 0.2), (14, 0.25), (15, 0.2), (15, 0.25), (16, 0.15), (16, 0.2)),
            rounds=32,
            trace_rounds=9,
        ),
        Workload(
            "tight_cw",
            _tight_round,
            (16, 24, 32, 40, 48, 64, 100),
            rounds=10,
            trace_rounds=2,
        ),
        Workload(
            "ds_subdivision",
            _ds_round,
            tuple((n, n + extra) for n in (6, 7, 8) for extra in range(3)),
            rounds=36,
            trace_rounds=8,
        ),
        Workload(
            "decompose_sparse",
            _sparse_round,
            tuple((n, c) for n in (400, 600, 800, 1200, 1600) for c in (1.5, 2.0)),
            rounds=12,
            trace_rounds=10,
        ),
    )
}


def build(name: str, seed: int, smoke: bool = False) -> list:
    """The seeded rounds of a workload; ``smoke`` keeps one round of its
    smallest cell."""
    w = WORKLOADS[name]
    cells = w.cells[:1] if smoke else w.cells
    rounds = []
    for r in range(1 if smoke else w.rounds):
        rng = random.Random(f"{name}/{seed}/{r}")
        ops = w.build_round(rng, cells, f"r{r}")
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


# -- running and checking ops -----------------------------------------------------


def run_op(op: Op, trace=None):
    """The op itself: what the timed region covers.

    Library entry points are looked up on the package at call time so the
    traced run reaches them through its wrappers.
    """
    if op.kind == "decompose":
        return im.decompose(op.graph), im.maximum_matching(op.graph)
    inst = im.read_instance(op.text)
    if op.kind == "auto":
        return im.solve_auto(inst, trace=trace)
    return im.solve_imbtg(inst, trace=trace)


def _odd_components_without(g, removed):
    seen = set(removed)
    odd = 0
    for start in g.vertices:
        if start in seen:
            continue
        seen.add(start)
        stack, size = [start], 0
        while stack:
            v = stack.pop()
            size += 1
            for u in g.neighbors(v):
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        odd += size % 2
    return odd


def check(op: Op, out) -> str | None:
    """None when the op's output is right, else what is wrong."""
    if op.kind == "decompose":
        dec, matching = out
        g = op.graph
        covered = set()
        for u, v in matching:
            if not g.has_edge(u, v) or u in covered or v in covered:
                return f"{op.key}: not a matching at {u}-{v}"
            covered |= {u, v}
        vs = frozenset(g.vertices)
        if dec.d | dec.a | dec.c != vs or len(dec.d) + len(dec.a) + len(dec.c) != len(vs):
            return f"{op.key}: d, a, c do not partition the vertices"
        if dec.a != g.neighborhood_of_set(dec.d):
            return f"{op.key}: a is not the neighbourhood of d"
        n = len(vs)
        if 2 * len(matching) != n - (len(dec.d_components) - len(dec.a)):
            return f"{op.key}: deficiency identity fails"
        # Tutte-Berge: a matching this large is maximum.
        if 2 * len(matching) != n + len(dec.a) - _odd_components_without(g, dec.a):
            return f"{op.key}: matching is not certified maximum"
        return None
    answer = out.answer.value
    if answer != op.expected:
        return f"{op.key}: answered {answer}, expected {op.expected}"
    if answer == "yes":
        cert = out.certificate
        if cert is None or len(cert) != op.ell or not im.verify_induced_matching(op.graph, cert):
            return f"{op.key}: invalid certificate"
    return None
