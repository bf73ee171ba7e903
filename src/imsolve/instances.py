"""Instance I/O, generators and hardness reductions.

File format (DIMACS-flavored, bit-exact when written by this module):

    c optional comments
    p im <n> <m> <ell>
    e <u> <v>

with 1-based vertex indices, LF line endings and single spaces.  The
target rides in the header so an instance is a single file.  Writing is
canonical (sorted edges, no comments, a final newline), so
write(read(text)) normalizes.  A canonical file is read in bulk; anything
else, such as comments, blank lines, other whitespace or CRLF, is read line
by line, with the same result.  No file has more than ``MAX_VERTICES``
(32,768) vertices: a reader refuses a larger header with TooLargeError
before it builds a vertex, ``write_instance`` refuses a larger graph, and
``generate`` refuses a spec that could give one before it draws.
"""

from __future__ import annotations

import random
import re
import sys
from collections import defaultdict
from itertools import combinations

from .errors import (
    AcyclicError,
    DisconnectedError,
    InconsistentHeaderError,
    InvalidSpecError,
    NotACliqueError,
    ParseError,
)
from .graph import MAX_VERTICES, Graph, check_vertex_count, sort_labels
from .kernel import Instance

# -- file format --------------------------------------------------------------


# The form write_instance emits: single spaces, LF line endings, a final
# newline and ASCII decimals, here of at most 18 digits so that int() never
# meets its digit limit.  Python 3.11 can repeat the edge lines possessively,
# which keeps no backtracking state and halves the match time.
_CANONICAL = re.compile(
    r"p im ([0-9]{1,18}) ([0-9]{1,18}) ([0-9]{1,18})\n"
    r"(?:e [0-9]{1,18} [0-9]{1,18}\n)*"
    + ("+" if sys.version_info >= (3, 11) else "")
)

# Every isolated vertex shares this one: each frozenset() is a new object
# (216 bytes on Python 3.11), and a header may declare 32,768 vertices.
_NO_NEIGHBOURS = frozenset()


def read_instance(text: str) -> Instance:
    """Parse an instance file; raises ParseError / InconsistentHeaderError.

    A file in the canonical form that ``write_instance`` emits is read in
    bulk.  Anything else, and a canonical file that fails a check, is read
    line by line, with the same result; that loop alone accepts comments,
    blank lines, other whitespace and CRLF, and raises every error, with
    its line number.  Both readers raise TooLargeError on a header of more
    than ``MAX_VERTICES`` vertices, before any vertex is built.
    """
    inst = _read_canonical(text)
    return _read_lines(text) if inst is None else inst


def _read_canonical(text: str) -> Instance | None:
    """The instance of a canonical, valid ``text``, or None.

    Endpoints are converted once per distinct string, and checked in bulk.
    """
    match = _CANONICAL.fullmatch(text)
    if match is None:
        return None
    n, m, ell = map(int, match.groups())
    check_vertex_count(n)
    tokens = text.split()
    heads, tails = tokens[6::3], tokens[7::3]
    if len(heads) != m:
        return None
    number = {s: int(s) for s in {*heads, *tails}}
    if min(number.values(), default=1) < 1 or max(number.values(), default=n) > n:
        return None
    nbrs = {v: set() for v in number.values()}
    for u, v in zip(map(number.__getitem__, heads), map(number.__getitem__, tails)):
        nbrs[u].add(v)
        nbrs[v].add(u)
    # A duplicate edge adds no neighbour and a self-loop adds one, so the
    # sets sum to 2m only if every edge is new and joins two vertices.
    if sum(map(len, nbrs.values())) != 2 * m:
        return None
    return _instance(n, nbrs, ell)


def _read_lines(text: str) -> Instance:
    """The reference reader: one pass over the lines.

    Each edge goes straight into the neighbour sets of its endpoints, which
    also catch duplicate edges.
    """
    header = None
    nbrs = defaultdict(set)
    edge_count = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "c":
            continue
        if tokens[0] == "p":
            if header is not None:
                raise ParseError("duplicate header", lineno)
            if len(tokens) != 5 or tokens[1] != "im":
                raise ParseError("header must be 'p im <n> <m> <ell>'", lineno)
            try:
                n, m, ell = int(tokens[2]), int(tokens[3]), int(tokens[4])
            except ValueError:
                raise ParseError("header fields must be integers", lineno) from None
            if n < 0 or m < 0 or ell < 0:
                raise ParseError("header fields must be nonnegative", lineno)
            check_vertex_count(n)
            header = (n, m, ell)
        elif tokens[0] == "e":
            if header is None:
                raise ParseError("edge record before the header", lineno)
            if len(tokens) != 3:
                raise ParseError("edge record must be 'e <u> <v>'", lineno)
            try:
                u, v = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise ParseError("edge endpoints must be integers", lineno) from None
            n = header[0]
            if not (1 <= u <= n and 1 <= v <= n):
                raise InconsistentHeaderError(
                    f"endpoint outside 1..{n}", lineno
                )
            if u == v:
                raise ParseError("self-loop", lineno)
            if v in nbrs[u]:
                raise ParseError(f"duplicate edge {u} {v}", lineno)
            nbrs[u].add(v)
            nbrs[v].add(u)
            edge_count += 1
        else:
            raise ParseError(f"unknown record {tokens[0]!r}", lineno)
    if header is None:
        raise ParseError("missing 'p im' header")
    n, m, ell = header
    if edge_count != m:
        raise InconsistentHeaderError(
            f"header declares {m} edges but the file has {edge_count}"
        )
    return _instance(n, nbrs, ell)


def _instance(n: int, nbrs: dict, ell: int) -> Instance:
    """The instance on vertices 1..n, which are already in label order."""
    adj = dict.fromkeys(range(1, n + 1), _NO_NEIGHBOURS)
    for v, ns in nbrs.items():
        adj[v] = frozenset(ns)
    return Instance(Graph(adj), ell)


def write_instance(inst: Instance) -> str:
    """Canonical text for an instance.

    Vertices are renumbered 1..n by sorted label, so reading back a file
    written here reproduces it byte for byte.  A graph past
    ``MAX_VERTICES`` raises TooLargeError before anything is formatted:
    no reader would take its file.
    """
    g = inst.graph
    check_vertex_count(g.vertex_count)
    index = {v: i for i, v in enumerate(g.vertices, start=1)}
    lines = [f"p im {g.vertex_count} {g.edge_count} {inst.ell}"]
    # edges() yields each pair smaller label first, in label order.
    lines.extend(f"e {index[u]} {index[v]}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


# -- generators ---------------------------------------------------------------


def gen_random(n: int, p: float, seed: int) -> Graph:
    """Seed-deterministic G(n, p) on vertices 1..n."""
    if not 0 <= p <= 1:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    rng = random.Random(seed)
    labels = range(1, n + 1)
    edges = [
        (i, j) for i in labels for j in range(i + 1, n + 1) if rng.random() < p
    ]
    return Graph.build(labels, edges)


# Per generator kind: its keys with their defaults (None: required), and
# its flags.
_SPEC_KEYS = {
    "random": ({"n": None, "p": "0.5"}, ()),
    "cw": ({"u": "1", "w": "1", "p": "0.3", "nu": "1", "nw": "1"}, ("tight",)),
}


def _count(key: str, value: str, ranged: bool = False) -> tuple:
    """``(lo, hi, drawn)`` of a count ``k``, ``(k, k, False)``, or where
    ``ranged`` of a range ``lo-hi``, drawn once per vertex, even ``1-1``."""
    if value.startswith("-"):
        raise InvalidSpecError(f"{key} must be nonnegative, got {value}")
    lo, dash, hi = value.partition("-") if ranged else (value, "", "")
    try:
        lo, hi = int(lo), int(hi if dash else lo)
    except ValueError:
        raise InvalidSpecError(f"{key}={value} is not a count") from None
    if lo > hi:
        raise InvalidSpecError(f"{key}={value} is an empty range")
    return lo, hi, bool(dash)


def generate(spec_text: str, seed: int = 0) -> Graph:
    """Generate a graph from a declarative spec string, deterministically.

    ``random:n=8,p=0.5`` is ``gen_random(n, p, seed)``.
    ``cw:u=2,w=2,p=0.3,nu=1-2,nw=0-2[,tight]`` is a Cameron-Walker graph,
    with matching number = induced matching number: a connected bipartite
    core (a backbone, plus each other cross edge with probability p), then
    ``nu`` pendant vertices ``<u>_p<i>`` on each vertex of the u side and
    ``nw`` pendant triangles ``<w>_t<i>a``, ``<w>_t<i>b`` on each vertex of
    the w side; a count is a number or a range ``lo-hi``.  ``tight`` takes
    one pendant per u and a triangle or more per w, so the independence
    number is equal too.  One generator samples the cross edges; a second,
    seeded from the first, draws the counts, the u side first, each side in
    label order.

    The whole spec is checked before any draw, so a spec is refused
    (InvalidSpecError) at every seed or at none, and no accepted spec can
    give more than ``MAX_VERTICES`` vertices.
    """
    kind, _, body = spec_text.partition(":")
    kind = kind.strip()
    if kind not in _SPEC_KEYS:
        raise InvalidSpecError(f"unknown generator kind {kind!r}")
    defaults, known_flags = _SPEC_KEYS[kind]
    opts, flags = dict(defaults), set()
    for item in body.split(","):
        key, eq, value = (part.strip() for part in item.partition("="))
        if eq and key in opts:
            opts[key] = value
        elif eq:
            raise InvalidSpecError(f"a {kind} spec takes no key {key!r}")
        elif key in known_flags:
            flags.add(key)
        elif key:
            raise InvalidSpecError(f"a {kind} spec takes no flag {key!r}")
    try:
        p = float(opts["p"])
    except ValueError:
        raise InvalidSpecError(f"p={opts['p']} is not a number") from None
    if not 0 <= p <= 1:
        raise InvalidSpecError(f"edge probability must be in [0, 1], got {p}")
    if kind == "random":
        if opts["n"] is None:
            raise InvalidSpecError("a random spec needs the key 'n'")
        size, _, _ = _count("n", opts["n"])
    else:
        num_u, _, _ = _count("u", opts["u"])
        num_w, _, _ = _count("w", opts["w"])
        nu = _count("nu", opts["nu"], ranged=True)
        nw = _count("nw", opts["nw"], ranged=True)
        k = min(num_u, num_w)
        if num_u + num_w == 0:
            raise InvalidSpecError("the core must have at least one vertex")
        if k == 0 and num_u + num_w > 1:
            raise InvalidSpecError("the core must be connected")
        if num_u and nu[0] < 1:
            raise InvalidSpecError(f"nu={opts['nu']} must be at least 1 when u > 0")
        if "tight" in flags and num_u and nu[1] != 1:
            raise InvalidSpecError(f"nu={opts['nu']} must be 1 with tight")
        if "tight" in flags and num_w and nw[0] < 1:
            raise InvalidSpecError(f"nw={opts['nw']} must be at least 1 with tight")
        size = num_u * (1 + nu[1]) + num_w * (1 + 2 * nw[1])
    if size > MAX_VERTICES:
        raise InvalidSpecError(
            f"{spec_text!r} can give {size} vertices, more than the vertex cap "
            f"({MAX_VERTICES})"
        )
    if kind == "random":
        return gen_random(size, p, seed)
    rng = random.Random(seed)
    u_side = [f"u{i}" for i in range(1, num_u + 1)]
    w_side = [f"w{i}" for i in range(1, num_w + 1)]
    edges = set()
    if k:
        # A deterministic backbone keeps the core connected at any p: the
        # path u1 w1 .. uk wk, and each other vertex joined to uk or wk.
        edges.update((u, w_side[min(i, k - 1)]) for i, u in enumerate(u_side))
        edges.update((u_side[min(j + 1, k - 1)], w) for j, w in enumerate(w_side))
    for u in u_side:
        for w in w_side:
            if rng.random() < p:
                edges.add((u, w))
    counts = random.Random(rng.randrange(2**32))

    def draw(lo, hi, drawn):
        return counts.randint(lo, hi) if drawn else lo

    edges = sorted(edges)
    for u in sort_labels(u_side):
        edges += [(u, f"{u}_p{i}") for i in range(1, draw(*nu) + 1)]
    for w in sort_labels(w_side):
        for i in range(1, draw(*nw) + 1):
            ta, tb = f"{w}_t{i}a", f"{w}_t{i}b"
            edges += [(w, ta), (w, tb), (ta, tb)]
    # Each generated vertex ends an edge, and is new: core labels hold no "_".
    return Graph.build(u_side + w_side + [y for _, y in edges], edges)


# -- hardness reductions ------------------------------------------------------


def reduce_dominating_set(g: Graph, ell: int) -> Instance:
    """Subdivide every edge and flip the question.

    Maps "does ``g`` have a dominating set of size at most ``ell``" to
    "does the full subdivision have an induced matching of size
    ``n - ell``".  Requires a connected input with at least one cycle.
    The subdivision vertex of edge (u, v) is labeled "u_v" (endpoints in
    sorted order) so certificates decode back to edges of ``g``.
    """
    if len(g.connected_components()) != 1:
        raise DisconnectedError("the reduction requires a connected graph")
    n, m = g.vertex_count, g.edge_count
    if m < n:
        raise AcyclicError("the reduction requires at least one cycle")
    if not 0 <= ell <= n:
        raise ValueError(f"the target must lie in 0..{n}, got {ell}")
    labels = list(g.vertices)
    taken = set(labels)
    new_edges = []
    for u, v in g.edges():
        mid = f"{u}_{v}"
        if mid in taken:
            raise ValueError(
                f"label {mid!r} already exists; cannot name subdivision vertices"
            )
        taken.add(mid)
        labels.append(mid)
        new_edges.append((u, mid))
        new_edges.append((v, mid))
    return Instance(Graph.build(labels, new_edges), n - ell)


def reduce_multicolored_is(g: Graph, cliques) -> Instance:
    """Attach one apex per clique of a clique partition.

    The apex of the i-th clique is labeled ``v<i>`` and is adjacent to
    exactly that clique, which pins the independence number of the result
    to the number of cliques; the instance asks for an induced matching of
    that size.
    """
    parts = [frozenset(part) for part in cliques]
    seen: set = set()
    for part in parts:
        if not part:
            raise ValueError("empty part in the clique partition")
        if part & seen:
            raise ValueError("clique parts overlap")
        seen |= part
    if seen != frozenset(g.vertices):
        raise ValueError("clique parts must cover every vertex")
    for part in parts:
        for x, y in combinations(sort_labels(part), 2):
            if not g.has_edge(x, y):
                raise NotACliqueError(
                    f"part {sort_labels(part)} misses the edge {x!r}-{y!r}"
                )
    labels = list(g.vertices)
    edges = list(g.edges())
    for i, part in enumerate(parts, start=1):
        apex = f"v{i}"
        if apex in g:
            raise ValueError(f"label {apex!r} already exists; cannot add apexes")
        labels.append(apex)
        edges.extend((apex, x) for x in sort_labels(part))
    return Instance(Graph.build(labels, edges), len(parts))
