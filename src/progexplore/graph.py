"""Simple undirected graphs: capped BFS, powers, half-squares, parsing, generators.

Vertices are dense 0-based integers.  ``INF`` marks a distance beyond the
BFS cap.  Graphs are immutable after construction and safe to share.
"""
from __future__ import annotations

import json
import math
import random
from array import array
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import accumulate, combinations

from .errors import InputError, InternalInvariantError, ParseError

INF = math.inf

GENERATOR_FAMILIES = (
    "grid",
    "path",
    "cycle",
    "star",
    "tree",
    "bounded_degree_random",
    "complete_bipartite",
    "ktt_free_random",
    "power_of",
    "half_square_of_planar_bipartite",
)

# Generated instances up to this size are re-checked against their family
# predicate, so tests that trust the generators stay honest.
_REVALIDATE_LIMIT = 14


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with sorted adjacency lists."""

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        if n < 0:
            raise InputError(f"negative vertex count {n}")
        adj = [[] for _ in range(n)]
        seen = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            key = u * n + v if u < v else v * n + u
            if key in seen:
                raise InputError(f"duplicate edge ({u},{v})")
            seen.add(key)
            adj[u].append(v)
            adj[v].append(u)
        return _from_adjacency(adj)

    @property
    def m(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    @property
    def size(self) -> int:
        """n + m, the total size used in cost accounting."""
        return self.n + self.m

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def edges(self):
        for u in range(self.n):
            for v in self.adjacency[u]:
                if u < v:
                    yield (u, v)


def _from_adjacency(adj) -> Graph:
    """Graph from already-validated adjacency lists, each sorted and put
    back as a tuple in its slot, so every list is freed as its tuple is
    made and the collector's count of live new objects stays flat."""
    for i, a in enumerate(adj):
        a.sort()
        adj[i] = tuple(a)
    return Graph(len(adj), tuple(adj))


def ball_distances(g: Graph, sources, cap, allowed=None) -> dict:
    """``{vertex within cap of some source: distance to the nearest}``, in
    BFS order, sources first: the one BFS of the package.

    ``allowed`` optionally restricts the search to an induced subgraph (a
    set of vertex ids holding every source).  The work is proportional to
    the ball; nothing of length n is allocated.
    """
    if cap < 0:
        raise InputError(f"negative BFS cap {cap}")
    dist = {}
    for s in sources:
        if not (0 <= s < g.n):
            raise InputError(f"invalid source vertex {s}")
        if allowed is not None and s not in allowed:
            raise InputError(f"source {s} not in allowed set")
        dist[s] = 0
    frontier, d = list(dist), 0
    while frontier and d < cap:
        d += 1
        layer = []
        for u in frontier:
            for w in g.adjacency[u]:
                if w not in dist and (allowed is None or w in allowed):
                    dist[w] = d
                    layer.append(w)
        frontier = layer
    return dist


def bfs_capped(g: Graph, source: int, cap, allowed=None):
    """Distances from ``source``, exact up to ``cap``, INF beyond: the
    full-list view of :func:`ball_distances`, for callers that read every
    vertex."""
    dist = [INF] * g.n
    for v, d in ball_distances(g, (source,), cap, allowed).items():
        dist[v] = d
    return dist


def ball(g: Graph, source: int, radius, allowed=None):
    """Vertices within distance ``radius`` of ``source`` (induced arena)."""
    return set(ball_distances(g, (source,), radius, allowed))


def graph_power(g: Graph, s: int) -> Graph:
    """G^s: edge {u,v} iff 1 <= dist_G(u,v) <= s."""
    if s < 1:
        raise InputError(f"graph power exponent must be >= 1, got {s}")
    if s == 1:
        return g
    edges = []
    for u in range(g.n):
        edges.extend((u, v) for v in sorted(ball_distances(g, (u,), s))
                     if v > u)
    return Graph.from_edges(g.n, edges)


def half_square(h: Graph, bipartition_side) -> Graph:
    """Subgraph of H^2 induced by one side of a bipartition of H.

    Vertex ``i`` of the result corresponds to ``sorted(bipartition_side)[i]``.
    """
    side = sorted(set(bipartition_side))
    side_set = set(side)
    for u in side:
        if not (0 <= u < h.n):
            raise InputError(f"side vertex {u} out of range")
    for u, v in h.edges():
        if (u in side_set) == (v in side_set):
            raise InputError(
                f"edge ({u},{v}) does not cross the given bipartition"
            )
    index = {u: i for i, u in enumerate(side)}
    edges = set()
    for w in range(h.n):
        if w in side_set:
            continue
        nbrs = [x for x in h.adjacency[w] if x in side_set]
        for a, b in combinations(sorted(nbrs), 2):
            edges.add((index[a], index[b]))
    return Graph.from_edges(len(side), sorted(edges))


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: header "n m", then m lines "u v"."""
    adj = _bulk_edge_list(text)
    return _walk_edge_list(text) if adj is None else _from_adjacency(adj)


def parse_dimacs(text: str) -> Graph:
    """Parse DIMACS .col: 'c' comments, one 'p edge n m' problem line and
    'e u v' edge lines with 1-based ids."""
    problem = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped[:2] != "e ":  # edge lines skip the split below
            if not stripped or stripped[0] == "c":
                continue
            toks = stripped.split()
            if toks[0] == "p":
                if problem is not None:
                    raise ParseError("duplicate problem line", line=lineno)
                if len(toks) != 4 or toks[1] != "edge":
                    raise ParseError("problem line must be 'p edge n m'",
                                     line=lineno)
                problem = lineno, *_header_counts(toks[2:], lineno)
                continue
            if toks[0] != "e":
                raise ParseError(f"unknown line type '{toks[0]}'",
                                 line=lineno)
        if problem is None:
            raise ParseError("edge before problem line", line=lineno)
        edges.append((lineno, stripped[1:]))
    if problem is None:
        raise ParseError("missing problem line")
    header_line, n, m = problem
    return _read_edges(n, m, header_line, edges, 1)


_DROP_DIGITS = str.maketrans("", "", "0123456789")
_COMMAS = str.maketrans(" \n", ",,")


def _bulk_edge_list(text):
    """The adjacency of a canonical edge list, as ``serialize_graph``
    writes it ("n m", then m lines "u v": ASCII digits without leading
    zeros, single spaces, "\\n" line ends, the final one optional), or None
    on any doubt.

    A bulk reader checks and converts the whole text at once, with no
    work per line in Python, and returns the adjacency lists unsorted.  On
    None the parser reads the file line by line, the same way or naming
    the faulty line, so this path changes no result and no message."""
    head, _, body = text.partition("\n")
    words = head.split()
    if head.translate(_DROP_DIGITS) != " " or len(words) != 2:
        return None
    try:
        n, m = map(int, words)
    except ValueError:  # more digits than int converts
        return None
    # digits deleted, the body must be " \n" m times: this rejects signs,
    # '_', non-ASCII digits, tabs, '\r', blank lines and a third id.  Its
    # length is checked first, so the header's m never sizes a string.
    shape = body.translate(_DROP_DIGITS)
    if (len(shape) not in (2 * m, 2 * m - 1)
            or shape != (" \n" * m)[:len(shape)]):
        return None
    # one JSON array of the ids: an empty id is a syntax error, and of the
    # digit strings int takes, JSON refuses only those with a leading zero
    spelled = body.removesuffix("\n").translate(_COMMAS)
    try:
        ids = json.loads(f"[{spelled}]")
    except ValueError:  # a leading zero, or more digits than int converts
        return None
    if len(ids) != 2 * m or (ids and max(ids) >= n):
        return None
    adj = [[] for _ in range(n)]
    it = iter(ids)
    for u, v in zip(it, it):
        adj[u].append(v)
        adj[v].append(u)
    # a self-loop or a repeated edge, either way round, repeats a neighbour
    if sum(map(len, map(set, adj))) != 2 * m:
        return None
    return adj


def _walk_edge_list(text) -> Graph:
    """:func:`parse_graph` line by line; every fault names its line."""
    header_line, (n, m), edges = _headed_lines(text, "n m")
    return _read_edges(n, m, header_line, edges, 0)


def _headed_lines(text, form):
    """The first non-blank line's number, the counts it spells (one per
    name in ``form``) and the numbered non-blank lines after it, stripped."""
    lines = [(i, s) for i, raw in enumerate(text.splitlines(), start=1)
             if (s := raw.strip())]
    if not lines:
        raise ParseError("empty input")
    header_line, header = lines[0]
    header = header.split()
    if len(header) != len(form.split()):
        raise ParseError(f"header must be '{form}'", line=header_line)
    return header_line, _header_counts(header, header_line), lines[1:]


def _header_counts(tokens, lineno):
    """The counts a header line spells, each a non-negative integer."""
    try:
        if not all(map(_plain, tokens)):
            raise ValueError(tokens)
        counts = [int(t) for t in tokens]
    except ValueError:
        raise ParseError("header counts must be integers",
                         line=lineno) from None
    if min(counts, default=0) < 0:
        raise ParseError("negative count in header", line=lineno)
    return counts


def _plain(text) -> bool:
    """False if ``text`` holds a '+', a '_' or a non-ASCII character, all of
    which ``int`` takes: ids and counts are ASCII decimal digits after an
    optional '-'."""
    return text.isascii() and "_" not in text and "+" not in text


def _id_pairs(lines):
    """``(line number, a, b, int(a), int(b))`` for each ``(line number,
    "a b")`` of ``lines``; a line that does not spell two integers is a
    :class:`ParseError` naming it."""
    for lineno, stripped in lines:
        try:
            a, b = stripped.split()
            if not (_plain(a) and _plain(b)):
                raise ValueError(stripped)
            u, v = int(a), int(b)
        except ValueError:
            if len(stripped.split()) != 2:
                raise ParseError("edge line must hold two vertex ids",
                                 line=lineno) from None
            raise ParseError("edge endpoints must be integers",
                             line=lineno) from None
        yield lineno, a, b, u, v


def _read_edges(n, m, header_line, lines, base) -> Graph:
    """The graph whose edges are ``lines``, ``(line number, "u v")`` pairs
    with ids counted from ``base``, after checking the header's count ``m``
    and every edge.  A fault names its line and the ids as written."""
    if len(lines) != m:
        raise ParseError(f"expected {m} edge lines, found {len(lines)}",
                         line=header_line)
    adj = [[] for _ in range(n)]
    seen = set()
    for lineno, a, b, u, v in _id_pairs(lines):
        u, v = u - base, v - base
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"vertex id out of range in ({a},{b})",
                             line=lineno)
        if u == v:
            raise ParseError(f"self-loop at vertex {a}", line=lineno)
        key = u * n + v if u < v else v * n + u
        if key in seen:
            raise ParseError(f"duplicate or reversed edge ({a},{b})",
                             line=lineno)
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)
    return _from_adjacency(adj)


def serialize_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def has_ktt(g: Graph, t: int) -> bool:
    """Exhaustive check for a K_{t,t} subgraph (intended for small graphs)."""
    if t < 1:
        raise InputError(f"t must be >= 1, got {t}")
    nbr_sets = [set(a) for a in g.adjacency]
    for left in combinations(range(g.n), t):
        common = set(range(g.n))
        for u in left:
            common &= nbr_sets[u]
        common -= set(left)
        if len(common) >= t:
            return True
    return False


def _require(params, *keys):
    """The named params, each of which must be present."""
    for key in keys:
        if key not in params:
            raise InputError(f"generator params missing '{key}'")
    return [params[k] for k in keys]


def _integers(params, *keys):
    """The named params, each of which must be present and an integer."""
    return [_integer(k, v) for k, v in zip(keys, _require(params, *keys))]


def _optional_integer(params, key, default):
    value = params.get(key)
    return default if value is None else _integer(key, value)


def _integer(key, value):
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(
            f"generator param '{key}' must be an integer, got {value!r}")
    return value


def _gen_grid(params, rng):
    rows, cols = _integers(params, "rows", "cols")
    if rows < 1 or cols < 1:
        raise InputError("grid dimensions must be positive")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph.from_edges(rows * cols, edges)


def _gen_path(params, rng):
    (n,) = _integers(params, "n")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def _gen_cycle(params, rng):
    (n,) = _integers(params, "n")
    if n < 3:
        raise InputError("cycle needs n >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _gen_star(params, rng):
    (n,) = _integers(params, "n")
    if n < 1:
        raise InputError("star needs n >= 1")
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def _gen_tree(params, rng):
    (n,) = _integers(params, "n")
    max_depth = _optional_integer(params, "max_depth", None)
    if n < 1:
        raise InputError("tree needs n >= 1")
    depth = [0] * n
    # The vertices that may still take a child, in id order: ``choice``
    # reads only length and indexing, so this picks the parent that the
    # filtered ``range(v)`` would.
    eligible = [0] if max_depth is None or max_depth > 0 else []
    edges = []
    for v in range(1, n):
        if not eligible:
            raise InputError("max_depth too small for requested n")
        parent = rng.choice(eligible)
        depth[v] = depth[parent] + 1
        if max_depth is None or depth[v] < max_depth:
            eligible.append(v)
        edges.append((parent, v))
    return Graph.from_edges(n, edges)


def _shuffled_pairs(n, rng):
    """Yield the pairs of ``combinations(range(n), 2)`` in the order that
    ``rng.shuffle`` gives their list.

    ``shuffle`` draws its swaps from the length alone, so shuffling an
    array of pair indices gives the same permutation in 4 bytes a pair
    (8 past 2**32 pairs) instead of a tuple and a list slot.
    """
    if n < 0:
        raise InputError(f"negative vertex count {n}")
    total = n * (n - 1) // 2
    order = array("I" if total <= 1 << 8 * array("I").itemsize else "Q",
                  range(total))
    rng.shuffle(order)
    # starts[u] is the index of the pair (u, u + 1).
    starts = list(accumulate(range(n - 1, 1, -1), initial=0))
    for i in order:
        u = bisect_right(starts, i) - 1
        yield u, u + 1 + i - starts[u]


def _gen_bounded_degree_random(params, rng):
    n, max_degree = _integers(params, "n", "max_degree")
    target = _optional_integer(params, "m", n)
    if max_degree < 0:
        raise InputError("max_degree must be >= 0")
    if target < 0 <= n:  # _shuffled_pairs rejects a negative n
        raise InputError("m must be >= 0")
    deg = [0] * n
    edges = []
    for u, v in _shuffled_pairs(n, rng):
        if len(edges) >= target:
            break
        if deg[u] < max_degree and deg[v] < max_degree:
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return Graph.from_edges(n, edges)


def _gen_complete_bipartite(params, rng):
    a, b = _integers(params, "a", "b")
    if a < 0 or b < 0:
        raise InputError("sides must be non-negative")
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    return Graph.from_edges(a + b, edges)


def _gen_ktt_free_random(params, rng):
    n, t = _integers(params, "n", "t")
    target = _optional_integer(params, "m", 2 * n)
    if t < 1:
        raise InputError(f"t must be >= 1, got {t}")
    if target < 0 <= n:  # _shuffled_pairs rejects a negative n
        raise InputError("m must be >= 0")
    nbrs = [set() for _ in range(n)]
    edges = []
    for u, v in _shuffled_pairs(n, rng):
        if len(edges) >= target:
            break
        if not _closes_ktt(nbrs, u, v, t):
            nbrs[u].add(v)
            nbrs[v].add(u)
            edges.append((u, v))
    return Graph.from_edges(n, edges)


def _closes_ktt(nbrs, u, v, t) -> bool:
    """Whether the new edge uv gives the K_{t,t}-free graph ``nbrs`` a
    K_{t,t}.  Any new one holds uv: u and t - 1 other neighbours of v on
    one side, v and t - 1 other common neighbours of those t on the other
    (a vertex is never its own neighbour, so the sides are disjoint)."""
    return any(len(nbrs[u].intersection(*(nbrs[w] for w in rest))) >= t - 1
               for rest in combinations(nbrs[v], t - 1))


def _gen_power_of(params, rng):
    family, inner = _require(params, "family", "params")
    (s,) = _integers(params, "s")
    base = generate(family, inner, seed=_optional_integer(params, "seed", 0))
    return graph_power(base, s)


def _gen_half_square_of_planar_bipartite(params, rng):
    rows, cols = _integers(params, "rows", "cols")
    h = _gen_grid({"rows": rows, "cols": cols}, rng)
    side = [r * cols + c for r in range(rows) for c in range(cols)
            if (r + c) % 2 == 0]
    return half_square(h, side)


_GENERATORS = {
    "grid": _gen_grid,
    "path": _gen_path,
    "cycle": _gen_cycle,
    "star": _gen_star,
    "tree": _gen_tree,
    "bounded_degree_random": _gen_bounded_degree_random,
    "complete_bipartite": _gen_complete_bipartite,
    "ktt_free_random": _gen_ktt_free_random,
    "power_of": _gen_power_of,
    "half_square_of_planar_bipartite": _gen_half_square_of_planar_bipartite,
}


def _validate_family(g: Graph, family: str, params) -> None:
    if family == "grid":
        ok = g.adjacency == _gen_grid(params, None).adjacency
    elif family == "path":
        ok = (g.m == max(g.n - 1, 0)
              and all(g.degree(v) <= 2 for v in range(g.n)))
    elif family == "cycle":
        ok = g.m == g.n and all(g.degree(v) == 2 for v in range(g.n))
    elif family == "star":
        ok = (g.m == g.n - 1
              and all(g.degree(v) == 1 for v in range(1, g.n)))
    elif family == "tree":
        ok = (g.m == g.n - 1
              and all(d is not INF for d in bfs_capped(g, 0, g.n)))
    elif family == "bounded_degree_random":
        ok = all(g.degree(v) <= params["max_degree"] for v in range(g.n))
    elif family == "complete_bipartite":
        ok = g.m == params["a"] * params["b"]
    elif family == "ktt_free_random":
        ok = not has_ktt(g, params["t"])
    else:
        ok = True
    if not ok:
        raise InternalInvariantError(
            f"generated '{family}' graph fails its family check")


def generate(family: str, params, seed: int = 0) -> Graph:
    """Build a graph from a named family; deterministic for a fixed seed."""
    if not isinstance(family, str) or family not in _GENERATORS:
        raise InputError(f"unknown family '{family}'")
    if not isinstance(params, Mapping):
        raise InputError(f"generator params must be a mapping, got "
                         f"{type(params).__name__}")
    rng = random.Random(seed)
    g = _GENERATORS[family](dict(params), rng)
    if g.n <= _REVALIDATE_LIMIT:
        _validate_family(g, family, params)
    return g
