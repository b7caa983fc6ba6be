"""Simple undirected graphs: capped BFS, powers, half-squares, parsing, generators.

Vertices are dense 0-based integers.  ``INF`` marks a distance beyond the
BFS cap.  Graphs are immutable after construction and safe to share.
"""
from __future__ import annotations

import math
import random
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import combinations

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
            key = (min(u, v), max(u, v))
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
    """Graph from already-validated adjacency lists, sorted here in place."""
    for a in adj:
        a.sort()
    return Graph(len(adj), tuple(map(tuple, adj)))


def bfs_capped(g: Graph, source: int, cap, allowed=None):
    """Distances from ``source``, exact up to ``cap``, INF beyond.

    ``allowed`` optionally restricts the search to an induced subgraph
    (a set of vertex ids containing ``source``).
    """
    return bfs_reach(g, source, cap, allowed)[0]


def bfs_reach(g: Graph, source: int, cap, allowed=None):
    """``(dist, reached)``: the distances of :func:`bfs_capped` and the
    vertices within ``cap`` of ``source``, in BFS order (source first).

    The work beyond allocating ``dist`` is proportional to the ball, so a
    caller that reads only ``reached`` never scans all n vertices.
    """
    if not (0 <= source < g.n):
        raise InputError(f"invalid source vertex {source}")
    if cap < 0:
        raise InputError(f"negative BFS cap {cap}")
    if allowed is not None and source not in allowed:
        raise InputError(f"source {source} not in allowed set")
    dist = [INF] * g.n
    dist[source] = 0
    return dist, _settle(g, dist, [source], cap, allowed)


def multi_source_distances(g: Graph, sources, cap):
    """Distance to the nearest vertex of ``sources``, exact up to ``cap``,
    INF beyond: one BFS for the whole set."""
    if cap < 0:
        raise InputError(f"negative BFS cap {cap}")
    dist = [INF] * g.n
    queue = []
    for s in sources:
        if not (0 <= s < g.n):
            raise InputError(f"invalid source vertex {s}")
        if dist[s] is INF:
            dist[s] = 0
            queue.append(s)
    _settle(g, dist, queue, cap, None)
    return dist


def _settle(g: Graph, dist, reached, cap, allowed):
    """Run the capped BFS whose sources are ``reached`` (already at
    distance 0 in ``dist``), appending each vertex it settles to
    ``reached``; return ``reached``."""
    for u in reached:  # the list doubles as the FIFO queue
        du = dist[u]
        if du == cap:
            continue
        for w in g.adjacency[u]:
            # FIFO order settles each vertex at first sight, so ``reached``
            # lists every vertex once
            if dist[w] is INF and (allowed is None or w in allowed):
                dist[w] = du + 1
                reached.append(w)
    return reached


def ball(g: Graph, source: int, radius, allowed=None):
    """Vertices within distance ``radius`` of ``source`` (induced arena)."""
    return set(bfs_reach(g, source, radius, allowed=allowed)[1])


def graph_power(g: Graph, s: int) -> Graph:
    """G^s: edge {u,v} iff 1 <= dist_G(u,v) <= s."""
    if s < 1:
        raise InputError(f"graph power exponent must be >= 1, got {s}")
    if s == 1:
        return g
    edges = []
    for u in range(g.n):
        reached = bfs_reach(g, u, s)[1]
        edges.extend((u, v) for v in sorted(reached) if v > u)
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
    lines = text.splitlines()
    header = None
    header_line = 0
    body = []
    for i, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if header is None:
            header = stripped
            header_line = i
        else:
            body.append((i, stripped))
    if header is None:
        raise ParseError("empty graph file")
    parts = header.split()
    if len(parts) != 2:
        raise ParseError("header must be 'n m'", line=header_line)
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError("header must contain two integers", line=header_line)
    if n < 0 or m < 0:
        raise ParseError("negative counts in header", line=header_line)
    if len(body) != m:
        raise ParseError(
            f"expected {m} edge lines, found {len(body)}", line=header_line
        )
    adj = [[] for _ in range(n)]
    seen = set()
    for lineno, stripped in body:
        toks = stripped.split()
        if len(toks) != 2:
            raise ParseError("edge line must be 'u v'", line=lineno)
        try:
            u, v = int(toks[0]), int(toks[1])
        except ValueError:
            raise ParseError("edge endpoints must be integers", line=lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"vertex id out of range in ({u},{v})", line=lineno)
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", line=lineno)
        key = u * n + v if u < v else v * n + u
        if key in seen:
            raise ParseError(f"duplicate or reversed edge ({u},{v})", line=lineno)
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)
    return _from_adjacency(adj)


def parse_dimacs(text: str) -> Graph:
    """Parse DIMACS .col: 'p edge n m' header, 'e u v' 1-based edges."""
    n = None
    m = None
    adj = None
    seen = set()
    count = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("c"):
            continue
        toks = stripped.split()
        if toks[0] == "p":
            if n is not None:
                raise ParseError("duplicate problem line", line=lineno)
            if len(toks) != 4 or toks[1] != "edge":
                raise ParseError("problem line must be 'p edge n m'", line=lineno)
            try:
                n, m = int(toks[2]), int(toks[3])
            except ValueError:
                raise ParseError("non-integer counts in problem line", line=lineno)
            if n < 0:
                raise ParseError(f"negative vertex count {n}", line=lineno)
            adj = [[] for _ in range(n)]
        elif toks[0] == "e":
            if n is None:
                raise ParseError("edge before problem line", line=lineno)
            if len(toks) != 3:
                raise ParseError("edge line must be 'e u v'", line=lineno)
            try:
                u, v = int(toks[1]) - 1, int(toks[2]) - 1
            except ValueError:
                raise ParseError("non-integer edge endpoints", line=lineno)
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"vertex id out of range", line=lineno)
            if u == v:
                raise ParseError(f"self-loop at vertex {u + 1}", line=lineno)
            key = u * n + v if u < v else v * n + u
            if key in seen:
                raise ParseError("duplicate or reversed edge", line=lineno)
            seen.add(key)
            adj[u].append(v)
            adj[v].append(u)
            count += 1
        else:
            raise ParseError(f"unknown line type '{toks[0]}'", line=lineno)
    if n is None:
        raise ParseError("missing problem line")
    if m is not None and count != m:
        raise ParseError(f"expected {m} edges, found {count}")
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
    edges = []
    for v in range(1, n):
        choices = range(v)
        if max_depth is not None:
            choices = [u for u in choices if depth[u] < max_depth]
            if not choices:
                raise InputError("max_depth too small for requested n")
        parent = rng.choice(choices)
        depth[v] = depth[parent] + 1
        edges.append((parent, v))
    return Graph.from_edges(n, edges)


def _gen_bounded_degree_random(params, rng):
    n, max_degree = _integers(params, "n", "max_degree")
    target = _optional_integer(params, "m", n)
    if max_degree < 0:
        raise InputError("max_degree must be >= 0")
    candidates = list(combinations(range(n), 2))
    rng.shuffle(candidates)
    deg = [0] * n
    edges = []
    for u, v in candidates:
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
    candidates = list(combinations(range(n), 2))
    rng.shuffle(candidates)
    adj = [[] for _ in range(n)]
    edges = []
    for u, v in candidates:
        if len(edges) >= target:
            break
        adj[u].append(v)
        adj[v].append(u)
        trial = _from_adjacency(adj)
        if has_ktt(trial, t):
            adj[u].remove(v)
            adj[v].remove(u)
        else:
            edges.append((u, v))
    return Graph.from_edges(n, edges)


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
