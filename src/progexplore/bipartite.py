"""Explicit bipartite graphs and the small-scale exact machinery built on them.

This module is the correctness oracle for the rest of the package: exact
co-matching / ladder / semi-ladder indices, Helly-property checks with
counterexamples, brute-force coverage, the constructive Ramsey extraction,
and explicit materialization of the candidate/witness graph of a formula.
Everything here is exponential and intended for graphs of desk scale.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .errors import InputError, ParseError, ResourceBudgetError
from .formulas import DistanceFormula, DistanceMatrix, evaluate
from .graph import Graph, _headed_lines, _id_pairs, bfs_capped

COMATCHING = "comatching"
LADDER = "ladder"
SEMILADDER = "semiladder"
OBSTRUCTION_KINDS = (COMATCHING, LADDER, SEMILADDER)


@dataclass(frozen=True)
class BipartiteGraph:
    left_size: int
    right_size: int
    left_adj: tuple  # per left vertex, bitmask over right vertices

    @classmethod
    def from_edges(cls, left_size, right_size, edges) -> "BipartiteGraph":
        if left_size < 0 or right_size < 0:
            raise InputError("sizes must be >= 0")
        adj = [0] * left_size
        for l, r in edges:
            if not (0 <= l < left_size and 0 <= r < right_size):
                raise InputError(f"edge ({l},{r}) out of range")
            if adj[l] >> r & 1:
                raise InputError(f"duplicate edge ({l},{r})")
            adj[l] |= 1 << r
        return cls(left_size, right_size, tuple(adj))

    def has_edge(self, l: int, r: int) -> bool:
        return bool(self.left_adj[l] >> r & 1)

    @property
    def m(self) -> int:
        return sum(mask.bit_count() for mask in self.left_adj)

    def edges(self):
        for l, mask in enumerate(self.left_adj):
            for r in _bits(mask):
                yield (l, r)

    def right_adj(self) -> tuple:
        """Per right vertex, bitmask over left vertices."""
        out = [0] * self.right_size
        for l, mask in enumerate(self.left_adj):
            for r in _bits(mask):
                out[r] |= 1 << l
        return tuple(out)


@dataclass(frozen=True)
class Obstruction:
    kind: str
    a_seq: tuple  # left vertices
    b_seq: tuple  # right vertices

    @property
    def order(self) -> int:
        return len(self.a_seq)

    def verify(self, h: BipartiteGraph) -> bool:
        if self.kind not in OBSTRUCTION_KINDS:
            return False
        if len(self.a_seq) != len(self.b_seq):
            return False
        n = len(self.a_seq)
        for i in range(n):
            for j in range(n):
                edge = h.has_edge(self.a_seq[i], self.b_seq[j])
                if self.kind == COMATCHING:
                    if edge != (i != j):
                        return False
                elif self.kind == LADDER:
                    if edge != (i > j):
                        return False
                else:  # semi-ladder: only i > j and the diagonal are pinned
                    if i > j and not edge:
                        return False
                    if i == j and edge:
                        return False
        return True


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def index_of(h: BipartiteGraph, kind: str,
             node_budget: int = 2_000_000) -> tuple:
    """Exact maximum obstruction order plus a witnessing obstruction.

    Twins (left vertices with equal rows, right vertices with equal
    columns) are searched once: an obstruction's rows and columns are
    pairwise distinct, so it never uses two twins.  The search runs on the
    graph of the lowest-index vertex of each twin class and maps the
    obstruction back, which is the obstruction the search over all of
    ``h`` picks, since a twin gives the same children as the lower twin
    scanned before it.

    Exhaustive search over extension states; states are memoized on the
    pools of still-usable vertices, which fully determine the remaining
    depth.  Ladder and co-matching states stop scanning moves once their
    depth reaches an upper bound on it, and skip a move whose child's
    bound cannot beat the depth found so far; only strict improvements
    change the chosen move, so pruning never changes the obstruction.
    ``node_budget`` counts the states of the search on the twin classes.
    Exceeding it or the interpreter's recursion limit raises
    ResourceBudgetError, never returns a wrong answer.
    """
    if kind not in OBSTRUCTION_KINDS:
        raise InputError(f"unknown obstruction kind '{kind}'")
    left_reps = _class_representatives(h.left_adj)
    right_reps = _class_representatives(h.right_adj())
    classes = BipartiteGraph(len(left_reps), len(right_reps), tuple(
        sum(1 << j for j, b in enumerate(right_reps) if h.left_adj[a] >> b & 1)
        for a in left_reps))
    order, a_seq, b_seq = _search(classes, kind, node_budget)
    return order, Obstruction(kind, tuple(left_reps[a] for a in a_seq),
                              tuple(right_reps[b] for b in b_seq))


def _class_representatives(masks) -> list:
    """The lowest index holding each distinct mask, in increasing order."""
    first = {}
    for i, mask in enumerate(masks):
        first.setdefault(mask, i)
    return list(first.values())


def _search(h: BipartiteGraph, kind: str, node_budget: int) -> tuple:
    """index_of's search on ``h`` itself: the order and the two sequences."""
    full_l = (1 << h.left_size) - 1
    full_r = (1 << h.right_size) - 1
    radj = h.right_adj()
    memo = {}
    visits = 0

    def spend():
        nonlocal visits
        visits += 1
        if visits > node_budget:
            raise ResourceBudgetError(
                f"{kind} obstruction search exceeded its budget of "
                f"{node_budget} states ({visits - 1} visited, memo holds "
                f"{len(memo)})")

    if kind == SEMILADDER:
        # State: left vertices adjacent to every witness chosen so far.
        # Only the chosen witness matters for the future; the candidate
        # merely needs to exist (it never constrains later steps).
        def best(a_pool):
            hit = memo.get(a_pool)
            if hit is not None:
                return hit
            spend()
            depth, choice = 0, None
            for b in range(h.right_size):
                if a_pool & ~radj[b] & full_l:
                    sub, _ = best(a_pool & radj[b])
                    if sub + 1 > depth:
                        depth, choice = sub + 1, b
            memo[a_pool] = (depth, choice)
            return depth, choice
    else:
        # a_pool: left vertices adjacent to every chosen witness.  b_pool:
        # right vertices non-adjacent (ladder) or adjacent (co-matching) to
        # every chosen candidate; the co-matching pattern is permutation-
        # invariant, so sequential construction loses nothing.  keep[a] is
        # what choosing candidate a leaves of b_pool.
        non_adj = [full_r & ~mask for mask in h.left_adj]
        keep = non_adj if kind == LADDER else h.left_adj

        def best(a_pool, b_pool):
            key = (a_pool, b_pool)
            hit = memo.get(key)
            if hit is not None:
                return hit
            spend()
            # A move pairs a with a non-adjacent b, and an obstruction uses
            # distinct vertices, so the depth is at most the number of
            # usable a's and of usable b's (those in some a's move set).
            moves, usable_b = [], 0
            for a in _bits(a_pool):
                bs = b_pool & non_adj[a]
                if bs:
                    moves.append((a, bs))
                    usable_b |= bs
            cap = min(len(moves), usable_b.bit_count())
            depth, choice = 0, None
            for a, bs in moves:
                if depth == cap:
                    break
                child_b = b_pool & keep[a]
                if child_b.bit_count() < depth:
                    continue
                for b in _bits(bs):
                    child_a = a_pool & radj[b]
                    if child_a.bit_count() < depth:
                        continue
                    sub, _ = best(child_a, child_b)
                    if sub + 1 > depth:
                        depth, choice = sub + 1, (a, b)
                        if depth == cap:
                            break
            memo[key] = (depth, choice)
            return depth, choice

    try:
        order, _ = (best(full_l) if kind == SEMILADDER
                    else best(full_l, full_r))
    except RecursionError:
        # one level per obstruction step: a deep obstruction runs out of
        # interpreter stack before it runs out of node budget
        raise ResourceBudgetError(
            f"{kind} obstruction search ran past the interpreter's "
            f"recursion limit ({visits} states visited, memo holds "
            f"{len(memo)})") from None
    finally:
        # best reaches itself through its closure cell; emptying the cell
        # frees the memo now instead of at the next cyclic gc pass
        del best
    a_seq, b_seq = [], []
    a_pool, b_pool = full_l, full_r
    for _ in range(order):
        if kind == SEMILADDER:
            _, b = memo[a_pool]
            a = next(_bits(a_pool & ~radj[b]))
        else:
            _, (a, b) = memo[(a_pool, b_pool)]
            b_pool &= keep[a]
        a_seq.append(a)
        b_seq.append(b)
        a_pool &= radj[b]
    return order, a_seq, b_seq


# --- Helly-property checks --------------------------------------------------

WEAK = "weak"
FULL = "full"
STRONG = "strong"


def _mask_to_set(mask):
    return tuple(_bits(mask))


@dataclass(frozen=True)
class HellyResult:
    holds: bool
    counterexample: tuple | None  # (A as left set, B as right set) on failure


def check_p_helly(h: BipartiteGraph, p: int, variant: str,
                  size_budget: int = 16) -> HellyResult:
    """p-Helly check: an uncovered right set must have an uncovered subset
    of size <= p.  weak = the (L, R) pair only; full = all B subsets of R;
    strong = all A subsets of L too (checked via worst-case A per B).

    Only the right side is enumerated; the left side lives in bitmasks, so
    it may be large.  weak tests R and then only the subsets of size <= p.
    full and strong walk the subsets of R once, in increasing mask order,
    and return at the first counterexample, so the whole 2^R table is
    built only when the property holds.
    """
    if p < 0:
        raise InputError("p must be >= 0")
    if variant not in (WEAK, FULL, STRONG):
        raise InputError(f"unknown variant '{variant}'")
    if h.right_size > size_budget:
        raise ResourceBudgetError(
            f"helly check limited to {size_budget} right vertices")
    full_l = (1 << h.left_size) - 1
    radj = h.right_adj()

    if variant == WEAK:
        covered = full_l
        for col in radj:
            covered &= col
        if covered:
            return HellyResult(True, None)
        for width in range(min(p, h.right_size) + 1):
            for subset in combinations(radj, width):
                covered = full_l
                for col in subset:
                    covered &= col
                if not covered:
                    return HellyResult(True, None)
        return HellyResult(False, (tuple(range(h.left_size)),
                                   tuple(range(h.right_size))))

    # cov[B] = left vertices adjacent to every right vertex in B (all of L
    # for the empty B).  For fixed B the worst A is L minus cov[B], and
    # (A, B) violates iff every subset B' of B of size <= p has cov[B']
    # larger than cov[B]; flag[B] is the complement, found by peeling one
    # element (sound because cov is antitone under inclusion).  full is
    # strong restricted to uncovered B, where A is all of L.  Both entries
    # read only smaller masks, so one pass in increasing order settles B.
    size = 1 << h.right_size
    cov = [full_l] * size
    flag = bytearray(size)
    for mask in range(size):
        if mask:
            low = mask & -mask
            cov[mask] = cov[mask ^ low] & radj[low.bit_length() - 1]
        if variant == FULL and cov[mask]:
            continue
        if mask.bit_count() <= p:
            flag[mask] = True
            continue
        m = mask
        while m and not flag[mask]:
            low = m & -m
            sub = mask ^ low
            if cov[sub] == cov[mask]:
                flag[mask] = flag[sub]
            m ^= low
        if not flag[mask]:
            return HellyResult(False, (_mask_to_set(full_l & ~cov[mask]),
                                       _mask_to_set(mask)))
    return HellyResult(True, None)


def coverage_bruteforce(h: BipartiteGraph):
    """Lowest-index left vertex adjacent to all of R, else None.

    An empty right side is vacuously covered by any left vertex.
    """
    if h.left_size == 0:
        return None
    full_r = (1 << h.right_size) - 1
    for l in range(h.left_size):
        if h.left_adj[l] == full_r:
            return l
    return None


# --- constructive Ramsey ----------------------------------------------------


def ramsey_bound(c: int, ell: int) -> int:
    if c < 2:
        raise InputError("need at least 2 colors")
    if ell < 1:
        raise InputError("need ell >= 1")
    return c ** (c * ell - 1)


def find_monochromatic(n: int, c: int, coloring, ell: int):
    """Extract an ell-vertex monochromatic set from a c-colored K_n.

    ``coloring(u, v)`` returns the color (0..c-1) of edge {u, v}.  Greedy:
    repeatedly take the lowest remaining vertex and keep its largest color
    class, then apply pigeonhole to the recorded back-colors.  Guaranteed
    for n >= ramsey_bound(c, ell); smaller n is attempted anyway and may
    return None.
    """
    if c < 1 or ell < 1:
        raise InputError("need c >= 1 and ell >= 1")
    if n < 0:
        raise InputError("need n >= 0")
    if ell == 1:
        return (0,) if n >= 1 else None
    alive = list(range(n))
    seq = []  # (vertex, back-color towards everything chosen later)
    while alive:
        v = alive[0]
        rest = alive[1:]
        if not rest:
            seq.append((v, None))
            break
        classes = {}
        for u in rest:
            classes.setdefault(coloring(v, u), []).append(u)
        color = max(sorted(classes), key=lambda col: len(classes[col]))
        seq.append((v, color))
        alive = classes[color]
    for color in range(c):
        picked = [v for v, col in seq if col == color][: ell - 1]
        if len(picked) < ell - 1:
            continue
        last_idx = max(i for i, (v, _) in enumerate(seq) if v == picked[-1])
        if last_idx + 1 >= len(seq):
            continue
        result = tuple(sorted(picked + [seq[last_idx + 1][0]]))
        for i in range(ell):
            for j in range(i + 1, ell):
                if coloring(result[i], result[j]) != color:
                    raise InputError("coloring is not symmetric/consistent")
        return result
    return None


# --- materialization of the candidate/witness graph -------------------------


def materialize(g: Graph, f: DistanceFormula,
                pair_budget: int = 1_000_000) -> BipartiteGraph:
    """Explicit bipartite graph: left = candidate tuples (lexicographic),
    right = witness tuples, edge iff the formula holds on the pair.

    A pair's verdict depends only on its matrix of capped distances, so
    each distinct matrix is evaluated once per call; the pair budget is
    checked before any BFS runs."""
    n = g.n
    pairs = n ** (f.c + f.d)
    if pairs > pair_budget:
        raise ResourceBudgetError(
            f"{pairs} candidate/witness pairs exceed budget {pair_budget}")
    r = f.radius()
    dist = [bfs_capped(g, v, r) for v in range(n)]
    right = list(product(range(n), repeat=f.d))
    verdicts = {}
    adj = []
    for a in product(range(n), repeat=f.c):
        a_rows = [dist[ai] for ai in a]
        mask = 0
        for idx, b in enumerate(right):
            rows = tuple(tuple(row[bj] for bj in b) for row in a_rows)
            holds = verdicts.get(rows)
            if holds is None:
                holds = verdicts[rows] = evaluate(f, DistanceMatrix(r, rows))
            if holds:
                mask |= 1 << idx
        adj.append(mask)
    return BipartiteGraph(len(adj), len(right), tuple(adj))


def tuple_index(n: int, vertex_tuple) -> int:
    """Lexicographic rank of a vertex tuple among all tuples of its length."""
    idx = 0
    for v in vertex_tuple:
        if not (0 <= v < n):
            raise InputError(f"invalid vertex {v}")
        idx = idx * n + v
    return idx


# --- serialization ----------------------------------------------------------


def serialize_bipartite(h: BipartiteGraph) -> str:
    lines = [f"{h.left_size} {h.right_size} {h.m}"]
    lines.extend(f"{l} {r}" for l, r in h.edges())
    return "\n".join(lines) + "\n"


def parse_bipartite(text: str) -> BipartiteGraph:
    """Parse the bipartite format: header "L R m", then m lines "l r", a
    left id below L and a right id below R, both 0-based."""
    header_line, (left_size, right_size, m), lines = _headed_lines(
        text, "L R m")
    if len(lines) != m:
        raise ParseError(f"expected {m} edges, found {len(lines)}",
                         line=header_line)
    adj = [0] * left_size
    for lineno, _, _, l, r in _id_pairs(lines):
        if not (0 <= l < left_size and 0 <= r < right_size):
            raise ParseError(f"edge ({l},{r}) out of range", line=lineno)
        bit = 1 << r
        if adj[l] & bit:
            raise ParseError(f"duplicate edge ({l},{r})", line=lineno)
        adj[l] |= bit
    return BipartiteGraph(left_size, right_size, tuple(adj))
