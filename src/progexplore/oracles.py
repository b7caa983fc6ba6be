"""Profile-based oracles over the implicit candidate/witness graph.

None of these ever materializes the bipartite graph.  They decide
agreement from profiles on a pivot set made of the vertices mentioned by
the inputs (sound because distance formulas only read pairwise
candidate/witness distances, all of which end at pivot vertices).  The
candidate oracle refines one profile partition per implicit graph as its
witness list grows; the other oracles build one profile table per call.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .errors import InputError, ResourceBudgetError
from .formulas import (Atom, DistanceFormula, DistanceMatrix, Or, evaluate,
                       holds, walk)
from .graph import INF, Graph
from .profiles import ProfileRefiner, build_profile_table


class _CandidateState:
    """What the candidate oracle keeps between calls on one implicit graph.

    It holds copies of the witness tuples absorbed so far and the profile
    partition on their vertices.  Per class it keeps either the coverage
    masks of the covering search, one bit per tuple, or the distance rows
    of the product search, one row per tuple.  It also keeps the verdict
    memo.  Within one solve B only grows, so a call feeds in just the new
    tuples: a split class passes its masks or rows to both halves, because
    the new pivot vertex is in no earlier tuple.  A B that does not extend
    the absorbed tuples starts the state over.
    """

    def __init__(self):
        self.taken = None  # None until the first call

    def absorb(self, ib: ImplicitBipartite, B):
        g, f = ib.graph, ib.formula
        B = [tuple(b) for b in B]
        start = len(self.taken) if self.taken is not None else 0
        if self.taken is None or B[:start] != self.taken:
            start = 0
        for b in B[start:]:
            _check_tuple(g, b, f.d, "witness")
        if start == 0:
            self.taken = []
            self.parts = ProfileRefiner(g, f.radius())
            by_var = _single_variable_children(f)
            self.by_var = by_var if by_var is not None and all(by_var) else None
            # class id -> coverage masks per position, or rows per tuple
            self.data = [[0] * f.c if self.by_var else []]
            self.verdicts = {}
            self.judge = _judge(f)
        for b in B[start:]:
            self._add(b)

    def _add(self, b):
        bit = 1 << len(self.taken)
        self.taken.append(b)
        data = self.data
        for v in b:
            for parent, child in self.parts.add(v):
                data.append(list(data[parent]))
        balls = [self.parts.balls[v] for v in b]
        for k, rep in enumerate(self.parts.rep):
            row = tuple(ball.get(rep, INF) for ball in balls)
            if self.by_var is None:
                data[k].append(row)
                continue
            # each child reads only its own candidate variable, so one
            # distance row stands in for every row of the matrix
            held = self.verdicts.get(row)
            if held is None:
                m = (row,) * len(self.by_var)
                held = self.verdicts[row] = [
                    any(holds(ch, m) for ch in children)
                    for children in self.by_var]
            masks = data[k]
            for i, h in enumerate(held):
                if h:
                    masks[i] |= bit


@dataclass(frozen=True)
class ImplicitBipartite:
    """Candidates and witnesses of ``formula`` over ``graph``.  It also
    carries the candidate oracle's state, so one instance serves one
    thread at a time."""

    graph: Graph
    formula: DistanceFormula
    _candidates: _CandidateState = field(
        default_factory=_CandidateState, init=False, compare=False,
        repr=False)


def _check_tuple(g: Graph, t, length, what):
    if len(t) != length:
        raise InputError(f"{what} tuple has length {len(t)}, expected {length}")
    for v in t:
        if not (0 <= v < g.n):
            raise InputError(f"invalid vertex {v} in {what} tuple")


def _on_pivot(ib: ImplicitBipartite, tuples, length, what):
    """Check ``tuples``, build the profile table on their vertices and
    return it with ``rows[t][e][j]`` = capped dist(entry e, tuples[t][j]).
    Entries ``idxs`` on the candidate side meet tuple t in the matrix
    ``tuple(rows[t][i] for i in idxs)``; on the witness side, in its
    transpose ``tuple(zip(*(rows[t][j] for j in idxs)))``."""
    for t in tuples:
        _check_tuple(ib.graph, t, length, what)
    table = build_profile_table(ib.graph, {v for t in tuples for v in t},
                                ib.formula.radius())
    pos = {v: i for i, v in enumerate(table.pivot)}
    values = [e.profile.values for e in table.entries]
    rows = [[tuple(vals[pos[v]] for v in t) for vals in values]
            for t in tuples]
    return table, rows


def _judge(f: DistanceFormula):
    """``evaluate(f, .)`` on matrix rows, memoized for one oracle call."""
    seen = {}

    def judge(rows):
        if rows not in seen:
            seen[rows] = evaluate(f, DistanceMatrix(f.radius(), rows))
        return seen[rows]

    return judge


def _single_variable_children(f: DistanceFormula):
    """If the root is a disjunction whose children each mention exactly one
    candidate variable, return a per-variable list of children; else None.
    The witness-coverage search then decomposes per candidate position."""
    if isinstance(f.root, Or):
        children = f.root.children
    elif isinstance(f.root, Atom):
        children = (f.root,)
    else:
        return None
    by_var = [[] for _ in range(f.c)]
    for ch in children:
        xs = {a.x for a in walk(ch) if isinstance(a, Atom)}
        if len(xs) != 1:
            return None
        by_var[next(iter(xs))].append(ch)
    return by_var


def candidate_oracle(ib: ImplicitBipartite, B):
    """First (lex over profile-table indices) candidate tuple agreeing with
    every witness tuple in B, assembled from profile representatives; None
    if no candidate agrees with all of B."""
    state = ib._candidates
    state.absorb(ib, B)
    order = state.parts.order()
    data = [state.data[k] for k in order]
    if state.by_var is not None:
        choice = _covering_assignment(
            [[masks[i] for masks in data] for i in range(ib.formula.c)],
            (1 << len(state.taken)) - 1)
    else:
        judge = state.judge
        choice = next(
            (idxs for idxs in product(range(len(data)), repeat=ib.formula.c)
             if all(map(judge, zip(*(data[i] for i in idxs))))),
            None)
    if choice is None:
        return None
    return tuple(state.parts.rep[order[i]] for i in choice)


def _covering_assignment(coverage, full):
    """Lex-first profile assignment whose per-position witness coverage
    masks (``coverage[i][e]``) union to ``full``.  Memoizes failed
    (position, still-needed mask) pairs and prunes with suffix-reachable
    unions."""
    c = len(coverage)
    n_profiles = len(coverage[0])
    suffix_union = [0] * (c + 1)
    for i in range(c - 1, -1, -1):
        acc = 0
        for m in coverage[i]:
            acc |= m
        suffix_union[i] = suffix_union[i + 1] | acc
    failed = set()

    def dfs(i, needed, prefix):
        if i == c:
            return prefix if needed == 0 else None
        if needed & ~suffix_union[i]:
            return None
        key = (i, needed)
        if key in failed:
            return None
        for e in range(n_profiles):
            got = dfs(i + 1, needed & ~coverage[i][e], prefix + (e,))
            if got is not None:
                return got
        failed.add(key)
        return None

    try:
        return dfs(0, full, ())
    finally:
        del dfs  # dfs reaches itself through its closure cell


def _defeats(ib: ImplicitBipartite, A):
    """Yield, in lex order over witness-side entry tuples, each one that
    disagrees with some candidate tuple in A: the bitmask over A of the
    candidates it disagrees with, and its representative witness tuple."""
    f = ib.formula
    table, rows = _on_pivot(ib, A, f.c, "candidate")
    judge = _judge(f)
    for idxs in product(range(len(table.entries)), repeat=f.d):
        mask = 0
        for ai, ra in enumerate(rows):
            if not judge(tuple(zip(*(ra[j] for j in idxs)))):
                mask |= 1 << ai
        if mask:
            yield mask, tuple(table.entries[i].representative for i in idxs)


def weak_witness_oracle(ib: ImplicitBipartite, a):
    """A witness tuple disagreeing with candidate a, or None when a agrees
    with every witness tuple (i.e. a is a solution)."""
    _, b = next(_defeats(ib, (a,)), (0, None))
    return b


def strong_witness_oracle(ib: ImplicitBipartite, A, p: int):
    """A set of at most p witness tuples such that every candidate in A
    disagrees with one of them, or None if no such set exists."""
    if not A:
        raise InputError("candidate list must be nonempty")
    if p < 1:
        raise InputError("need p >= 1")
    options = list(_defeats(ib, A))  # (disagreement mask, witness tuple)
    full = (1 << len(A)) - 1
    suffix = [0] * (len(options) + 1)
    for i in range(len(options) - 1, -1, -1):
        suffix[i] = suffix[i + 1] | options[i][0]
    if suffix[0] != full:
        return None

    # multisets: indices non-decreasing, so no p!-fold duplication
    def dfs(start, hit, chosen):
        if hit == full:
            return chosen
        if len(chosen) == p or hit | suffix[start] != full:
            return None
        for i in range(start, len(options)):
            got = dfs(i, hit | options[i][0], chosen + (options[i][1],))
            if got is not None:
                return got
        return None

    try:
        picked = dfs(0, 0, ())
    finally:
        del dfs  # dfs reaches itself through its closure cell
    return None if picked is None else list(picked)


def semiladder_extension_oracle(ib: ImplicitBipartite, B, d_budget: int = 2):
    """A pair (a, b) with b a witness tuple outside B, a agreeing with all
    of B but not with b; None if every candidate agreeing with B agrees with
    everything outside B.  Iterates actual witness tuples (an n^d loop)."""
    g, f = ib.graph, ib.formula
    if f.d > d_budget:
        raise ResourceBudgetError(
            f"extension oracle limited to d <= {d_budget} witness variables")
    for b in B:
        _check_tuple(g, b, f.d, "witness")
    taken = set(map(tuple, B))
    judge = _judge(f)
    for b_new in product(range(g.n), repeat=f.d):
        if b_new in taken:
            continue
        table, (r_new, *rows) = _on_pivot(ib, (b_new, *B), f.d, "witness")
        for idxs in product(range(len(table.entries)), repeat=f.c):
            if (not judge(tuple(r_new[i] for i in idxs))
                    and all(judge(tuple(rb[i] for i in idxs))
                            for rb in rows)):
                a = tuple(table.entries[i].representative for i in idxs)
                return a, b_new
    return None
