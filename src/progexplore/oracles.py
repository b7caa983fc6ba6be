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
from .graph import Graph
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
            self.judge = _Judge(f)
        for b in B[start:]:
            self._add(b)

    def _add(self, b):
        bit = 1 << len(self.taken)
        self.taken.append(b)
        data = self.data
        for v in b:
            for parent, child in self.parts.add(v):
                data.append(list(data[parent]))
        for k, rep in enumerate(self.parts.rep):
            row = self.parts.row(rep, b)
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


def _on_pivot(ib: ImplicitBipartite, tuples):
    """Build the profile table on the vertices of the checked ``tuples``
    and return it with ``rows[t][e][j]`` = capped dist(entry e, tuples[t][j]).
    Entries ``idxs`` on the candidate side meet tuple t in the matrix
    ``tuple(rows[t][i] for i in idxs)``; on the witness side, in its
    transpose ``tuple(zip(*(rows[t][j] for j in idxs)))``."""
    table = build_profile_table(ib.graph, {v for t in tuples for v in t},
                                ib.formula.radius())
    pos = {v: i for i, v in enumerate(table.pivot)}
    values = [e.profile.values for e in table.entries]
    rows = [[tuple(vals[pos[v]] for v in t) for vals in values]
            for t in tuples]
    return table, rows


class _Judge(dict):
    """``evaluate(f, .)`` on matrix rows, memoized while the instance
    lives: calling it looks the rows up and evaluates them on a miss."""

    def __init__(self, f: DistanceFormula):
        super().__init__()
        self.f = f

    def __missing__(self, rows):
        held = self[rows] = evaluate(self.f,
                                     DistanceMatrix(self.f.radius(), rows))
        return held

    __call__ = dict.__getitem__


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
    masks (``coverage[i][e]``) union to ``full``; None if there is none.
    A depth-first loop over (position, still-needed mask) states.  Before
    it enters a state it checks it once: pruned if the mask lies outside
    the union reachable from the position, skipped if it already failed."""
    c = len(coverage)
    reach = [0] * (c + 1)  # reach[i]: union of every mask at positions >= i
    for i in range(c - 1, -1, -1):
        reach[i] = reach[i + 1]
        for m in coverage[i]:
            reach[i] |= m
    if full & ~reach[0]:
        return None
    failed = set()
    chosen: list = []
    needs = [full]  # needs[i]: what chosen[:i] leaves uncovered
    nxt = [0]  # nxt[i]: the next entry to try at position i
    while nxt:
        i = len(chosen)
        if i == c:  # entered only with nothing left to cover
            return tuple(chosen)
        needed, row, outside, e = needs[i], coverage[i], ~reach[i + 1], nxt[i]
        while e < len(row):
            rest = needed & ~row[e]
            e += 1
            if not rest & outside and (i + 1, rest) not in failed:
                break
        else:
            failed.add((i, needed))
            nxt.pop()
            needs.pop()
            if chosen:
                chosen.pop()
            continue
        nxt[i] = e
        chosen.append(e - 1)
        needs.append(rest)
        nxt.append(0)
    return None


def _defeats(ib: ImplicitBipartite, A):
    """Yield, in lex order over witness-side entry tuples, each one that
    disagrees with some candidate tuple in A: the bitmask over A of the
    candidates it disagrees with, and its representative witness tuple."""
    f = ib.formula
    for a in A:
        _check_tuple(ib.graph, a, f.c, "candidate")
    table, rows = _on_pivot(ib, A)
    judge = _Judge(f)
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
    # every position offers the same options, so the lex-first cover is
    # non-decreasing; its trailing repeats of the last pick add nothing
    picks = _covering_assignment([[mask for mask, _ in options]] * p,
                                 (1 << len(A)) - 1)
    if picks is None:
        return None
    return [options[i][1] for i in picks[:picks.index(picks[-1]) + 1]]


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
    judge = _Judge(f)
    for b_new in product(range(g.n), repeat=f.d):
        if b_new in taken:
            continue
        table, (r_new, *rows) = _on_pivot(ib, (b_new, *B))
        for idxs in product(range(len(table.entries)), repeat=f.c):
            if (not judge(tuple(r_new[i] for i in idxs))
                    and all(judge(tuple(rb[i] for i in idxs))
                            for rb in rows)):
                a = tuple(table.entries[i].representative for i in idxs)
                return a, b_new
    return None
