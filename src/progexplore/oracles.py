"""Profile-based oracles over the implicit candidate/witness graph.

None of these ever materializes the bipartite graph.  They decide
agreement from profiles on a pivot set made of the vertices mentioned by
the inputs (sound because distance formulas only read pairwise
candidate/witness distances, all of which end at pivot vertices).  The
candidate oracle refines one profile partition per implicit graph as its
witness list grows.  The witness oracles run one capped BFS per vertex of
their candidates and scan the union of those balls in vertex order, which
yields the profile classes in table order without building a table.  The
extension oracle builds one table on B per call and refines it by each
new witness tuple's balls in the same scan.  One evaluation memo per
implicit graph serves all four oracles.
"""
from __future__ import annotations

from itertools import chain, product

from .errors import InputError, ResourceBudgetError
from .formulas import (Atom, DistanceFormula, DistanceMatrix, Or, evaluate,
                       holds, walk)
from .graph import INF, Graph, ball_distances
from .profiles import (ProfileRefiner, build_profile_table,
                       first_of_each_class)


class _CandidateState:
    """What the candidate oracle keeps between calls on one implicit graph.

    It holds copies of the witness tuples absorbed so far and the profile
    partition on their vertices.  Per class it keeps either the coverage
    masks of the covering search, one bit per tuple, or the distance rows
    of the product search, one row per tuple.  It also keeps the verdict
    memo and the floor: the last answer, below which no later answer
    lies, or None once no candidate agrees.  Within one solve B only
    grows, so a call feeds in just the new tuples: a split class passes
    its masks or rows to both halves, because the new pivot vertex is in
    no earlier tuple.  A B that does not extend the absorbed tuples starts
    the state over.
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
            # vertex 0 is the lowest representative; no vertex, no candidate
            self.floor = (0,) * f.c if g.n else None
        for b in B[start:]:
            self._add(b)

    def _add(self, b):
        bit = 1 << len(self.taken)
        self.taken.append(b)
        data, parts = self.data, self.parts
        for v in b:
            for parent, child in parts.add(v):
                data.append(list(data[parent]))
        # each class now lies wholly inside or outside each ball of b, so
        # only the classes the balls meet have a row other than all-INF
        near = {parts.class_of[v] for s in set(b) for v in parts.balls[s]}
        far = (INF,) * len(b)
        if self.by_var is None:
            for k, rows in enumerate(data):
                rows.append(parts.row(parts.rep[k], b) if k in near else far)
            return
        agrees_at = self._agrees_at
        for k in near:
            masks = data[k]
            for i in agrees_at(parts.row(parts.rep[k], b)):
                masks[i] |= bit
        hits = agrees_at(far)  # empty unless the Or has a negation
        if hits:
            for k, masks in enumerate(data):
                if k not in near:
                    for i in hits:
                        masks[i] |= bit

    def _agrees_at(self, row):
        """The positions at which a candidate whose distance row to a
        tuple is ``row`` agrees with it.  Each child reads only its own
        candidate variable, so one row stands in for every row of the
        matrix."""
        hits = self.verdicts.get(row)
        if hits is None:
            m = (row,) * len(self.by_var)
            hits = self.verdicts[row] = [
                i for i, children in enumerate(self.by_var)
                if any(holds(ch, m) for ch in children)]
        return hits


class ImplicitBipartite:
    """Candidates and witnesses of ``formula`` over ``graph``.  It also
    carries the candidate oracle's state and the evaluation memo of all
    four oracles, so one instance serves one thread at a time."""

    def __init__(self, graph: Graph, formula: DistanceFormula):
        self.graph = graph
        self.formula = formula
        self._candidates = _CandidateState()
        self._judge = _Judge(formula)


def _check_tuple(g: Graph, t, length, what):
    if len(t) != length:
        raise InputError(f"{what} tuple has length {len(t)}, expected {length}")
    for v in t:
        if not (0 <= v < g.n):
            raise InputError(f"invalid vertex {v} in {what} tuple")


class _Judge(dict):
    """``evaluate(f, .)`` on matrix rows, memoized while the implicit graph
    lives: calling it looks the rows up and evaluates them on a miss.  The
    rows are indexed by candidate variable, each a tuple over the witness
    variables, whichever oracle builds them."""

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
    if no candidate agrees with all of B.

    The class order is the representative order, so the answer is also
    the lex-first vertex tuple agreeing with B.  A B that extends the
    previous call's only removes candidates, so the search resumes at
    the previous answer, whose vertices are still representatives: a
    split leaves the lowest member in the part that holds it."""
    state = ib._candidates
    state.absorb(ib, B)
    if state.floor is None:
        return None
    parts = state.parts
    order = parts.order()
    at = {k: i for i, k in enumerate(order)}
    start = tuple(at[parts.class_of.get(v, 0)] for v in state.floor)
    data = [state.data[k] for k in order]
    if state.by_var is not None:
        choice = _covering_assignment(
            [[masks[i] for masks in data] for i in range(ib.formula.c)],
            (1 << len(state.taken)) - 1, start)
    else:
        judge = ib._judge
        choice = next(
            (idxs for idxs in _tuples_from(len(data), start)
             if all(map(judge, zip(*(data[i] for i in idxs))))),
            None)
    state.floor = None if choice is None else tuple(
        parts.rep[order[i]] for i in choice)
    return state.floor


def _tuples_from(n, start):
    """The tuples over range(n) of the length of ``start`` that are lex at
    or after ``start``, in lex order."""
    yield start
    for i in range(len(start) - 1, -1, -1):
        for rest in product(range(start[i] + 1, n),
                            *[range(n)] * (len(start) - 1 - i)):
            yield start[:i] + rest


def _covering_assignment(coverage, full, start=()):
    """Lex-first profile assignment at or after ``start`` whose
    per-position witness coverage masks (``coverage[i][e]``) union to
    ``full``; None if there is none.  A depth-first loop over (position,
    still-needed mask) states.  Before it enters a state it checks it
    once: pruned if the mask lies outside the union reachable from the
    position, skipped if it already failed.  Only a state scanned from
    entry 0 is recorded as failed; the states on the path of ``start``
    begin at its entries."""
    c = len(coverage)
    reach = [0] * (c + 1)  # reach[i]: union of every mask at positions >= i
    for i in range(c - 1, -1, -1):
        reach[i] = reach[i + 1]
        for m in coverage[i]:
            reach[i] |= m
    if full & ~reach[0]:
        return None
    lead = len(start)  # past its trailing zeros, start asks for no skip
    while lead and not start[lead - 1]:
        lead -= 1
    tight = 1 if lead else 0  # positions < tight began at start's entry
    failed = set()
    chosen: list = []
    needs = [full]  # needs[i]: what chosen[:i] leaves uncovered
    nxt = [start[0] if lead else 0]  # nxt[i]: the next entry to try at i
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
            if i < tight:
                tight = i
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
        if tight == i + 1 < lead and e - 1 == start[i]:
            tight += 1
            nxt.append(start[i + 1])
        else:
            nxt.append(0)
    return None


def _defeats(ib: ImplicitBipartite, A):
    """Yield, in lex order over witness-side profile classes, each tuple
    of classes that disagrees with some candidate tuple in A: the bitmask
    over A of the candidates it disagrees with, and its representative
    witness tuple.  For d = 1 the classes are scanned lazily, so a caller
    that stops early never profiles the rest of the balls."""
    g, f = ib.graph, ib.formula
    for a in A:
        _check_tuple(g, a, f.c, "candidate")
    r = f.radius()
    balls = {}  # distinct vertex of A -> {vertex within r: distance}
    for a in A:
        for s in a:
            if s not in balls:
                balls[s] = ball_distances(g, (s,), r)
    pos = {s: i for i, s in enumerate(balls)}
    gets = [ball.get for ball in balls.values()]
    classes = first_of_each_class(
        g.n, sorted(set().union(*balls.values())),
        lambda v: tuple([get(v, INF) for get in gets]))
    at_a = [[pos[x] for x in a] for a in A]  # profile positions per tuple
    judge = ib._judge
    # zip yields the 1-tuples lazily; product would read every class first
    picks = zip(classes) if f.d == 1 else product(classes, repeat=f.d)
    for pick in picks:  # per witness variable: (representative, profile)
        mask = 0
        for ai, at in enumerate(at_a):
            if not judge(tuple(tuple(prof[i] for _, prof in pick)
                               for i in at)):
                mask |= 1 << ai
        if mask:
            yield mask, tuple(v for v, _ in pick)


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
    # non-decreasing and its repeats are adjacent; they add nothing
    picks = _covering_assignment([[mask for mask, _ in options]] * p,
                                 (1 << len(A)) - 1)
    if picks is None:
        return None
    return [options[i][1] for i in dict.fromkeys(picks)]


def _tuples_over(n, d):
    """The d-tuples over range(n), d >= 1, in lexicographic order, made one
    at a time (``product`` would first copy range(n) into a tuple)."""
    if d == 1:
        return zip(range(n))
    return ((v, *rest) for v in range(n) for rest in _tuples_over(n, d - 1))


def semiladder_extension_oracle(ib: ImplicitBipartite, B, d_budget: int = 2):
    """A pair (a, b) with b a witness tuple outside B, a agreeing with all
    of B but not with b; None if every candidate agreeing with B agrees with
    everything outside B.  Iterates actual witness tuples (an n^d loop).

    The profile table on B is built once per call, and whether a tuple of
    its entries agrees with all of B is judged once.  A tried ``b_new``
    costs the balls of its own vertices: the classes on the pivot of B and
    ``b_new`` are those of (entry on B, distances to ``b_new``), scanned in
    vertex order over the union of every ball."""
    g, f = ib.graph, ib.formula
    if f.d > d_budget:
        raise ResourceBudgetError(
            f"extension oracle limited to d <= {d_budget} witness variables")
    for b in B:
        _check_tuple(g, b, f.d, "witness")
    r = f.radius()
    table = build_profile_table(g, {v for b in B for v in b}, r)
    pos = {v: i for i, v in enumerate(table.pivot)}
    values = [e.profile.values for e in table.entries]
    at_b = [[pos[v] for v in b] for b in B]  # pivot positions per tuple
    entry_of, far = table.vertex_to_profile.near, table.vertex_to_profile.far
    near_b = sorted(entry_of)
    judge = ib._judge
    agrees = {}  # tuple of entries on B -> agrees with every tuple of B
    taken = set(map(tuple, B))
    for b_new in _tuples_over(g.n, f.d):
        if b_new in taken:
            continue
        balls, fresh = {}, set()
        for s in b_new:
            if s not in balls:
                balls[s] = ball_distances(g, (s,), r)
                fresh.update(v for v in balls[s] if v not in entry_of)
        to_new = [balls[s].get for s in b_new]
        classes = list(first_of_each_class(
            g.n, sorted(chain(near_b, fresh)),
            lambda v: (entry_of.get(v, far),
                       tuple([get(v, INF) for get in to_new]))))
        # a tuple of rows to b_new is the candidate-side matrix itself
        matrices = product([row for _, (_, row) in classes], repeat=f.c)
        for pick, m in zip(product(classes, repeat=f.c), matrices):
            if judge(m):
                continue
            es = tuple(e for _, (e, _) in pick)
            held = agrees.get(es)
            if held is None:
                held = agrees[es] = all(
                    judge(tuple(tuple(values[e][i] for i in at) for e in es))
                    for at in at_b)
            if held:
                return tuple(v for v, _ in pick), b_new
    return None
