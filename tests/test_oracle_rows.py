"""The oracles read per-class distance rows and evaluate each distinct
matrix once per implicit graph.  They are compared here with a test-local
copy of the matrix-per-tuple code they replaced, which built one profile
table per call (per tried witness tuple in the extension oracle) and one
``DistanceMatrix`` per profile tuple, and called ``evaluate`` on every
one."""
import gc
import sys
import tracemalloc
from collections import Counter
from itertools import combinations, combinations_with_replacement, product

import pytest
from hypothesis import given, settings, strategies as st

from progexplore import (INF, And, Atom, DistanceFormula, DistanceMatrix,
                         Graph, ImplicitBipartite, Not, Or, bfs_capped,
                         build_delta, build_eta, candidate_oracle,
                         coverage_core, evaluate, generate,
                         independent_set_solve, ladder_solve,
                         semi_ladder_solve, semiladder_extension_oracle,
                         strong_witness_oracle, weak_witness_oracle)
from progexplore import oracles, solvers
from progexplore.bipartite import BipartiteGraph
from progexplore.formulas import holds
from progexplore.profiles import _realized_count, build_profile_table


# --- reference: one matrix per profile tuple ----------------------------------

def _pos(table):
    return {v: i for i, v in enumerate(table.pivot)}


def _cand_matrix(profs, b, pos, cap):
    return DistanceMatrix(cap, tuple(
        tuple(pr.values[pos[w]] for w in b) for pr in profs))


def _wit_matrix(profs, a, pos, cap):
    return DistanceMatrix(cap, tuple(
        tuple(profs[j].values[pos[x]] for j in range(len(profs)))
        for x in a))


def _reps(table, idxs):
    return tuple(table.entries[i].representative for i in idxs)


def ref_candidate(ib, B):
    g, f = ib.graph, ib.formula
    r = f.radius()
    table = build_profile_table(g, sorted({v for b in B for v in b}), r)
    if not table.entries:
        return None
    pos = _pos(table)
    by_var = oracles._single_variable_children(f)
    if by_var is not None and all(by_var):
        choice = ref_covering(table, B, by_var, pos)
    else:
        choice = None
        for idxs in product(range(len(table.entries)), repeat=f.c):
            profs = [table.entries[i].profile for i in idxs]
            if all(evaluate(f, _cand_matrix(profs, b, pos, r)) for b in B):
                choice = idxs
                break
    return None if choice is None else _reps(table, choice)


def ref_covering(table, B, by_var, pos):
    c, n_profiles = len(by_var), len(table.entries)
    coverage = [[0] * n_profiles for _ in range(c)]
    for e, entry in enumerate(table.entries):
        for bi, b in enumerate(B):
            rows = (tuple(entry.profile.values[pos[w]] for w in b),) * c
            for i, children in enumerate(by_var):
                if any(holds(ch, rows) for ch in children):
                    coverage[i][e] |= 1 << bi
    # plain lex-first search, no memo or pruning
    for idxs in product(range(n_profiles), repeat=c):
        got = 0
        for i, e in enumerate(idxs):
            got |= coverage[i][e]
        if got == (1 << len(B)) - 1:
            return idxs
    return None


def ref_weak(ib, a):
    g, f = ib.graph, ib.formula
    r = f.radius()
    table = build_profile_table(g, sorted(set(a)), r)
    pos = _pos(table)
    for idxs in product(range(len(table.entries)), repeat=f.d):
        profs = [table.entries[i].profile for i in idxs]
        if not evaluate(f, _wit_matrix(profs, a, pos, r)):
            return _reps(table, idxs)
    return None


def ref_strong(ib, A, p):
    g, f = ib.graph, ib.formula
    r = f.radius()
    table = build_profile_table(g, sorted({v for a in A for v in a}), r)
    pos = _pos(table)
    options = []
    for idxs in product(range(len(table.entries)), repeat=f.d):
        profs = [table.entries[i].profile for i in idxs]
        mask = 0
        for ai, a in enumerate(A):
            if not evaluate(f, _wit_matrix(profs, a, pos, r)):
                mask |= 1 << ai
        if mask:
            options.append((mask, idxs))
    full = (1 << len(A)) - 1

    def covers(pick):
        hit = 0
        for i in pick:
            hit |= options[i][0]
        return hit == full

    # the lexicographically least covering multiset (a prefix sorts first)
    # of at most p options, one copy of each option
    firsts = [next((pick for pick in combinations_with_replacement(
        range(len(options)), size) if covers(pick)), None)
        for size in range(1, p + 1)]
    best = min((pick for pick in firsts if pick is not None), default=None)
    if best is None:
        return None
    return [_reps(table, options[i][1]) for i in sorted(set(best))]


def ref_extension(ib, B):
    g, f = ib.graph, ib.formula
    r = f.radius()
    base = sorted({v for b in B for v in b})
    taken = set(map(tuple, B))
    for b_new in product(range(g.n), repeat=f.d):
        if b_new in taken:
            continue
        table = build_profile_table(g, sorted(set(base) | set(b_new)), r)
        pos = _pos(table)
        for idxs in product(range(len(table.entries)), repeat=f.c):
            profs = [table.entries[i].profile for i in idxs]
            if not evaluate(f, _cand_matrix(profs, b_new, pos, r)):
                if all(evaluate(f, _cand_matrix(profs, b, pos, r))
                       for b in B):
                    return _reps(table, idxs), b_new
    return None


# --- strategies ----------------------------------------------------------------

@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


def nodes(c, d, xs=None, depth=2):
    """Random formula trees with Not; ``xs`` restricts candidate variables."""
    atom = st.builds(Atom, st.integers(0, 3),
                     st.sampled_from(xs if xs is not None else range(c)),
                     st.integers(0, d - 1))
    if depth == 0:
        return atom
    sub = nodes(c, d, xs, depth - 1)
    return st.one_of(
        atom,
        st.builds(Not, sub),
        st.builds(And, st.lists(sub, min_size=1, max_size=3).map(tuple)),
        st.builds(Or, st.lists(sub, min_size=1, max_size=3).map(tuple)))


@st.composite
def product_formulas(draw):
    kind = draw(st.sampled_from(["eta", "random"]))
    if kind == "eta":
        return build_eta(draw(st.integers(2, 3)), draw(st.integers(1, 3)))
    c, d = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    return DistanceFormula(c, d, draw(nodes(c, d)))


@st.composite
def covering_formulas(draw):
    """An ``Or`` root whose children each read one candidate variable, with
    every variable present: the candidate oracle's covering path."""
    if draw(st.booleans()):
        return build_delta(draw(st.integers(1, 3)), draw(st.integers(0, 3)))
    c, d = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    children = [draw(nodes(c, d, xs=[x], depth=1)) for x in range(c)]
    children += draw(st.lists(
        st.integers(0, c - 1).flatmap(lambda x: nodes(c, d, xs=[x])),
        max_size=2))
    return DistanceFormula(c, d, Or(tuple(children)))


@st.composite
def spread_graphs(draw, max_n=20):
    """A path, or a disjoint union of paths and cycles, of at most
    ``max_n`` vertices: small balls on them leave the lowest vertex outside
    every ball between ball vertices."""
    if draw(st.booleans()):
        return generate("path", {"n": draw(st.integers(1, max_n))})
    edges, n = [], 0
    for cyclic, size in draw(st.lists(
            st.tuples(st.booleans(), st.integers(1, 7)), min_size=2,
            max_size=4)):
        if n + size > max_n:
            break
        edges += [(n + i, n + i + 1) for i in range(size - 1)]
        if cyclic and size >= 3:
            edges.append((n, n + size - 1))
        n += size
    return Graph.from_edges(n, edges)


@st.composite
def d2_formulas(draw):
    """Random formulas with two witness variables, both of them read."""
    c = draw(st.integers(1, 2))
    last = Atom(draw(st.integers(0, 3)), draw(st.integers(0, c - 1)), 1)
    join = draw(st.sampled_from([And, Or]))
    return DistanceFormula(c, 2, join((draw(nodes(c, 2)), last)))


def tuples(g, length, min_size, max_size):
    return st.lists(st.tuples(*[st.integers(0, g.n - 1)] * length),
                    min_size=min_size, max_size=max_size)


# --- the oracles equal the reference ------------------------------------------

@settings(max_examples=150, deadline=None)
@given(st.data())
def test_candidate_covering_path_matches_reference(data):
    g, f = data.draw(graphs()), data.draw(covering_formulas())
    ib = ImplicitBipartite(g, f)
    by_var = oracles._single_variable_children(f)
    assert by_var is not None and all(by_var)
    B = data.draw(tuples(g, f.d, 0, 5))
    assert candidate_oracle(ib, B) == ref_candidate(ib, B)


@pytest.mark.parametrize("f", [
    DistanceFormula(1, 2, Atom(0, 0, 1)),
    DistanceFormula(2, 2, Or((Atom(1, 0, 1), Not(Atom(0, 1, 0))))),
])
def test_candidate_covering_path_reads_every_witness_variable(f):
    """Exhaustive over one and two witness pairs on a path: the covering
    path must tell apart rows that differ only in a later witness."""
    ib = ImplicitBipartite(generate("path", {"n": 6}), f)
    pairs = list(product(range(6), repeat=2))
    for B in [[b] for b in pairs] + list(map(list, combinations(pairs, 2))):
        assert candidate_oracle(ib, B) == ref_candidate(ib, B)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_candidate_product_path_matches_reference(data):
    g, f = data.draw(graphs()), data.draw(product_formulas())
    ib = ImplicitBipartite(g, f)
    B = data.draw(tuples(g, f.d, 0, 4))
    assert candidate_oracle(ib, B) == ref_candidate(ib, B)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_weak_witness_matches_reference(data):
    g = data.draw(graphs())
    f = data.draw(st.one_of(product_formulas(), covering_formulas()))
    ib = ImplicitBipartite(g, f)
    a = data.draw(tuples(g, f.c, 1, 1))[0]
    assert weak_witness_oracle(ib, a) == ref_weak(ib, a)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_strong_witness_matches_reference(data):
    g = data.draw(graphs())
    f = data.draw(st.one_of(product_formulas(), covering_formulas()))
    ib = ImplicitBipartite(g, f)
    A = data.draw(tuples(g, f.c, 1, 3))
    p = data.draw(st.integers(1, 3))
    assert strong_witness_oracle(ib, A, p) == ref_strong(ib, A, p)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_extension_matches_reference(data):
    g = data.draw(graphs(max_n=6))
    f = data.draw(st.one_of(product_formulas(), covering_formulas()))
    ib = ImplicitBipartite(g, f)
    B = data.draw(tuples(g, f.d, 0, 3))
    assert semiladder_extension_oracle(ib, B) == ref_extension(ib, B)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_weak_witness_matches_reference_on_spread_graphs(data):
    g = data.draw(spread_graphs())
    f = data.draw(st.one_of(product_formulas(), covering_formulas()))
    ib = ImplicitBipartite(g, f)
    a = data.draw(tuples(g, f.c, 1, 1))[0]
    assert weak_witness_oracle(ib, a) == ref_weak(ib, a)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_strong_witness_matches_reference_on_spread_graphs(data):
    g = data.draw(spread_graphs(max_n=14))
    f = data.draw(st.one_of(product_formulas(), covering_formulas()))
    ib = ImplicitBipartite(g, f)
    A = data.draw(tuples(g, f.c, 1, 3))
    p = data.draw(st.integers(1, 2))
    assert strong_witness_oracle(ib, A, p) == ref_strong(ib, A, p)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_extension_matches_reference_on_spread_graphs(data):
    g = data.draw(spread_graphs(max_n=12))
    f = data.draw(st.one_of(product_formulas(), covering_formulas()))
    ib = ImplicitBipartite(g, f)
    B = data.draw(tuples(g, f.d, 0, 3))
    assert semiladder_extension_oracle(ib, B) == ref_extension(ib, B)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_extension_matches_reference_with_two_witness_variables(data):
    g = data.draw(st.one_of(graphs(max_n=7), spread_graphs(max_n=10)))
    f = data.draw(d2_formulas())
    ib = ImplicitBipartite(g, f)
    B = data.draw(tuples(g, 2, 0, 3))
    assert semiladder_extension_oracle(ib, B) == ref_extension(ib, B)


PATH20 = generate("path", {"n": 20})


@pytest.mark.parametrize("f, a, B", [
    # the balls of 0 and 10 leave vertex 2, the far class, between them
    (build_delta(2, 1), (0, 10), [(0,), (10,)]),
    (build_eta(2, 1), (0, 10), [(0,), (10,), (19,)]),
    (DistanceFormula(2, 2, And((Atom(1, 0, 0), Not(Atom(0, 1, 1))))),
     (3, 12), [(0, 10), (19, 2)]),
])
def test_oracles_match_reference_when_the_far_class_is_between_balls(f, a,
                                                                     B):
    ib = ImplicitBipartite(PATH20, f)
    assert weak_witness_oracle(ib, a) == ref_weak(ib, a)
    for p in (1, 2, 3):
        assert strong_witness_oracle(ib, [a], p) == ref_strong(ib, [a], p)
        assert (strong_witness_oracle(ib, [a, (5,) * f.c], p)
                == ref_strong(ib, [a, (5,) * f.c], p))
    assert semiladder_extension_oracle(ib, B) == ref_extension(ib, B)


# --- each distinct matrix is evaluated once ----------------------------------

@pytest.fixture
def evaluations(monkeypatch):
    seen = []

    def counting(f, m):
        seen.append(m)
        return evaluate(f, m)

    monkeypatch.setattr(oracles, "evaluate", counting)
    return seen


CYCLE9 = generate("cycle", {"n": 9})
CALLS = [
    (candidate_oracle, build_eta(3, 2), ([(0,), (4,), (6,)],)),
    (candidate_oracle,
     DistanceFormula(2, 2, And((Atom(1, 0, 0), Not(Atom(0, 1, 1))))),
     ([(0, 3), (5, 5)],)),
    (weak_witness_oracle, build_eta(3, 2), ((0, 3, 6),)),
    (weak_witness_oracle, build_delta(2, 1), ((0, 4),)),
    (strong_witness_oracle, build_eta(3, 2), ([(0, 3, 6), (1, 4, 7)], 2)),
    (semiladder_extension_oracle, build_delta(2, 1), ([(0,), (4,)],)),
    (semiladder_extension_oracle,
     DistanceFormula(1, 2, Or((Atom(1, 0, 0), Atom(1, 0, 1)))),
     ([(0, 2)],)),
]


@pytest.mark.parametrize("oracle, f, args", CALLS)
def test_no_matrix_is_evaluated_twice(evaluations, oracle, f, args):
    oracle(ImplicitBipartite(CYCLE9, f), *args)
    assert evaluations
    rows = [m.rows for m in evaluations]
    assert len(set(rows)) == len(rows)
    assert all(m.cap == f.radius() for m in evaluations)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_no_matrix_is_evaluated_twice_on_random_calls(data):
    g, f = data.draw(graphs()), data.draw(product_formulas())
    ib = ImplicitBipartite(g, f)
    B = data.draw(tuples(g, f.d, 0, 4))
    A = data.draw(tuples(g, f.c, 1, 3))
    seen = []

    def counting(f, m):
        seen.append(m.rows)
        return evaluate(f, m)

    calls = [lambda: candidate_oracle(ib, B),
             lambda: weak_witness_oracle(ib, A[0]),
             lambda: strong_witness_oracle(ib, A, 2)]
    saved = oracles.evaluate
    oracles.evaluate = counting
    try:
        for call in calls:
            seen.clear()
            call()
            assert len(set(seen)) == len(seen)
    finally:
        oracles.evaluate = saved


SOLVES = [
    (generate("path", {"n": 12}), build_eta(3, 5), 3),
    (generate("cycle", {"n": 11}), build_eta(3, 3), 4),
    (generate("cycle", {"n": 12}), build_delta(2, 2), 2),
    (generate("grid", {"rows": 3, "cols": 4}),
     DistanceFormula(2, 1, And((Atom(2, 0, 0), Not(Atom(0, 1, 0))))), 2),
    (generate("path", {"n": 9}),
     DistanceFormula(1, 2, Or((Atom(1, 0, 0), Atom(2, 0, 1)))), 2),
]


@pytest.mark.parametrize("g, f, p", SOLVES)
def test_one_evaluation_per_matrix_per_implicit_graph(evaluations, g, f, p):
    """The four oracles share one evaluation memo per implicit graph, so no
    matrix is evaluated twice across whole solves on it."""
    ib = ImplicitBipartite(g, f)
    semi_ladder_solve(ib)
    ladder_solve(ib, p)
    coverage_core(ib)
    semi_ladder_solve(ib)
    assert evaluations
    rows = [m.rows for m in evaluations]
    assert len(set(rows)) == len(rows)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_one_evaluation_per_matrix_on_random_solves(data):
    g, f = data.draw(graphs(max_n=7)), data.draw(product_formulas())
    ib = ImplicitBipartite(g, f)
    seen = []

    def counting(f, m):
        seen.append(m.rows)
        return evaluate(f, m)

    saved = oracles.evaluate
    oracles.evaluate = counting
    try:
        semi_ladder_solve(ib)
        coverage_core(ib)
        ladder_solve(ib, 2)
    finally:
        oracles.evaluate = saved
    assert len(set(seen)) == len(seen)


# --- no distance list is kept per tried witness tuple ------------------------

def test_extension_memory_stays_within_a_few_distance_lists():
    """A call that tries every witness tuple and finds none: its peak stays
    within a few length-n distance lists, so nothing per tried tuple is
    kept and the tuples are made one at a time.  ``product(range(n))``
    alone would hold n int objects, about five lists' worth (a peak near
    seven lists in all); a distance list kept per tried tuple would be n
    lists."""
    n = 4000
    ib = ImplicitBipartite(generate("cycle", {"n": n}), build_delta(1, 1))
    B = [(0,), (n // 2,)]  # no vertex is within 1 of both
    semiladder_extension_oracle(ib, B)  # fill the evaluation memo
    one_list = sys.getsizeof([INF] * n)
    tracemalloc.start()
    try:
        assert semiladder_extension_oracle(ib, B) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * one_list


# --- no reference cycles -----------------------------------------------------------

@pytest.fixture
def no_gc():
    gc.collect()
    gc.disable()
    yield
    gc.enable()


CYCLE11 = generate("cycle", {"n": 11})
CYCLE40 = generate("cycle", {"n": 40})
GC_CALLS = [
    lambda: candidate_oracle(ImplicitBipartite(CYCLE40, build_delta(2, 2)),
                             [(0,), (20,), (10,)]),
    lambda: candidate_oracle(ImplicitBipartite(CYCLE40, build_delta(2, 2)),
                             [(0,), (20,), (3,)]),
    lambda: candidate_oracle(ImplicitBipartite(CYCLE11, build_eta(3, 3)),
                             [(0,), (5,)]),
    lambda: weak_witness_oracle(ImplicitBipartite(CYCLE11, build_eta(3, 3)),
                                (0, 3, 6)),
    lambda: strong_witness_oracle(ImplicitBipartite(CYCLE11, build_eta(3, 3)),
                                  [(0, 3, 6), (0, 4, 7)], 2),
    lambda: strong_witness_oracle(ImplicitBipartite(CYCLE11, build_eta(3, 3)),
                                  [(0, 3, 6), (0, 4, 7)], 1),
    lambda: semiladder_extension_oracle(
        ImplicitBipartite(CYCLE11, build_delta(2, 1)), [(0,), (5,)]),
    lambda: coverage_core(ImplicitBipartite(CYCLE11, build_eta(2, 1))),
    lambda: ladder_solve(ImplicitBipartite(CYCLE11, build_eta(3, 3)), 4),
]


@pytest.mark.parametrize("call", GC_CALLS)
def test_oracle_leaves_no_reference_cycle(no_gc, call):
    call()
    assert gc.collect() == 0


# --- helpers that now share the profile table or the bit loop -------------------

@settings(max_examples=100, deadline=None)
@given(st.data())
def test_realized_count_equals_dense_count(data):
    g = data.draw(graphs())
    r = data.draw(st.integers(0, 4))
    pivot = sorted(data.draw(st.sets(st.integers(0, g.n - 1), max_size=3)))
    dists = [bfs_capped(g, s, r) for s in pivot]
    dense = len({tuple(d[v] for d in dists) for v in range(g.n)})
    assert _realized_count(g, pivot, r) == dense


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_bipartite_edges_and_right_adj_keep_their_order(data):
    left, right = data.draw(st.integers(0, 7)), data.draw(st.integers(0, 7))
    adj = tuple(data.draw(st.integers(0, (1 << right) - 1))
                for _ in range(left))
    h = BipartiteGraph(left, right, adj)
    assert list(h.edges()) == [(l, b) for l in range(left)
                               for b in range(right) if adj[l] >> b & 1]
    assert h.right_adj() == tuple(
        sum(1 << l for l in range(left) if adj[l] >> b & 1)
        for b in range(right))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_independent_set_takes_lowest_id_realizers(data):
    """The pick is instantiated by the lowest-id distinct realizers of each
    chosen profile, as the per-pick scan over all vertices did."""
    g = data.draw(graphs(max_n=10))
    k, r = data.draw(st.integers(2, 3)), data.draw(st.integers(1, 2))
    seen = {}
    saved = (solvers._free_multiset, solvers._exchange,
             solvers.build_profile_table)

    def free_multiset(*args):
        seen["pick"] = saved[0](*args)
        return seen["pick"]

    def exchange(g, X, r):
        seen["X"] = list(X)
        return saved[1](g, X, r)

    def table(*args):
        seen["table"] = saved[2](*args)
        return seen["table"]

    solvers._free_multiset, solvers._exchange = free_multiset, exchange
    solvers.build_profile_table = table
    try:
        d = independent_set_solve(g, k, r)
    finally:
        (solvers._free_multiset, solvers._exchange,
         solvers.build_profile_table) = saved
    if "X" not in seen:
        assert d.kind == "NO_SOLUTION" or k == 1
        return
    X = []
    for i, need in Counter(seen["pick"]).items():
        X += [v for v in range(g.n)
              if seen["table"].vertex_to_profile[v] == i][:need]
    assert seen["X"] == sorted(X)
