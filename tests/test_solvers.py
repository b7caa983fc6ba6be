import random
from itertools import chain, combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from progexplore import (Decision, Dichotomy, Graph, INF, ImplicitBipartite,
                         InputError, NO_SOLUTION, NOT_EXISTS, EXISTS,
                         ResourceBudgetError, SEMILADDER, SOLUTION,
                         STRATEGIES, bfs_capped, brute_force_dominating,
                         brute_force_independent, build_delta, build_eta,
                         check_p_helly, compute_precore, coverage_bruteforce,
                         coverage_core, generate, greedy_dichotomy, index_of,
                         independent_set_solve, ladder_solve, materialize,
                         resolve_strategy, semi_ladder_solve,
                         splitter_game_round, tuple_index)


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def random_connected(n, seed):
    rng = random.Random(seed)
    while True:
        g = Graph.from_edges(
            n, [e for e in combinations(range(n), 2) if rng.random() < 0.4])
        if n <= 1 or all(d != INF for d in bfs_capped(g, 0, n)):
            return g


def minimal_weak_p(h):
    for p in range(h.right_size + 1):
        if check_p_helly(h, p, "weak").holds:
            return p
    raise AssertionError("weak Helly must hold at p = |R|")


# --- semi-ladder solver -------------------------------------------------------

def test_semiladder_p4_single_vertex_fails():
    d = semi_ladder_solve(ImplicitBipartite(path(4), build_delta(1, 1)))
    assert d.kind == NO_SOLUTION


def test_semiladder_p4_pair_succeeds():
    g = path(4)
    d = semi_ladder_solve(ImplicitBipartite(g, build_delta(2, 1)))
    assert d.kind == SOLUTION
    dist = [bfs_capped(g, v, 1) for v in d.payload]
    assert all(any(dv[u] <= 1 for dv in dist) for u in range(4))


def test_semiladder_k1_first_round():
    d = semi_ladder_solve(ImplicitBipartite(Graph.from_edges(1, []),
                                            build_delta(1, 1)))
    assert d.kind == SOLUTION and d.payload == (0,)
    assert d.transcript.rounds == 0 and not d.transcript.witnesses


def test_semiladder_max_rounds_guard():
    ib = ImplicitBipartite(path(6), build_delta(1, 1))
    with pytest.raises(ResourceBudgetError):
        semi_ladder_solve(ib, max_rounds=1)
    with pytest.raises(InputError):
        semi_ladder_solve(ib, max_rounds=0)


@pytest.mark.parametrize("seed", range(25))
def test_semiladder_transcript_is_a_semiladder(seed):
    rng = random.Random(seed)
    g = random_connected(rng.randint(1, 6), seed)
    k, r = rng.choice([(1, 1), (2, 1), (1, 2)])
    ib = ImplicitBipartite(g, build_delta(k, r))
    d = semi_ladder_solve(ib)
    h = materialize(g, ib.formula)
    A = d.transcript.candidates
    B = d.transcript.witnesses
    for i, b in enumerate(B):
        bi = tuple_index(g.n, b)
        assert not h.has_edge(tuple_index(g.n, A[i]), bi)
        for j in range(i + 1, len(A)):
            assert h.has_edge(tuple_index(g.n, A[j]), bi)
    assert d.transcript.rounds <= index_of(h, SEMILADDER)[0]


# --- ladder solver ------------------------------------------------------------

def test_ladder_c5_no_distance_two_pair():
    g = cycle(5)
    ib = ImplicitBipartite(g, build_eta(2, 2))
    p = minimal_weak_p(materialize(g, ib.formula))
    d = ladder_solve(ib, max(p, 1))
    assert d.kind == NOT_EXISTS


def test_ladder_p5_endpoints_far():
    g = path(5)
    ib = ImplicitBipartite(g, build_eta(2, 2))
    p = minimal_weak_p(materialize(g, ib.formula))
    d = ladder_solve(ib, max(p, 1))
    assert d.kind == EXISTS
    assert d.payload is None  # existence only, no tuple


def test_ladder_covered_right_part_one_round():
    # the very first candidate on K2 dominates everything, so no witness
    # set ever defeats it and the first strong call already returns none
    d = ladder_solve(ImplicitBipartite(path(2), build_delta(1, 1)), 1)
    assert d.kind == EXISTS and d.transcript.rounds == 0


@pytest.mark.parametrize("seed", range(25))
def test_ladder_matches_coverage_when_weak_helly(seed):
    rng = random.Random(seed)
    g = random_connected(rng.randint(1, 6), seed + 31)
    f = rng.choice([build_delta(1, 1), build_delta(2, 1), build_eta(2, 1),
                    build_eta(2, 2)])
    ib = ImplicitBipartite(g, f)
    h = materialize(g, f)
    p = max(minimal_weak_p(h), 1)
    assert check_p_helly(h, p, "weak").holds
    d = ladder_solve(ib, p)
    want = coverage_bruteforce(h)
    assert (d.kind == EXISTS) == (want is not None)


# Recorded from the ladder loop that put every pick into B, repeats and all:
# (graph, formula, p, decision, candidates, witness picks per round,
# candidate and strong-witness oracle calls).
LADDER_RUNS = [
    (generate("path", {"n": 12}), build_eta(3, 5), 3, NOT_EXISTS,
     [(0, 0, 0), (0, 6, 6), (0, 6, 8), (0, 6, 10), (0, 7, 11), (0, 9, 11),
      (0, 11, 11)],
     [[0], [0, 4], [0, 5], [0, 6], [0, 7], [0, 8], [0, 4, 9]], (8, 7)),
    (generate("path", {"n": 12}), build_eta(3, 3), 4, EXISTS,
     [(0, 0, 0), (0, 4, 4), (0, 4, 6), (0, 4, 8)],
     [[0], [0, 3], [0, 4]], (4, 4)),
    (generate("cycle", {"n": 11}), build_eta(3, 3), 3, NOT_EXISTS,
     [(0, 0, 0), (0, 4, 4), (0, 4, 6), (0, 5, 7), (0, 7, 7), (1, 8, 8),
      (2, 9, 9)],
     [[0], [0, 3], [0, 4], [0, 5], [0, 3, 6], [0, 4, 7], [0, 5, 8]], (8, 7)),
    (generate("cycle", {"n": 11}), build_eta(3, 5), 3, NOT_EXISTS,
     [(0, 0, 0), (1, 5, 5), (2, 6, 6), (3, 7, 7), (4, 8, 8), (6, 8, 8),
      (8, 8, 8)],
     [[0], [0, 1], [0, 2], [0, 3], [0, 4], [0, 5], [0, 6]], (8, 7)),
    (generate("grid", {"rows": 4, "cols": 4}), build_eta(2, 2), 2, EXISTS,
     [(0, 0), (0, 3)], [[0]], (2, 2)),
    (generate("cycle", {"n": 9}), build_delta(2, 1), 2, NOT_EXISTS,
     [(0, 0), (0, 1), (0, 2), (0, 3), (1, 4), (2, 5)],
     [[2], [2, 3], [2, 4], [2, 5], [2, 6], [0, 6]], (7, 6)),
]


@pytest.mark.parametrize(
    "g, f, p, kind, candidates, picks, calls", LADDER_RUNS)
def test_ladder_adds_each_witness_once(g, f, p, kind, candidates, picks,
                                       calls):
    """B skips the picks it already holds, which changes nothing else: a
    repeated pick defeats only candidates that B already defeats."""
    d = ladder_solve(ImplicitBipartite(g, f), p)
    t = d.transcript
    assert (d.kind, t.rounds, t.candidates) == (kind, len(picks), candidates)
    assert t.witnesses == [[(w,) for w in ws] for ws in picks]
    assert t.oracle_calls == dict(zip(("candidate", "strong_witness"), calls))
    if kind == NOT_EXISTS:
        assert d.payload == list(dict.fromkeys(chain.from_iterable(
            t.witnesses)))
        assert len(set(d.payload)) == len(d.payload)


# --- coverage core ------------------------------------------------------------

def test_core_k2_is_empty():
    assert coverage_core(ImplicitBipartite(Graph.from_edges(2, [(0, 1)]),
                                           build_delta(1, 1))) == []


def test_core_star_forces_domination():
    g = generate("star", {"n": 4})
    ib = ImplicitBipartite(g, build_delta(1, 1))
    B = coverage_core(ib)
    dist = [bfs_capped(g, v, 1) for v in range(4)]
    for v in range(4):
        if all(dist[v][b[0]] <= 1 for b in B):
            assert all(dist[v][u] <= 1 for u in range(4))


@pytest.mark.parametrize("seed", range(25))
def test_core_contract_and_size(seed):
    rng = random.Random(seed)
    g = random_connected(rng.randint(1, 6), seed + 63)
    f = rng.choice([build_delta(1, 1), build_delta(2, 1), build_eta(2, 1)])
    ib = ImplicitBipartite(g, f)
    B = coverage_core(ib)
    h = materialize(g, f)
    core = {tuple_index(g.n, b) for b in B}
    for l in range(h.left_size):
        if all(h.has_edge(l, ri) for ri in core):
            assert h.left_adj[l] == (1 << h.right_size) - 1
    assert len(B) <= index_of(h, SEMILADDER)[0]


def test_core_budget_guard():
    ib = ImplicitBipartite(path(6), build_delta(1, 1))
    with pytest.raises(ResourceBudgetError):
        coverage_core(ib, max_rounds=1)


def test_core_rejects_zero_rounds():
    ib = ImplicitBipartite(path(6), build_delta(1, 1))
    with pytest.raises(InputError, match="max_rounds must be >= 1"):
        coverage_core(ib, max_rounds=0)


# --- greedy dichotomy ---------------------------------------------------------

def test_greedy_empty_input():
    assert greedy_dichotomy(path(3), [], 1, 2) == Dichotomy("covering", ())


def test_greedy_p10_independent_triple():
    got = greedy_dichotomy(path(10), range(10), 1, 2)
    assert got == Dichotomy("independent", (0, 3, 6))


def test_greedy_k5_single_cover():
    k5 = Graph.from_edges(5, list(combinations(range(5), 2)))
    assert greedy_dichotomy(k5, range(5), 1, 1) == Dichotomy("covering", (0,))


def test_greedy_rejects_outside_arena():
    with pytest.raises(InputError):
        greedy_dichotomy(path(4), [0, 3], 1, 1, allowed={0, 1})


@given(st.integers(0, 10 ** 6), st.integers(1, 8),
       st.integers(0, 2), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_greedy_postconditions(seed, n, r, k):
    g = random_connected(n, seed)
    rng = random.Random(seed + 5)
    X = sorted(rng.sample(range(n), rng.randint(0, n)))
    out = greedy_dichotomy(g, X, r, k)
    assert set(out.vertices) <= set(X)
    if out.kind == "independent":
        assert len(out.vertices) == k + 1
        for u, v in combinations(out.vertices, 2):
            assert bfs_capped(g, u, 2 * r)[v] == INF
    else:
        assert len(out.vertices) <= k
        for x in X:
            assert any(bfs_capped(g, z, 2 * r)[x] <= 2 * r
                       for z in out.vertices) or x in out.vertices


# --- splitter game ------------------------------------------------------------

def test_splitter_round_k1():
    w, arena = splitter_game_round(Graph.from_edges(1, []), 0, 1)
    assert w == 0 and arena == frozenset()


def test_splitter_round_p3_echo():
    w, arena = splitter_game_round(path(3), 1, 1, strategy="connector_echo")
    assert w == 1 and arena == frozenset({0, 2})


def test_splitter_round_star_leaf():
    g = generate("star", {"n": 4})
    w, arena = splitter_game_round(g, 1, 1, strategy="ball_max_degree")
    assert w == 0 and arena == frozenset({1})


def test_splitter_round_vertex_outside_arena():
    with pytest.raises(InputError):
        splitter_game_round(path(3), 0, 1, active=frozenset({1, 2}))


def test_splitter_bad_strategy_rejected():
    # a strategy is one of the built-in names, never a function
    def echo(g, active, v, ball):
        return v

    for strategy in ("random_walk", echo, STRATEGIES["connector_echo"]):
        with pytest.raises(InputError, match="unknown splitter strategy"):
            resolve_strategy(strategy)
        with pytest.raises(InputError):
            splitter_game_round(path(4), 0, 1, strategy=strategy)
        with pytest.raises(InputError):
            compute_precore(path(4), range(4), 1, 1, strategy=strategy)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_splitter_arena_strictly_shrinks(seed):
    rng = random.Random(seed)
    g = random_connected(rng.randint(1, 7), seed)
    active = frozenset(range(g.n))
    r = rng.choice([1, 2])
    for name in ("connector_echo", "ball_max_degree", "bfs_center"):
        cur = active
        while cur:
            v = min(cur)
            w, nxt = splitter_game_round(g, v, r, strategy=name, active=cur)
            assert w in cur and w not in nxt
            assert nxt < cur or (nxt <= cur and w in cur)
            assert len(nxt) < len(cur)
            cur = nxt


# --- pre-core -----------------------------------------------------------------

def captures(g, Q, D, a, r):
    # some path of length <= r from a to D meets Q (endpoints included)
    da = bfs_capped(g, a, r)
    Qs = set(Q)
    for q in Qs:
        if da[q] == INF:
            continue
        dq = bfs_capped(g, q, r)
        if any(da[q] + dq[d] <= r for d in D):
            return True
    return any(d in Qs or a in Qs for d in D if da[d] <= r) or False


def precore_contract_holds(g, A, Q, k, r):
    dist = [bfs_capped(g, v, r) for v in range(g.n)]
    for size in range(min(k, g.n) + 1):
        for D in combinations(range(g.n), size):
            if not all(any(dist[d][a] <= r for d in D) for a in A):
                continue
            for a in A:
                if not captures(g, Q, D, a, r):
                    return False
    return True


def test_precore_base_case_all_separator():
    g = Graph.from_edges(0, [])
    assert compute_precore(g, [], 2, 1) == []


def test_precore_empty_targets():
    assert compute_precore(path(4), [], 2, 1) == []


def test_precore_edgeless():
    g = Graph.from_edges(5, [])
    Q = compute_precore(g, range(5), 2, 1)
    assert precore_contract_holds(g, range(5), Q, 2, 1)


def test_precore_p6():
    g = path(6)
    Q = compute_precore(g, range(6), 2, 1)
    assert precore_contract_holds(g, range(6), Q, 2, 1)


def test_precore_rejects_bad_vertex():
    with pytest.raises(InputError):
        compute_precore(path(3), [7], 1, 1)


@pytest.mark.parametrize("seed", range(30))
def test_precore_contract_random(seed):
    rng = random.Random(seed)
    g = random_connected(rng.randint(1, 7), seed + 17)
    k = rng.choice([1, 2])
    r = rng.choice([1, 2])
    A = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
    Q = compute_precore(g, A, k, r)
    assert precore_contract_holds(g, A, Q, k, r)


# --- independent set solver ---------------------------------------------------

def test_indep_c5_no_pair():
    d = independent_set_solve(cycle(5), 2, 2)
    assert d.kind == NO_SOLUTION


def test_indep_p5_pair():
    d = independent_set_solve(path(5), 2, 2)
    assert d.kind == SOLUTION
    u, v = d.payload
    assert bfs_capped(path(5), u, 2)[v] == INF


def test_indep_k1_trivial():
    d = independent_set_solve(path(7), 1, 3)
    assert d == Decision(SOLUTION, (0,))


def test_indep_rejects_bad_k():
    with pytest.raises(InputError):
        independent_set_solve(path(3), 0, 1)


def test_indep_empty_graph():
    assert independent_set_solve(Graph.from_edges(0, []), 2, 1).kind == NO_SOLUTION


@pytest.mark.parametrize("seed", range(30))
def test_indep_matches_bruteforce(seed):
    rng = random.Random(seed)
    g = random_connected(rng.randint(1, 7), seed + 41)
    k = rng.choice([1, 2, 3])
    r = rng.choice([1, 2])
    d = independent_set_solve(g, k, r)
    want = brute_force_independent(g, k, r)
    assert (d.kind == SOLUTION) == (want is not None)
    if d.kind == SOLUTION:
        assert len(set(d.payload)) == k
        for u, v in combinations(d.payload, 2):
            assert bfs_capped(g, u, r)[v] == INF


# --- brute force reference ----------------------------------------------------

def test_brute_dominating_p4():
    assert brute_force_dominating(path(4), 2, 1) == (0, 2)


def test_brute_dominating_k0():
    assert brute_force_dominating(path(4), 0, 1) is None
    assert brute_force_dominating(Graph.from_edges(0, []), 0, 1) == ()


def test_brute_independent_p4():
    assert brute_force_independent(path(4), 2, 1) == (0, 2)
    assert brute_force_independent(path(4), 3, 1) is None


def test_brute_budget():
    g = Graph.from_edges(40, [(i, i + 1) for i in range(39)])
    with pytest.raises(ResourceBudgetError):
        brute_force_dominating(g, 20, 1, subset_budget=100)


@pytest.mark.parametrize("seed", range(20))
def test_brute_dominating_vs_semiladder(seed):
    rng = random.Random(seed)
    g = random_connected(rng.randint(1, 6), seed + 91)
    k = rng.choice([1, 2])
    r = rng.choice([1, 2])
    d = semi_ladder_solve(ImplicitBipartite(g, build_delta(k, r)))
    assert (d.kind == SOLUTION) == (brute_force_dominating(g, k, r) is not None)
