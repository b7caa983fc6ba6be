"""The pre-core's breakpoint refinement of placements against the full
placement product, the one ball of a splitter round, the lifetime of its
memo, the work budget of the profile-multiset search, the exchange loop,
and the bench config types."""
import gc
import json
import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from progexplore import (INF, STRATEGIES, Graph, InputError,
                         InternalInvariantError, ResourceBudgetError,
                         SplitterBudgetError, bfs_capped,
                         brute_force_independent, cli_main, compute_precore,
                         generate, independent_set_solve, serialize_graph,
                         splitter_game_round)
from progexplore import solvers
from progexplore.graph import ball_distances


def random_connected(n, seed):
    rng = random.Random(seed)
    while True:
        g = Graph.from_edges(
            n, [e for e in combinations(range(n), 2) if rng.random() < 0.4])
        if n <= 1 or all(d != INF for d in bfs_capped(g, 0, n)):
            return g


def product_placement_subsets(base, a_profiles, width, r):
    """Every placement vector in {0..r, INF}^width, distinct filtered sets
    kept in first-occurrence order: the enumeration the refinement
    replaces."""
    out, seen = [], set()
    for pvals in product(tuple(range(r + 1)) + (INF,), repeat=width):
        filtered = frozenset(a for a in base
                             if all(a_profiles[a][i] + pvals[i] > r
                                    for i in range(width)))
        if filtered not in seen:
            seen.add(filtered)
            out.append(filtered)
    return out


def random_cases(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        r = rng.randint(0, 5)
        width = rng.randint(0, 4)
        base = sorted(rng.sample(range(12), rng.randint(0, 8)))
        a_profiles = {a: tuple(rng.choice(list(range(r + 1)) + [INF, INF])
                               for _ in range(width)) for a in base}
        yield base, a_profiles, width, r


def test_refinement_matches_product_in_order():
    for base, a_profiles, width, r in random_cases(600, 7):
        want = product_placement_subsets(base, a_profiles, width, r)
        got = solvers._placement_subsets(base, a_profiles, width, r)
        assert got == want, (base, a_profiles, width, r)


def precore_run(monkeypatch, enumerate_placements, g, A, k, r, budget):
    """compute_precore with the given placement enumeration: its result
    (or the budget error) and the sequence of dichotomy calls it made."""
    calls = []
    dichotomy = solvers.greedy_dichotomy

    def logged(g_, X, r_, k_, allowed=None):
        calls.append((tuple(X), allowed))
        return dichotomy(g_, X, r_, k_, allowed=allowed)

    monkeypatch.setattr(solvers, "_placement_subsets", enumerate_placements)
    monkeypatch.setattr(solvers, "greedy_dichotomy", logged)
    try:
        result = compute_precore(g, A, k, r, depth_budget=budget)
    except SplitterBudgetError:
        result = SplitterBudgetError
    monkeypatch.undo()
    return result, calls


@pytest.mark.parametrize("seed", range(12))
def test_precore_equals_product_enumeration_at_every_budget(monkeypatch,
                                                            seed):
    rng = random.Random(seed)
    g = random_connected(rng.randint(2, 9), seed + 900)
    k, r = rng.choice([(1, 1), (2, 1), (1, 2), (2, 2), (2, 3)])
    A = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
    for budget in range(7):
        want = precore_run(monkeypatch, product_placement_subsets,
                           g, A, k, r, budget)
        got = precore_run(monkeypatch, solvers._placement_subsets,
                          g, A, k, r, budget)
        assert got == want, budget


def test_precore_budget_error_says_how_far_it_got():
    with pytest.raises(SplitterBudgetError,
                       match=r"at depth 1 .*\(\d+ subproblems solved\)"):
        compute_precore(generate("path", {"n": 12}), range(12), 2, 4,
                        depth_budget=1)


@pytest.fixture
def no_gc():
    gc.collect()
    gc.disable()
    yield
    gc.enable()


def test_precore_leaves_no_reference_cycle(no_gc):
    Q = compute_precore(generate("path", {"n": 12}), range(12), 2, 4)
    assert Q
    assert gc.collect() == 0


def test_precore_budget_error_leaves_no_reference_cycle(no_gc):
    try:
        compute_precore(generate("path", {"n": 12}), range(12), 2, 4,
                        depth_budget=1)
    except SplitterBudgetError:
        pass
    assert gc.collect() == 0


def test_independent_set_solve_leaves_no_reference_cycle(no_gc):
    d = independent_set_solve(generate("grid", {"rows": 3, "cols": 4}), 3, 2)
    assert d.kind == "SOLUTION"
    assert gc.collect() == 0


# --- profile-multiset search -------------------------------------------------

def recursive_free_multiset(compat, counts, k):
    """The recursive search the iterative one replaces."""
    np = len(counts)

    def dfs(start, chosen):
        if len(chosen) == k:
            return chosen
        for i in range(start, np):
            mult = chosen.count(i)
            if mult >= counts[i] or (mult and not compat[i][i]):
                continue
            if all(compat[j][i] for j in chosen):
                got = dfs(i, chosen + (i,))
                if got is not None:
                    return got
        return None

    return dfs(0, ())


def test_free_multiset_matches_recursive_search():
    rng = random.Random(3)
    for _ in range(500):
        np = rng.randint(0, 6)
        compat = [[False] * np for _ in range(np)]
        for i in range(np):
            for j in range(i, np):
                compat[i][j] = compat[j][i] = rng.random() < 0.5
        counts = [rng.randint(1, 3) for _ in range(np)]
        k = rng.randint(1, 5)
        assert (solvers._free_multiset(compat, counts, k, 10 ** 6)
                == recursive_free_multiset(compat, counts, k))


def test_free_multiset_budget_counts_nodes():
    # with every profile compatible the search walks straight down: the
    # root plus one node per chosen index
    compat = [[True] * 3 for _ in range(3)]
    assert solvers._free_multiset(compat, [5, 5, 5], 4, 5) == (0, 0, 0, 0)
    with pytest.raises(ResourceBudgetError,
                       match=r"4 nodes \(4 explored, deepest multiset "
                             r"size 3 of 4\)"):
        solvers._free_multiset(compat, [5, 5, 5], 4, 4)


def test_large_k_path_hits_the_work_budget():
    g = generate("path", {"n": 40})
    with pytest.raises(ResourceBudgetError,
                       match=r"2000 explored, deepest multiset size \d+"):
        independent_set_solve(g, 15, 2, work_budget=2000)


def test_work_budget_must_be_positive():
    with pytest.raises(InputError):
        independent_set_solve(generate("path", {"n": 4}), 2, 1,
                              work_budget=0)


def test_solve_indep_cli_exits_3_on_work_budget(tmp_path, capsys):
    f = tmp_path / "p40.txt"
    f.write_text(serialize_graph(generate("path", {"n": 40})))
    code = cli_main(["solve-indep", "--graph", str(f), "--k", "15",
                     "--r", "2", "--work-budget", "2000"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "deepest multiset size" in captured.err
    assert "Traceback" not in captured.err


# --- pre-core node budget ----------------------------------------------------

def test_precore_node_budget_counts_every_recursion_call():
    # the path-12 pre-core for k=2, r=4 makes 781 calls, memo hits included
    g = generate("path", {"n": 12})
    assert compute_precore(g, range(12), 2, 4, node_budget=781) \
        == compute_precore(g, range(12), 2, 4)
    with pytest.raises(ResourceBudgetError,
                       match=r"node budget of 780 recursion calls exhausted "
                             r"at depth \d+ \(deepest reached 7\); the memo "
                             r"holds \d+ solved subproblems"):
        compute_precore(g, range(12), 2, 4, node_budget=780)


def test_node_budget_stops_the_5x5_grid_early():
    # k=3, r=3 makes about four million pre-core calls on this grid: over a
    # minute of work that a small budget stops after 20000 of them
    with pytest.raises(ResourceBudgetError, match="node budget of 20000"):
        independent_set_solve(generate("grid", {"rows": 5, "cols": 5}), 3, 3,
                              node_budget=20000)


def test_node_budget_must_be_positive():
    with pytest.raises(InputError, match="node_budget"):
        compute_precore(generate("path", {"n": 4}), range(4), 1, 1,
                        node_budget=0)


def test_precore_node_budget_error_leaves_no_reference_cycle(no_gc):
    try:
        compute_precore(generate("path", {"n": 12}), range(12), 2, 4,
                        node_budget=100)
    except ResourceBudgetError:
        pass
    assert gc.collect() == 0


def test_solve_indep_cli_exits_3_on_node_budget(tmp_path, capsys):
    f = tmp_path / "grid5.txt"
    f.write_text(serialize_graph(generate("grid", {"rows": 5, "cols": 5})))
    code = cli_main(["solve-indep", "--graph", str(f), "--k", "3",
                     "--r", "3", "--node-budget", "20000"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "node budget of 20000 recursion calls" in captured.err
    assert "Traceback" not in captured.err


# --- exchange loop -----------------------------------------------------------

def old_exchange(g, X, r):
    """The exchange loop with one BFS per pair and one per candidate."""
    def close_pairs(members):
        return [(u, v) for u, v in combinations(sorted(members), 2)
                if bfs_capped(g, u, r)[v] <= r]

    def f_value(members):
        return len({v for pair in close_pairs(members) for v in pair})

    guard = len(X) + 1
    while True:
        pairs = close_pairs(X)
        if not pairs:
            return X
        guard -= 1
        if guard < 0:
            raise InternalInvariantError("no termination")
        before = f_value(X)
        rest = [x for x in X if x != pairs[0][1]]
        u = next((c for c in range(g.n)
                  if all(bfs_capped(g, c, r)[x] == INF for x in rest)), None)
        if u is None:
            raise InternalInvariantError("remainder dominates")
        X = sorted(rest + [u])
        if f_value(X) >= before:
            raise InternalInvariantError("no progress")


def test_exchange_matches_per_vertex_search():
    rng = random.Random(11)
    swaps = 0
    for seed in range(300):
        g = random_connected(rng.randint(2, 12), seed + 5000)
        r = rng.randint(0, 3)
        X = sorted(rng.sample(range(g.n), rng.randint(1, min(4, g.n))))
        try:
            want = old_exchange(g, X, r)
        except InternalInvariantError:
            with pytest.raises(InternalInvariantError):
                solvers._exchange(g, X, r)
            continue
        got = solvers._exchange(g, X, r)
        assert got == want, (seed, X, r)
        swaps += got != X
    assert swaps > 20  # the loop really ran


def test_ball_distances_is_the_nearest_source():
    g = random_connected(10, 77)
    for sources in ([0], [3, 7], [1, 2, 9], []):
        for cap in range(4):
            want = [min((bfs_capped(g, s, cap)[v] for s in sources),
                        default=INF) for v in range(g.n)]
            assert ball_distances(g, sources, cap) == {
                v: d for v, d in enumerate(want) if d != INF}


@pytest.mark.parametrize("seed", range(20))
def test_indep_still_matches_bruteforce(seed):
    rng = random.Random(seed)
    g = random_connected(rng.randint(2, 10), seed + 313)
    k, r = rng.choice([2, 3, 4]), rng.choice([1, 2, 3])
    d = independent_set_solve(g, k, r)
    want = brute_force_independent(g, k, r)
    assert (d.kind == "SOLUTION") == (want is not None)
    if want is not None:
        assert all(bfs_capped(g, u, r)[v] == INF
                   for u, v in combinations(d.payload, 2))


# --- one ball per splitter round ---------------------------------------------
# The round as it was when each strategy took the radius and ran its own BFS
# to rebuild the ball the round had already computed.


def own_bfs_connector_echo(g, active, v, r):
    return v


def own_bfs_ball_max_degree(g, active, v, r):
    bl = sorted(solvers.ball(g, v, r, allowed=active))

    def deg(u):
        if active is None:
            return g.degree(u)
        return sum(1 for w in g.neighbors(u) if w in active)

    return max(bl, key=lambda u: (deg(u), -u))


def own_bfs_center(g, active, v, r):
    bl = sorted(solvers.ball(g, v, r, allowed=active))
    big = g.n + 1

    def ecc(u):
        dist = bfs_capped(g, u, g.n, allowed=active)
        return max((dist[w] if dist[w] != INF else big) for w in bl)

    return min(bl, key=lambda u: (ecc(u), u))


OWN_BFS_STRATEGIES = {"connector_echo": own_bfs_connector_echo,
                      "ball_max_degree": own_bfs_ball_max_degree,
                      "bfs_center": own_bfs_center}


def own_bfs_round(g, v, r, strategy="ball_max_degree", active=None):
    bl = solvers.ball(g, v, r, allowed=active)
    w = OWN_BFS_STRATEGIES[strategy](g, active, v, r)
    assert w in bl
    return w, frozenset(bl) - {w}


@given(st.integers(0, 10 ** 6), st.integers(1, 9), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_splitter_round_matches_strategies_with_their_own_bfs(seed, n, r):
    rng = random.Random(seed)
    g = Graph.from_edges(n, [e for e in combinations(range(n), 2)
                             if rng.random() < 0.35])
    active = frozenset(u for u in range(n) if rng.random() < 0.7) or None
    if rng.random() < 0.3:
        active = None
    v = rng.choice(sorted(active or range(n)))
    assert set(OWN_BFS_STRATEGIES) == set(STRATEGIES)
    for name in STRATEGIES:
        assert (splitter_game_round(g, v, r, name, active=active)
                == own_bfs_round(g, v, r, name, active=active)), name


def count_calls(monkeypatch, name):
    """Patch ``solvers.<name>`` to log each call; returns the log."""
    calls = []
    inner = getattr(solvers, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(solvers, name, counted)
    return calls


def test_splitter_round_makes_one_ball_call(monkeypatch):
    g = generate("grid", {"rows": 3, "cols": 4})
    balls = count_calls(monkeypatch, "ball")
    for name in STRATEGIES:
        for active in (None, frozenset(range(1, 10))):
            balls.clear()
            splitter_game_round(g, 5, 2, name, active=active)
            assert len(balls) == 1, (name, active)


INDEP_PRECORE_CASES = [  # the indep-precore benchmark's graphs, seed 1
    (generate("path", {"n": 12}), 3, 4),
    (generate("path", {"n": 12}), 3, 5),
    (generate("grid", {"rows": 3, "cols": 4}), 3, 2),
    (generate("cycle", {"n": 12}), 3, 3),
    (generate("tree", {"n": 15}, seed=1), 3, 3),
]


@pytest.mark.parametrize("case", range(len(INDEP_PRECORE_CASES)))
def test_precore_saves_one_ball_call_per_round(monkeypatch, case):
    g, k, r = INDEP_PRECORE_CASES[case]
    runs = []
    for round_ in (solvers.splitter_game_round, own_bfs_round):
        with monkeypatch.context() as m:
            m.setattr(solvers, "splitter_game_round", round_)
            balls = count_calls(m, "ball")
            rounds = count_calls(m, "splitter_game_round")
            # independent_set_solve asks for the pre-core of (G, V, k - 1)
            Q = compute_precore(g, range(g.n), k - 1, r)
        runs.append((Q, len(balls), len(rounds)))
    (q_new, balls_new, rounds_new), (q_old, balls_old, rounds_old) = runs
    assert q_new == q_old
    assert rounds_new == rounds_old > 0
    assert balls_old - balls_new == rounds_new


# --- bench config types ------------------------------------------------------

@pytest.mark.parametrize("key,value", [
    ("materialize_budget", "x"),
    ("materialize_budget", True),
    ("materialize_budget", 1.5),
    ("cross_validate", "false"),
    ("bound_check", "false"),
    ("cross_validate", 0),
])
def test_bench_config_bad_type_is_usage_error(tmp_path, capsys, key, value):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({
        "instances": [{"family": "path", "params": {"n": 4}}],
        "problems": [{"kind": "domset", "k": 1, "r": 1}],
        key: value,
    }))
    code = cli_main(["bench", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"'{key}'" in captured.err
    assert "Traceback" not in captured.err


def test_bench_config_good_types_run(tmp_path, capsys):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({
        "instances": [{"family": "path", "params": {"n": 4}}],
        "problems": [{"kind": "domset", "k": 2, "r": 1}],
        "cross_validate": True, "bound_check": False,
        "materialize_budget": 10,
    }))
    assert cli_main(["bench", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2 and out[1].endswith(",,,true,")
