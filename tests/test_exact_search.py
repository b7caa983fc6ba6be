"""The pruned obstruction search, its run on twin classes, the early-exit
Helly checks and the once-per-matrix materialization against the code they
replace, the lifetime of the search's memo, the independent-set verifier's
BFS count, and the names the traced benchmark wraps."""
import gc
import importlib.util
import inspect
import random
import sys
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from progexplore import (COMATCHING, LADDER, OBSTRUCTION_KINDS, SEMILADDER,
                         BipartiteGraph, DistanceFormula, HellyResult,
                         Obstruction, ResourceBudgetError, bfs_capped,
                         bipartite, build_delta, build_eta, check_p_helly,
                         cli, generate, index_of, materialize, solvers)
from progexplore.formulas import And, Atom, DistanceMatrix, Not, Or, evaluate
from progexplore.graph import INF, Graph

# --- references: the unpruned code ------------------------------------------


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def unpruned_index(h, kind):
    """The ladder / co-matching search without pruning; returns the order,
    the two sequences and the number of states it visited."""
    full_l = (1 << h.left_size) - 1
    full_r = (1 << h.right_size) - 1
    radj = h.right_adj()
    memo = {}

    def child_b(b_pool, a):
        if kind == LADDER:
            return b_pool & ~h.left_adj[a] & full_r
        return b_pool & h.left_adj[a]

    def best(a_pool, b_pool):
        key = (a_pool, b_pool)
        if key in memo:
            return memo[key]
        depth, choice = 0, None
        for a in _bits(a_pool):
            for b in _bits(b_pool & ~h.left_adj[a]):
                sub, _ = best(a_pool & radj[b], child_b(b_pool, a))
                if sub + 1 > depth:
                    depth, choice = sub + 1, (a, b)
        memo[key] = (depth, choice)
        return depth, choice

    order, _ = best(full_l, full_r)
    a_seq, b_seq = [], []
    a_pool, b_pool = full_l, full_r
    for _ in range(order):
        _, (a, b) = memo[(a_pool, b_pool)]
        a_seq.append(a)
        b_seq.append(b)
        a_pool, b_pool = a_pool & radj[b], child_b(b_pool, a)
    return order, tuple(a_seq), tuple(b_seq), len(memo)


def uncollapsed_index(h, kind):
    """The pruned search over every vertex of ``h``, twins included; returns
    ``index_of``'s answer and the number of states it visited."""
    full_l = (1 << h.left_size) - 1
    full_r = (1 << h.right_size) - 1
    radj = h.right_adj()
    memo = {}

    if kind == SEMILADDER:
        def best(a_pool):
            if a_pool in memo:
                return memo[a_pool]
            depth, choice = 0, None
            for b in range(h.right_size):
                if a_pool & ~radj[b] & full_l:
                    sub, _ = best(a_pool & radj[b])
                    if sub + 1 > depth:
                        depth, choice = sub + 1, b
            memo[a_pool] = (depth, choice)
            return depth, choice
    else:
        non_adj = [full_r & ~mask for mask in h.left_adj]
        keep = non_adj if kind == LADDER else h.left_adj

        def best(a_pool, b_pool):
            key = (a_pool, b_pool)
            if key in memo:
                return memo[key]
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

    order, _ = best(full_l) if kind == SEMILADDER else best(full_l, full_r)
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
    obstruction = Obstruction(kind, tuple(a_seq), tuple(b_seq))
    return (order, obstruction), len(memo)


def per_pair_materialize(g, f):
    """One evaluate call per candidate/witness pair; also returns the set of
    distinct matrices it evaluated."""
    r = f.radius()
    dist = [bfs_capped(g, v, r) for v in range(g.n)]
    left = list(product(range(g.n), repeat=f.c))
    right = list(product(range(g.n), repeat=f.d))
    adj, matrices = [], set()
    for a in left:
        mask = 0
        for idx, b in enumerate(right):
            rows = tuple(tuple(dist[ai][bj] for bj in b) for ai in a)
            matrices.add(rows)
            if evaluate(f, DistanceMatrix(r, rows)):
                mask |= 1 << idx
        adj.append(mask)
    return BipartiteGraph(len(left), len(right), tuple(adj)), matrices


def two_pass_helly(h, p, variant):
    """The whole cover table first, then a scan for the first violation."""
    full_l = (1 << h.left_size) - 1
    full_r = (1 << h.right_size) - 1
    radj = h.right_adj()
    size = 1 << h.right_size
    cov = [0] * size
    cov[0] = full_l
    for mask in range(1, size):
        low = mask & -mask
        cov[mask] = cov[mask ^ low] & radj[low.bit_length() - 1]
    left_all = tuple(range(h.left_size))
    if variant == "weak":
        if cov[full_r] or any(cov[m] == 0 and m.bit_count() <= p
                              for m in range(size)):
            return HellyResult(True, None)
        return HellyResult(False, (left_all, tuple(_bits(full_r))))
    if variant == "full":
        small = [False] * size
        for mask in range(size):
            if cov[mask] == 0 and mask.bit_count() <= p:
                small[mask] = True
                continue
            m = mask
            while m and not small[mask]:
                low = m & -m
                small[mask] = small[mask ^ low]
                m ^= low
        for mask in range(size):
            if cov[mask] == 0 and not small[mask]:
                return HellyResult(False, (left_all, tuple(_bits(mask))))
        return HellyResult(True, None)
    eq = [False] * size
    for mask in range(size):
        if mask.bit_count() <= p:
            eq[mask] = True
            continue
        m = mask
        while m and not eq[mask]:
            low = m & -m
            if cov[mask ^ low] == cov[mask]:
                eq[mask] = eq[mask ^ low]
            m ^= low
    for mask in range(size):
        if not eq[mask]:
            return HellyResult(False, (tuple(_bits(full_l & ~cov[mask])),
                                       tuple(_bits(mask))))
    return HellyResult(True, None)


def bipartite_graphs(max_left, max_right):
    return st.integers(0, max_left).flatmap(
        lambda left: st.integers(0, max_right).flatmap(
            lambda right: st.lists(
                st.integers(0, (1 << right) - 1),
                min_size=left, max_size=left).map(
                    lambda rows: BipartiteGraph(left, right, tuple(rows)))))


def seeded_16x16(seed, density):
    rng = random.Random(seed)
    return BipartiteGraph.from_edges(
        16, 16, [(l, r) for l in range(16) for r in range(16)
                 if rng.random() < density])


# --- the pruned search -------------------------------------------------------


def assert_same_obstruction(h, kind):
    order, obstruction = index_of(h, kind)
    want = unpruned_index(h, kind)
    assert (order, obstruction.a_seq, obstruction.b_seq) == want[:3]
    assert obstruction.kind == kind and obstruction.verify(h)


@settings(max_examples=300, deadline=None)
@given(bipartite_graphs(9, 9), st.sampled_from((LADDER, COMATCHING)))
def test_pruned_search_equals_unpruned(h, kind):
    assert_same_obstruction(h, kind)


@pytest.mark.parametrize("density", (0.3, 0.5, 0.7))
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", (LADDER, COMATCHING))
def test_pruned_search_equals_unpruned_16x16(seed, density, kind):
    assert_same_obstruction(seeded_16x16(seed, density), kind)


@settings(max_examples=100, deadline=None)
@given(bipartite_graphs(7, 7), st.sampled_from((LADDER, COMATCHING)))
def test_budget_fires_no_earlier_than_unpruned(h, kind):
    # the pruned search visits a subset of the unpruned search's states
    order, _, _, visited = unpruned_index(h, kind)
    assert index_of(h, kind, node_budget=visited)[0] == order


# --- the search on twin classes ----------------------------------------------


@st.composite
def twin_graphs(draw):
    """A small graph whose rows and columns are repeated and shuffled."""
    base = draw(bipartite_graphs(5, 5))
    rows = draw(st.lists(st.integers(0, base.left_size - 1), max_size=10)
                if base.left_size else st.just([]))
    cols = draw(st.lists(st.integers(0, base.right_size - 1), max_size=10)
                if base.right_size else st.just([]))
    return BipartiteGraph(len(rows), len(cols), tuple(
        sum(1 << j for j, c in enumerate(cols) if base.left_adj[i] >> c & 1)
        for i in rows))


def assert_same_as_uncollapsed(h, kind):
    want, visited = uncollapsed_index(h, kind)
    assert index_of(h, kind) == want
    # the twin-class search visits no more states than the search over all
    # of h, so a budget that lets the old search finish lets it finish too
    assert index_of(h, kind, node_budget=visited) == want


@settings(max_examples=300, deadline=None)
@given(twin_graphs(), st.sampled_from(OBSTRUCTION_KINDS))
def test_twin_class_search_equals_uncollapsed(h, kind):
    assert_same_as_uncollapsed(h, kind)


def exact_indices_graphs():
    """The four materialized graphs of the exact-indices benchmark, with the
    tree of both of its seeds."""
    yield materialize(generate("cycle", {"n": 8}), build_delta(3, 1))
    yield materialize(generate("cycle", {"n": 10}), build_eta(2, 1))
    yield materialize(generate("grid", {"rows": 3, "cols": 3}),
                      build_delta(2, 1))
    for seed in (1, 2):
        yield materialize(generate("tree", {"n": 8}, seed=seed),
                          build_delta(3, 1))


@pytest.mark.parametrize("kind", OBSTRUCTION_KINDS)
def test_twin_class_search_on_materialized_graphs(kind):
    for h in exact_indices_graphs():
        distinct_rows = len(set(h.left_adj))
        assert distinct_rows < h.left_size  # there are twins to collapse
        assert_same_as_uncollapsed(h, kind)


def test_budget_error_says_how_far_it_got():
    h = BipartiteGraph.from_edges(
        8, 8, [(i, j) for i in range(8) for j in range(8) if i != j])
    with pytest.raises(ResourceBudgetError) as err:
        index_of(h, COMATCHING, node_budget=3)
    message = str(err.value)
    assert "comatching" in message
    assert "budget of 3 states" in message
    assert "3 visited" in message and "memo holds 0" in message


@pytest.mark.parametrize("kind", (LADDER, SEMILADDER))
def test_recursion_limit_is_a_budget_error(kind):
    # edge iff i > j: both searches descend one level per obstruction step
    h = BipartiteGraph.from_edges(
        200, 200, [(i, j) for i in range(200) for j in range(i)])
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        with pytest.raises(ResourceBudgetError) as err:
            index_of(h, kind)
    finally:
        sys.setrecursionlimit(saved)
    message = str(err.value)
    assert message.startswith(f"{kind} obstruction search ran past the "
                              "interpreter's recursion limit (")
    assert " states visited, memo holds " in message


@pytest.fixture
def no_gc():
    gc.collect()
    gc.disable()
    yield
    gc.enable()


@pytest.mark.parametrize("kind", OBSTRUCTION_KINDS)
def test_index_of_leaves_no_reference_cycle(no_gc, kind):
    order, _ = index_of(seeded_16x16(1, 0.5), kind)
    assert order > 0
    assert gc.collect() == 0


@pytest.mark.parametrize("kind", OBSTRUCTION_KINDS)
def test_index_budget_error_leaves_no_reference_cycle(no_gc, kind):
    try:
        index_of(seeded_16x16(1, 0.5), kind, node_budget=5)
    except ResourceBudgetError:
        pass
    else:
        pytest.fail("budget of 5 states did not fire")
    assert gc.collect() == 0


# --- the early-exit Helly checks ---------------------------------------------

VARIANTS = ("weak", "full", "strong")


@settings(max_examples=400, deadline=None)
@given(bipartite_graphs(7, 8), st.integers(0, 5), st.sampled_from(VARIANTS))
def test_helly_equals_two_pass_scan(h, p, variant):
    assert check_p_helly(h, p, variant) == two_pass_helly(h, p, variant)


@settings(max_examples=200, deadline=None)
@given(bipartite_graphs(7, 7), st.integers(0, 5))
def test_strong_helly_threshold_is_comatching_index(h, p):
    # the law the exact-indices benchmark checks on its own graphs
    cm = index_of(h, COMATCHING)[0]
    assert check_p_helly(h, p, "strong").holds == (cm <= p)


EDGE_CASES = (
    BipartiteGraph(0, 0, ()),
    BipartiteGraph(0, 3, ()),
    BipartiteGraph(3, 0, (0, 0, 0)),
    BipartiteGraph(1, 1, (0,)),           # R uncovered, its only subset too
    BipartiteGraph(2, 2, (0b11, 0b00)),   # left 0 covers the side
    BipartiteGraph(2, 3, (0b011, 0b110)),
)


@pytest.mark.parametrize("h", EDGE_CASES)
@pytest.mark.parametrize("p", range(6))
@pytest.mark.parametrize("variant", VARIANTS)
def test_helly_edge_cases(h, p, variant):
    assert check_p_helly(h, p, variant) == two_pass_helly(h, p, variant)


def test_helly_p0_empty_set_is_covered():
    # p = 0 only allows the empty subset, which is covered whenever L is
    # nonempty: an uncovered right vertex is then a counterexample
    h = BipartiteGraph(1, 1, (0,))
    assert check_p_helly(h, 0, "full") == HellyResult(False, ((0,), (0,)))
    assert not check_p_helly(h, 0, "weak").holds
    assert check_p_helly(h, 1, "full").holds


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("variant", VARIANTS)
def test_helly_equals_two_pass_scan_16x16(seed, variant):
    for density in (0.3, 0.5, 0.7):
        h = seeded_16x16(seed, density)
        cm = index_of(h, COMATCHING)[0]
        for p in (1, 2, cm - 1, cm):
            if p >= 0:
                assert check_p_helly(h, p, variant) == \
                    two_pass_helly(h, p, variant)


# --- materialization, one evaluate call per distinct matrix ------------------

HAND_BUILT = DistanceFormula(2, 1, And((
    Not(Atom(1, 0, 0)),
    Or((Atom(2, 1, 0), Not(And((Atom(0, 0, 0), Atom(3, 1, 0)))))))))

MATERIALIZE_CASES = (
    (generate("path", {"n": 5}), build_delta(2, 1)),
    (generate("cycle", {"n": 6}), build_eta(2, 1)),
    (generate("grid", {"rows": 2, "cols": 3}), build_eta(3, 2)),
    (generate("star", {"n": 5}), HAND_BUILT),
    (Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)]), build_delta(2, 1)),
    (Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)]), build_eta(2, 2)),
    (Graph.from_edges(5, [(0, 1), (2, 3)]), HAND_BUILT),
    (Graph.from_edges(1, []), build_delta(1, 0)),
)


@pytest.mark.parametrize("g, f", MATERIALIZE_CASES)
def test_materialize_equals_per_pair_evaluation(monkeypatch, g, f):
    want, matrices = per_pair_materialize(g, f)
    calls = []

    def counted(formula, matrix):
        calls.append(matrix.rows)
        return evaluate(formula, matrix)

    monkeypatch.setattr(bipartite, "evaluate", counted)
    assert materialize(g, f) == want
    assert sorted(calls, key=repr) == sorted(matrices, key=repr)


def test_materialize_sees_unreachable_pairs():
    g, f = MATERIALIZE_CASES[4]
    _, matrices = per_pair_materialize(g, f)
    assert any(INF in row for rows in matrices for row in rows)


def test_materialize_budget_fires_before_any_bfs(monkeypatch):
    def no_bfs(*args):
        raise AssertionError("materialize ran a BFS past its pair budget")

    monkeypatch.setattr(bipartite, "bfs_capped", no_bfs)
    with pytest.raises(ResourceBudgetError) as err:
        materialize(generate("path", {"n": 40}), build_delta(3, 1),
                    pair_budget=1000)
    assert str(err.value) == \
        "2560000 candidate/witness pairs exceed budget 1000"


# --- the independent-set verifier --------------------------------------------


def test_verify_independent_runs_one_bfs_per_member(monkeypatch):
    g = generate("path", {"n": 200})
    calls = []

    def counted(graph, source, radius):
        calls.append(source)
        return bfs_capped(graph, source, radius)

    monkeypatch.setattr(solvers, "bfs_capped", counted)
    members = list(range(0, 200, 10))
    assert cli._verify_independent(g, members, 2)
    assert 0 < len(calls) <= len(members)
    calls.clear()
    assert not cli._verify_independent(g, members + [102], 2)
    assert len(calls) <= len(members) + 1


def test_verify_independent_equals_pairwise_check():
    rng = random.Random(7)
    verdicts = set()
    for _ in range(200):
        n = rng.randint(1, 14)
        g = generate("tree", {"n": n}, seed=rng.randint(0, 10**6))
        members = rng.sample(range(n), rng.randint(0, min(n, 5)))
        if members and rng.random() < 0.2:
            members.append(members[0])  # a repeated member is never far
        r = rng.randint(0, 4)
        pairwise = all(bfs_capped(g, u, r)[v] > r
                       for u, v in combinations(sorted(members), 2))
        assert cli._verify_independent(g, members, r) == pairwise
        verdicts.add(pairwise)
    assert verdicts == {True, False}  # solutions and non-solutions both met


# --- the traced benchmark's targets ------------------------------------------


def test_trace_targets_exist():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing.SPAN_TARGETS + tracing.LEAF_TARGETS
    assert targets
    for module, attr, _, _ in targets:
        assert module.__name__.startswith("progexplore.")
        assert callable(getattr(module, attr, None)), \
            f"{module.__name__}.{attr} is gone"
