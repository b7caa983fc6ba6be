import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from progexplore import (Graph, INF, InputError, build_profile_table,
                         generate, measure_profile_complexity,
                         profile_of_vertex)


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def random_graph(n, seed, p=0.5):
    rng = random.Random(seed)
    return Graph.from_edges(
        n, [e for e in combinations(range(n), 2) if rng.random() < p])


def test_vertex_profile_out_of_reach():
    assert profile_of_vertex(path(3), [0], 1, 2).values == (INF,)


def test_vertex_profile_self():
    g = random_graph(5, 1)
    assert profile_of_vertex(g, [3], 2, 3).values == (0,)


def test_vertex_profile_empty_pivot():
    assert profile_of_vertex(path(3), [], 1, 0).values == ()


def test_table_star():
    g = generate("star", {"n": 4})  # center 0, three leaves
    table = build_profile_table(g, [0], 1)
    got = {(e.profile.values, e.count) for e in table.entries}
    assert got == {((0,), 1), ((1,), 3)}


def test_table_edgeless():
    g = Graph.from_edges(4, [])
    table = build_profile_table(g, [0], 2)
    got = {(e.profile.values, e.count) for e in table.entries}
    assert got == {((0,), 1), ((INF,), 3)}


def test_table_p4_two_ended():
    table = build_profile_table(path(4), [0, 3], 3)
    vals = [e.profile.values for e in table.entries]
    assert vals == [(0, 3), (1, 2), (2, 1), (3, 0)]


def test_table_representative_is_lowest_realizer():
    g = generate("star", {"n": 5})
    table = build_profile_table(g, [0], 1)
    leaf_entry = table.entries[table.vertex_to_profile[3]]
    assert leaf_entry.representative == 1


@given(st.integers(0, 10 ** 6), st.integers(1, 7), st.integers(0, 2))
@settings(max_examples=50, deadline=None)
def test_table_matches_per_vertex_profiles(seed, n, r):
    g = random_graph(n, seed)
    rng = random.Random(seed + 1)
    pivot = sorted(rng.sample(range(n), rng.randint(0, n)))
    table = build_profile_table(g, pivot, r)
    assert sum(e.count for e in table.entries) == n
    for v in range(n):
        entry = table.entries[table.vertex_to_profile[v]]
        assert entry.profile == profile_of_vertex(g, pivot, r, v)
    assert len(table.entries) <= min((r + 2) ** len(pivot), max(n, 1))


def test_complexity_empty_pivot():
    assert measure_profile_complexity(random_graph(5, 2), 1, 0).count == 1


def test_complexity_edgeless():
    res = measure_profile_complexity(Graph.from_edges(6, []), 1, 1)
    assert res.count == 2 and res.exact


def test_complexity_sampled_flag():
    g = random_graph(12, 5, p=0.3)
    res = measure_profile_complexity(g, 1, 4, trials=20, seed=0,
                                     enumeration_budget=10)
    assert not res.exact
    exact = measure_profile_complexity(g, 1, 4)
    assert res.count <= exact.count


@pytest.mark.parametrize("trials", [0, -3])
def test_complexity_needs_a_trial(trials):
    # C(100, 4) is past the budget, so this is the sampled path, where no
    # trial would report count 0 although every vertex has a profile
    with pytest.raises(InputError):
        measure_profile_complexity(path(100), 1, 4, trials=trials)


def test_complexity_ktt_free_bound():
    # realized r=1 profile count on K_{t,t}-free graphs is bounded by the
    # neighborhood-trace count: subsets of S below size t, plus (t-1)m^t,
    # plus m
    from math import comb
    for seed in range(8):
        t = 2
        g = generate("ktt_free_random", {"n": 9, "t": t, "m": 14}, seed=seed)
        for m in (2, 3):
            res = measure_profile_complexity(g, 1, m)
            bound = sum(comb(m, i) for i in range(t)) + (t - 1) * m ** t + m
            assert res.count <= bound
