"""The covering search runs as a loop, and the strong witness oracle is that
search over p identical positions.  Both are compared here with test-local
copies of the recursive searches they replaced."""
import sys
from contextlib import contextmanager
from itertools import combinations

from hypothesis import given, settings, strategies as st

from progexplore import (Graph, ImplicitBipartite, build_delta, build_eta,
                         generate, strong_witness_oracle)
from progexplore import oracles


# --- references: the recursive searches ----------------------------------------

def recursive_covering(coverage, full):
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

    return dfs(0, full, ())


def recursive_strong(ib, A, p):
    options = list(oracles._defeats(ib, A))
    full = (1 << len(A)) - 1
    suffix = [0] * (len(options) + 1)
    for i in range(len(options) - 1, -1, -1):
        suffix[i] = suffix[i + 1] | options[i][0]
    if suffix[0] != full:
        return None

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

    picked = dfs(0, 0, ())
    return None if picked is None else list(dict.fromkeys(picked))


@contextmanager
def recursion_limit(limit):
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(max(saved, limit))
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


# --- the covering loop equals the recursive search ------------------------------

@st.composite
def tables(draw, identical=False):
    bits = draw(st.integers(0, 6))
    c, width = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    row = st.lists(st.integers(0, (1 << bits) - 1), min_size=width,
                   max_size=width)
    coverage = [draw(row)] * c if identical else [draw(row) for _ in range(c)]
    full = draw(st.sampled_from([(1 << bits) - 1,
                                 draw(st.integers(0, (1 << bits) - 1))]))
    return coverage, full


@settings(max_examples=300, deadline=None)
@given(tables())
def test_loop_matches_recursive_search_on_random_tables(table):
    coverage, full = table
    assert oracles._covering_assignment(coverage, full) == \
        recursive_covering(coverage, full)


@settings(max_examples=200, deadline=None)
@given(tables(identical=True))
def test_loop_matches_recursive_search_on_identical_positions(table):
    coverage, full = table
    assert oracles._covering_assignment(coverage, full) == \
        recursive_covering(coverage, full)


def test_loop_matches_recursive_search_on_empty_tables():
    for c in (1, 3):
        for full in (0, 1, 7):
            coverage = [[] for _ in range(c)]
            assert oracles._covering_assignment(coverage, full) is None
            assert recursive_covering(coverage, full) is None


def test_loop_has_no_recursion_limit():
    coverage = [[0, 1]] * 5000
    got = oracles._covering_assignment(coverage, 1)
    assert got == (0,) * 4999 + (1,)
    assert oracles._covering_assignment(coverage, 0) == (0,) * 5000
    with recursion_limit(5200):
        assert got == recursive_covering(coverage, 1)


# --- the strong witness oracle equals its recursive search -----------------------

@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_strong_witness_matches_recursive_search(data):
    g = data.draw(graphs())
    build = data.draw(st.sampled_from([build_delta, build_eta]))
    low = 0 if build is build_delta else 1
    f = build(data.draw(st.integers(low + 1, 3)),
              data.draw(st.integers(low, 4)))
    ib = ImplicitBipartite(g, f)
    A = data.draw(st.lists(st.tuples(*[st.integers(0, g.n - 1)] * f.c),
                           min_size=1, max_size=6))
    p = data.draw(st.integers(1, 6))
    assert strong_witness_oracle(ib, A, p) == recursive_strong(ib, A, p)


def test_strong_witness_with_many_positions():
    # the first option defeats only the second candidate, so the first
    # cover repeats it up to the last position; the set keeps one copy
    ib = ImplicitBipartite(generate("path", {"n": 9}), build_delta(1, 1))
    A = [(0,), (8,)]
    got = strong_witness_oracle(ib, A, 3000)
    with recursion_limit(3200):
        assert got == recursive_strong(ib, A, 3000)
    assert got == [(0,), (2,)]
