"""The sparse profile table, and the ordered scan that yields its classes
without building it, against a dense reference that profiles every vertex
one by one."""
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from progexplore import (INF, Graph, bfs_capped, build_profile_table,
                         generate, profile_of_vertex)
from progexplore.profiles import first_of_each_class


def dense_table(g, pivot, r):
    """(profile values, representative, count) per entry, plus the entry
    of every vertex, from one profile_of_vertex call per vertex."""
    entries, of_vertex = [], {}
    for v in range(g.n):
        values = profile_of_vertex(g, pivot, r, v).values
        found = [i for i, e in enumerate(entries) if e[0] == values]
        if found:
            entries[found[0]][2] += 1
            of_vertex[v] = found[0]
        else:
            of_vertex[v] = len(entries)
            entries.append([values, v, 1])
    return [tuple(e) for e in entries], of_vertex


@st.composite
def table_inputs(draw):
    """A graph, a pivot list (unsorted, possibly with repeats) and r."""
    n = draw(st.integers(1, 12))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = Graph.from_edges(n, edges)
    pivot = draw(st.lists(st.integers(0, n - 1), max_size=5))
    r = draw(st.integers(0, 4))
    return g, pivot, r


@settings(max_examples=300, deadline=None)
@given(table_inputs())
def test_sparse_table_matches_dense_reference(case):
    g, pivot, r = case
    table = build_profile_table(g, pivot, r)
    want, of_vertex = dense_table(g, pivot, r)
    assert table.pivot == tuple(sorted(set(pivot)))
    got = [(e.profile.values, e.representative, e.count)
           for e in table.entries]
    assert got == want
    assert sum(e.count for e in table.entries) == g.n
    # first-occurrence order: representatives rise with the entry index
    reps = [e.representative for e in table.entries]
    assert reps == sorted(reps)
    for v in range(g.n):
        idx = table.vertex_to_profile[v]
        assert idx == of_vertex[v]
        assert table.entries[idx].representative == min(
            u for u in range(g.n) if of_vertex[u] == idx)


@settings(max_examples=100, deadline=None)
@given(table_inputs())
def test_whole_graph_table_matches_profile_of_vertex(case):
    g, pivot, r = case
    table = build_profile_table(g, pivot, r)
    for v in range(g.n):
        entry = table.entries[table.vertex_to_profile[v]]
        assert entry.profile == profile_of_vertex(g, pivot, r, v)


def test_large_grid_corner_pivot_far_class():
    g = generate("grid", {"rows": 200, "cols": 200})
    table = build_profile_table(g, [0], 1)
    got = [(e.profile.values, e.representative, e.count)
           for e in table.entries]
    # ball of the corner: 0, its right neighbour 1 and the one below, 200
    assert got == [((0,), 0, 1), ((1,), 1, 2), ((INF,), 2, 40_000 - 3)]
    assert table.vertex_to_profile[200] == 1
    assert table.vertex_to_profile[39_999] == 2
    assert len(table.vertex_to_profile) == 40_000


def test_large_grid_far_class_comes_first_when_lowest():
    g = generate("grid", {"rows": 200, "cols": 200})
    table = build_profile_table(g, [39_999], 2)
    first = table.entries[0]
    assert (first.profile.values, first.representative) == ((INF,), 0)
    assert first.count == 40_000 - 6
    assert sum(e.count for e in table.entries) == 40_000


def test_empty_pivot_is_one_far_class():
    table = build_profile_table(generate("cycle", {"n": 5}), [], 2)
    assert [(e.profile.values, e.representative, e.count)
            for e in table.entries] == [((), 0, 5)]


def test_index_out_of_range_raises():
    table = build_profile_table(generate("path", {"n": 3}), [0], 1)
    with pytest.raises(IndexError):
        table.vertex_to_profile[3]



# --- the ordered scan --------------------------------------------------------

def scan(g, pivot, r):
    dists = [bfs_capped(g, s, r) for s in sorted(set(pivot))]
    near = sorted({v for d in dists for v in range(g.n) if d[v] != INF})
    return list(first_of_each_class(
        g.n, near, lambda v: tuple(d[v] for d in dists)))


@settings(max_examples=300, deadline=None)
@given(table_inputs())
def test_ordered_scan_yields_the_table_entries_in_order(case):
    g, pivot, r = case
    want, _ = dense_table(g, pivot, r)
    assert scan(g, pivot, r) == [(rep, values) for values, rep, _ in want]


@pytest.mark.parametrize("n, pivot, r, far", [
    (20, [0, 10], 1, 2),  # between the two balls
    (20, [10], 2, 0),  # before the only ball
    (6, [0, 5], 4, None),  # every vertex is near
    (20, [0, 1, 2], 1, 4),  # after a run of ball vertices
])
def test_ordered_scan_places_the_far_class_by_its_lowest_id(n, pivot, r,
                                                            far):
    g = generate("path", {"n": n})
    got = scan(g, pivot, r)
    far_classes = [v for v, values in got if set(values) == {INF}]
    assert far_classes == ([] if far is None else [far])
    assert [v for v, _ in got] == sorted(v for v, _ in got)


def test_ordered_scan_is_lazy():
    """A caller that stops at the first class profiles nothing more."""
    keyed = []

    def key(v):
        keyed.append(v)
        return v % 3

    classes = first_of_each_class(10, [0, 1, 2, 3, 4, 5], key)
    assert next(classes) == (0, 0)
    assert keyed == [0]
    assert list(classes) == [(1, 1), (2, 2)]
    assert keyed == [0, 1, 2, 3, 4, 5, 6]  # 6: the lowest far vertex
