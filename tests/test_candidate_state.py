"""The candidate oracle keeps one profile partition per implicit graph and
feeds in only the witness tuples it has not seen.  Each call is compared
here with a from-scratch reference: one ``build_profile_table`` on the
vertices of B, every coverage bit or distance row built anew, and the same
covering and product searches."""
import gc
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from progexplore import (INF, DistanceMatrix, ImplicitBipartite,
                         build_delta, build_eta, candidate_oracle, evaluate,
                         generate, ladder_solve, semi_ladder_solve)
from progexplore import oracles, profiles
from progexplore.formulas import holds
from progexplore.profiles import ProfileRefiner, build_profile_table
from test_oracle_rows import covering_formulas, graphs, product_formulas


def scratch_candidate(ib, B):
    g, f = ib.graph, ib.formula
    table = build_profile_table(g, {v for b in B for v in b}, f.radius())
    pos = {v: i for i, v in enumerate(table.pivot)}
    rows = [[tuple(e.profile.values[pos[v]] for v in b)
             for e in table.entries] for b in B]
    by_var = oracles._single_variable_children(f)
    if by_var is not None and all(by_var):
        coverage = [[0] * len(table.entries) for _ in by_var]
        for bi, rb in enumerate(rows):
            for e, row in enumerate(rb):
                for i, children in enumerate(by_var):
                    if any(holds(ch, (row,) * f.c) for ch in children):
                        coverage[i][e] |= 1 << bi
        choice = oracles._covering_assignment(coverage, (1 << len(B)) - 1)
    else:
        choice = next(
            (idxs for idxs in product(range(len(table.entries)), repeat=f.c)
             if all(evaluate(f, DistanceMatrix(
                 f.radius(), tuple(rb[i] for i in idxs))) for rb in rows)),
            None)
    if choice is None:
        return None
    return tuple(table.entries[i].representative for i in choice)


@st.composite
def formulas(draw, g):
    """Covering and product formulas, some with a radius of at least the
    diameter of ``g``."""
    kind = draw(st.sampled_from(["covering", "product", "wide"]))
    if kind == "covering":
        return draw(covering_formulas())
    if kind == "product":
        return draw(product_formulas())
    if draw(st.booleans()):
        return build_delta(draw(st.integers(1, 3)), max(g.n, 1))
    return build_eta(draw(st.integers(2, 3)), max(g.n, 1))


@st.composite
def witness_sequences(draw, g, d, steps=6):
    """Successive B lists.  Most extend the previous one, often by a tuple
    already in B or by one made of vertices already in B; some are a fresh
    list or a proper prefix, which the state must not take as an
    extension."""
    vertex = st.integers(0, g.n - 1)
    B, out = [], []
    for _ in range(draw(st.integers(1, steps))):
        step = draw(st.sampled_from(
            ["extend", "extend", "extend", "fresh", "prefix"]))
        if step == "fresh":
            B = [draw(st.tuples(*[vertex] * d))
                 for _ in range(draw(st.integers(0, 3)))]
        elif step == "prefix" and B:
            B = B[:draw(st.integers(0, len(B) - 1))]
        else:
            for _ in range(draw(st.integers(0, 2))):
                pivots = sorted({v for b in B for v in b})
                source = draw(st.sampled_from(
                    ["repeat", "pivots", "any"] if B else ["any"]))
                if source == "repeat":
                    b = draw(st.sampled_from(B))
                elif source == "pivots":
                    b = draw(st.tuples(*[st.sampled_from(pivots)] * d))
                else:
                    b = draw(st.tuples(*[vertex] * d))
                B = B + [b]
        out.append(B)
    return out


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_incremental_candidate_matches_scratch_reference(data):
    g = data.draw(graphs())
    f = data.draw(formulas(g))
    ib = ImplicitBipartite(g, f)
    for B in data.draw(witness_sequences(g, f.d)):
        assert candidate_oracle(ib, B) == scratch_candidate(ib, B)


# --- the partition equals the profile table ------------------------------------

def entries_of(refiner):
    pivot = sorted(refiner.balls)
    return [(tuple(refiner.balls[s].get(refiner.rep[k], INF) for s in pivot),
             refiner.rep[k],
             refiner.far_count if k == 0 else len(refiner.members[k]))
            for k in refiner.order()]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_refined_classes_are_the_table_entries(data):
    """After every pivot vertex, the classes in representative order are
    the entries of build_profile_table: profile, representative, count."""
    g = data.draw(graphs(max_n=12))
    r = data.draw(st.integers(0, 5))
    refiner = ProfileRefiner(g, r)
    pivot = set()
    for s in data.draw(st.lists(st.integers(0, g.n - 1), max_size=7)):
        refiner.add(s)
        pivot.add(s)
        table = build_profile_table(g, pivot, r)
        assert entries_of(refiner) == [
            (e.profile.values, e.representative, e.count)
            for e in table.entries]
        for v in range(g.n):
            k = refiner.class_of.get(v, 0)
            assert table.entries[table.vertex_to_profile[v]].representative \
                == refiner.rep[k]


def test_refiner_runs_one_bfs_per_pivot_vertex(monkeypatch):
    g = generate("grid", {"rows": 30, "cols": 30})
    ib = ImplicitBipartite(g, build_delta(2, 3))
    sources = []

    def counting(g, s, cap, allowed=None):
        sources.append(s)
        return bfs_reach(g, s, cap, allowed)

    bfs_reach = profiles.bfs_reach
    monkeypatch.setattr(profiles, "bfs_reach", counting)
    B = []
    for b in [(0,), (899,), (0,), (450,), (17,)]:
        B.append(b)
        candidate_oracle(ib, B)
    assert sources == [0, 899, 450, 17]
    candidate_oracle(ib, [(17,), (0,)])  # not an extension: starts over
    assert sources == [0, 899, 450, 17, 17, 0]


# --- reusing one implicit graph --------------------------------------------------

REUSE = [
    (generate("cycle", {"n": 11}), build_eta(3, 3), 4),
    (generate("path", {"n": 12}), build_eta(3, 5), 3),
    (generate("grid", {"rows": 4, "cols": 4}), build_delta(2, 2), 2),
    (generate("cycle", {"n": 20}), build_delta(2, 3), 1),
]


@pytest.mark.parametrize("g, f, p", REUSE)
def test_one_graph_through_three_solves_matches_fresh_graphs(g, f, p):
    ib = ImplicitBipartite(g, f)
    got = [ladder_solve(ib, p), semi_ladder_solve(ib), semi_ladder_solve(ib)]
    want = [ladder_solve(ImplicitBipartite(g, f), p),
            semi_ladder_solve(ImplicitBipartite(g, f)),
            semi_ladder_solve(ImplicitBipartite(g, f))]
    assert got == want


def test_mutating_the_callers_witness_list_cannot_corrupt_the_state():
    g, f = generate("cycle", {"n": 40}), build_delta(2, 2)
    ib = ImplicitBipartite(g, f)

    def check(B):
        assert candidate_oracle(ib, B) == scratch_candidate(ib, B)
        assert candidate_oracle(ib, B) == candidate_oracle(
            ImplicitBipartite(g, f), B)

    B = [[0], [20]]
    check(B)
    B[1][0] = 10  # an absorbed tuple changes in place
    check(B)
    B.append([30])
    check(B)
    B.pop(0)  # the same length as before, another prefix
    B.append([5])
    check(B)
    B.clear()
    check(B)


# --- no reference cycles -------------------------------------------------------

@pytest.fixture
def no_gc():
    gc.collect()
    gc.disable()
    yield
    gc.enable()


def three_calls(g, f, lists):
    ib = ImplicitBipartite(g, f)
    for B in lists:
        candidate_oracle(ib, B)


GC_CALLS = [
    lambda: three_calls(generate("cycle", {"n": 40}), build_delta(2, 2),
                        [[(0,)], [(0,), (20,)], [(3,)]]),
    lambda: three_calls(generate("cycle", {"n": 11}), build_eta(3, 3),
                        [[(0,)], [(0,), (5,)], [(2,), (2,)]]),
    lambda: semi_ladder_solve(ImplicitBipartite(
        generate("grid", {"rows": 6, "cols": 6}), build_delta(1, 12))),
]


@pytest.mark.parametrize("call", GC_CALLS)
def test_candidate_state_leaves_no_reference_cycle(no_gc, call):
    call()
    assert gc.collect() == 0
