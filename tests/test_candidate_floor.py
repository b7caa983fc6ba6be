"""The candidate oracle resumes each search at its previous answer, the
floor: a B that extends the previous one only removes candidates, so the
lex-first agreeing tuple never moves backwards.  The covering search from a
start tuple is compared here with a brute-force scan, and whole solves with
solves whose every candidate comes from a fresh implicit graph."""
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from progexplore import (And, Atom, DistanceFormula, ImplicitBipartite, Not,
                         Or, build_delta, build_eta, candidate_oracle,
                         generate, ladder_solve, semi_ladder_solve)
from progexplore import oracles, solvers
from test_candidate_state import formulas
from test_covering_search import tables
from test_oracle_rows import graphs


# --- the covering search from a start tuple ----------------------------------

def scan_from(coverage, full, start):
    """The lex-first assignment at or after ``start`` whose masks union to
    ``full``, by trying every assignment in lex order."""
    for idxs in product(*[range(len(row)) for row in coverage]):
        if idxs < start:
            continue
        covered = 0
        for row, e in zip(coverage, idxs):
            covered |= row[e]
        if covered & full == full:
            return idxs
    return None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_covering_from_a_start_is_the_lex_first_cover_after_it(data):
    coverage, full = data.draw(tables(identical=data.draw(st.booleans())))
    width = len(coverage[0])
    start = data.draw(st.tuples(*[st.integers(0, width - 1)] * len(coverage)))
    assert oracles._covering_assignment(coverage, full, start) == \
        scan_from(coverage, full, start)


@settings(max_examples=100, deadline=None)
@given(tables())
def test_covering_from_the_first_tuple_is_the_plain_search(table):
    coverage, full = table
    first = (0,) * len(coverage)
    assert oracles._covering_assignment(coverage, full, first) == \
        oracles._covering_assignment(coverage, full)


def test_a_failure_on_the_start_path_is_not_memoized():
    # from (1, 1) the state (1, 0b10) fails, since entry 0 of position 1
    # is before the start; from (2, 0) the same state must succeed
    coverage = [[0b01, 0b01, 0b01], [0b10, 0b00, 0b00]]
    assert oracles._covering_assignment(coverage, 0b11, (1, 1)) == (2, 0)
    assert scan_from(coverage, 0b11, (1, 1)) == (2, 0)


# --- whole solves against fresh candidate oracles ----------------------------

def solve_with_fresh_candidates(solve, ib, *args):
    """``solve`` with every candidate asked of a new implicit graph, so no
    call can use the floor or the state of an earlier one."""
    solvers.candidate_oracle = lambda ib, B: candidate_oracle(
        ImplicitBipartite(ib.graph, ib.formula), B)
    try:
        return solve(ib, *args)
    finally:
        solvers.candidate_oracle = candidate_oracle


def transcript(d):
    t = d.transcript
    return d.kind, d.payload, t.candidates, t.witnesses, t.rounds, \
        t.oracle_calls


NON_POSITIVE_OR = DistanceFormula(
    2, 1, Or((Not(Atom(1, 0, 0)), Atom(2, 1, 0))))


@st.composite
def solve_formulas(draw, g):
    """Covering, product and non-positive formulas, the last including an
    ``Or`` whose all-INF row agrees at some position."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from([
            NON_POSITIVE_OR,
            DistanceFormula(2, 1, And((Atom(2, 0, 0), Not(Atom(0, 1, 0))))),
            DistanceFormula(1, 2, Or((Atom(1, 0, 0), Not(Atom(0, 0, 1))))),
        ]))
    return draw(formulas(g))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_semi_ladder_matches_fresh_candidate_oracles(data):
    g = data.draw(graphs())
    f = data.draw(solve_formulas(g))
    got = semi_ladder_solve(ImplicitBipartite(g, f))
    want = solve_with_fresh_candidates(semi_ladder_solve,
                                       ImplicitBipartite(g, f))
    assert transcript(got) == transcript(want)
    candidates = got.transcript.candidates
    assert candidates == sorted(candidates)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_ladder_matches_fresh_candidate_oracles(data):
    g = data.draw(graphs(max_n=6))
    f = data.draw(solve_formulas(g))
    p = data.draw(st.integers(1, 3))
    got = ladder_solve(ImplicitBipartite(g, f), p)
    want = solve_with_fresh_candidates(ladder_solve,
                                       ImplicitBipartite(g, f), p)
    assert transcript(got) == transcript(want)
    candidates = got.transcript.candidates
    assert candidates == sorted(candidates)


# --- the floor between calls -------------------------------------------------

def test_the_next_search_starts_at_the_previous_answer(monkeypatch):
    g = generate("cycle", {"n": 30})
    ib = ImplicitBipartite(g, build_delta(2, 3))
    starts = []
    search = oracles._covering_assignment

    def spying(coverage, full, start=()):
        starts.append(start)
        return search(coverage, full, start)

    monkeypatch.setattr(oracles, "_covering_assignment", spying)
    first = candidate_oracle(ib, [(20,)])
    second = candidate_oracle(ib, [(20,), (5,)])
    assert (first, second) == ((0, 17), (2, 17))
    parts = ib._candidates.parts
    order = parts.order()
    assert starts[0] == (0, 0)
    assert tuple(parts.rep[order[i]] for i in starts[1]) == first


@pytest.mark.parametrize("n, f, search", [
    (3, build_delta(1, 0), "_covering_assignment"),
    (2, build_eta(2, 1), "_tuples_from"),
])
def test_after_none_an_extension_is_none_without_a_search(monkeypatch, n, f,
                                                          search):
    g = generate("path", {"n": n})
    ib = ImplicitBipartite(g, f)
    # every vertex is a witness: no vertex is at distance 0 from all of
    # them, and no two vertices of an edge are more than 1 apart
    B = [(v,) for v in range(n)]
    assert candidate_oracle(ib, B) is None

    def no_search(*args):
        raise AssertionError("searched after a None answer")

    with monkeypatch.context() as m:
        m.setattr(oracles, search, no_search)
        assert candidate_oracle(ib, B) is None
        assert candidate_oracle(ib, B + [(1,)]) is None
    for other in ([(1,)], B[:1], []):
        got = candidate_oracle(ib, other)
        assert got is not None
        assert got == candidate_oracle(ImplicitBipartite(g, f), other)
