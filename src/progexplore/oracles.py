"""Profile-based oracles over the implicit candidate/witness graph.

None of these ever materializes the bipartite graph: each call builds a
profile table on a pivot set made of the vertices mentioned by the inputs,
and decides agreement from profiles alone (sound because distance formulas
only read pairwise candidate/witness distances, all of which end at pivot
vertices).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import InputError, ResourceBudgetError
from .formulas import (Atom, DistanceFormula, DistanceMatrix, Or, evaluate,
                       holds, walk)
from .graph import Graph
from .profiles import build_profile_table


@dataclass(frozen=True)
class ImplicitBipartite:
    graph: Graph
    formula: DistanceFormula


def _check_tuple(g: Graph, t, length, what):
    if len(t) != length:
        raise InputError(f"{what} tuple has length {len(t)}, expected {length}")
    for v in t:
        if not (0 <= v < g.n):
            raise InputError(f"invalid vertex {v} in {what} tuple")


def _pivot_positions(pivot):
    return {v: i for i, v in enumerate(pivot)}

def _candidate_matrix(cand_profiles, witness_tuple, pos, cap):
    """Matrix rows from candidate profiles; witness vertices must be pivots."""
    return DistanceMatrix(cap, tuple(
        tuple(pr.values[pos[w]] for w in witness_tuple)
        for pr in cand_profiles))


def _witness_matrix(wit_profiles, cand_tuple, pos, cap):
    return DistanceMatrix(cap, tuple(
        tuple(wit_profiles[j].values[pos[a]] for j in range(len(wit_profiles)))
        for a in cand_tuple))


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
    if no candidate agrees with all of B."""
    g, f = ib.graph, ib.formula
    for b in B:
        _check_tuple(g, b, f.d, "witness")
    r = f.radius()
    pivot_vertices = sorted({v for b in B for v in b})
    table = build_profile_table(g, pivot_vertices, r)
    if not table.entries:
        return None
    pos = _pivot_positions(table.pivot)
    by_var = _single_variable_children(f)
    if by_var is not None and all(by_var):
        choice = _covering_assignment(table, B, by_var, pos)
    else:
        choice = _product_assignment(table, B, f, pos, r)
    if choice is None:
        return None
    return tuple(table.entries[i].representative for i in choice)


def _product_assignment(table, B, f, pos, cap):
    n_profiles = len(table.entries)
    for idxs in product(range(n_profiles), repeat=f.c):
        profs = [table.entries[i].profile for i in idxs]
        if all(evaluate(f, _candidate_matrix(profs, b, pos, cap)) for b in B):
            return idxs
    return None


def _covering_assignment(table, B, by_var, pos):
    """Lex-first profile assignment whose per-position witness coverage
    masks union to all of B.  Memoizes failed (position, still-needed mask)
    pairs and prunes with suffix-reachable unions."""
    c = len(by_var)
    n_profiles = len(table.entries)
    full = (1 << len(B)) - 1
    # coverage[i][e] = bitmask of witnesses in B satisfied when profile e
    # sits at candidate position i.  Each child reads only its own candidate
    # variable, so one distance row stands in for every row of the matrix.
    coverage = [[0] * n_profiles for _ in range(c)]
    for e, entry in enumerate(table.entries):
        values = entry.profile.values
        for bi, b in enumerate(B):
            rows = (tuple(values[pos[w]] for w in b),) * c
            for i, children in enumerate(by_var):
                if any(holds(ch, rows) for ch in children):
                    coverage[i][e] |= 1 << bi
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


def weak_witness_oracle(ib: ImplicitBipartite, a):
    """A witness tuple disagreeing with candidate a, or None when a agrees
    with every witness tuple (i.e. a is a solution)."""
    g, f = ib.graph, ib.formula
    _check_tuple(g, a, f.c, "candidate")
    r = f.radius()
    table = build_profile_table(g, sorted(set(a)), r)
    pos = _pivot_positions(table.pivot)
    n_profiles = len(table.entries)
    for idxs in product(range(n_profiles), repeat=f.d):
        profs = [table.entries[i].profile for i in idxs]
        if not evaluate(f, _witness_matrix(profs, a, pos, r)):
            return tuple(table.entries[i].representative for i in idxs)
    return None


def strong_witness_oracle(ib: ImplicitBipartite, A, p: int):
    """A set of at most p witness tuples such that every candidate in A
    disagrees with one of them, or None if no such set exists."""
    g, f = ib.graph, ib.formula
    if not A:
        raise InputError("candidate list must be nonempty")
    if p < 1:
        raise InputError("need p >= 1")
    for a in A:
        _check_tuple(g, a, f.c, "candidate")
    r = f.radius()
    pivot_vertices = sorted({v for a in A for v in a})
    table = build_profile_table(g, pivot_vertices, r)
    pos = _pivot_positions(table.pivot)
    n_profiles = len(table.entries)
    full = (1 << len(A)) - 1
    options = []  # (disagreement mask over A, profile index tuple)
    for idxs in product(range(n_profiles), repeat=f.d):
        profs = [table.entries[i].profile for i in idxs]
        mask = 0
        for ai, a in enumerate(A):
            if not evaluate(f, _witness_matrix(profs, a, pos, r)):
                mask |= 1 << ai
        if mask:
            options.append((mask, idxs))
    suffix = [0] * (len(options) + 1)
    for i in range(len(options) - 1, -1, -1):
        suffix[i] = suffix[i + 1] | options[i][0]
    if suffix[0] != full:
        return None

    # multisets: indices non-decreasing, so no p!-fold duplication
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
    if picked is None:
        return None
    return [tuple(table.entries[i].representative for i in idxs)
            for idxs in picked]


def semiladder_extension_oracle(ib: ImplicitBipartite, B, d_budget: int = 2):
    """A pair (a, b) with b a witness tuple outside B, a agreeing with all
    of B but not with b; None if every candidate agreeing with B agrees with
    everything outside B.  Iterates actual witness tuples (an n^d loop)."""
    g, f = ib.graph, ib.formula
    if f.d > d_budget:
        raise ResourceBudgetError(
            f"extension oracle limited to d <= {d_budget} witness variables")
    for b in B:
        _check_tuple(g, b, f.d, "witness")
    r = f.radius()
    base = sorted({v for b in B for v in b})
    taken = set(map(tuple, B))
    for b_new in product(range(g.n), repeat=f.d):
        if b_new in taken:
            continue
        pivot = sorted(set(base) | set(b_new))
        table = build_profile_table(g, pivot, r)
        pos = _pivot_positions(table.pivot)
        n_profiles = len(table.entries)
        for idxs in product(range(n_profiles), repeat=f.c):
            profs = [table.entries[i].profile for i in idxs]
            if not evaluate(f, _candidate_matrix(profs, b_new, pos, r)):
                if all(evaluate(f, _candidate_matrix(profs, b, pos, r))
                       for b in B):
                    a = tuple(table.entries[i].representative for i in idxs)
                    return a, b_new
    return None
