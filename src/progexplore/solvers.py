"""Progressive solvers, the coverage core, the localization game, and the
distance-r independent set pipeline, plus brute-force reference solvers.

All tie-breaking is lowest-id / lexicographic-first so that transcripts are
reproducible run to run.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from math import comb

from .errors import (InputError, InternalInvariantError,
                     ResourceBudgetError, SplitterBudgetError)
from .graph import Graph, INF, ball, ball_distances, bfs_capped
from .oracles import (ImplicitBipartite, candidate_oracle,
                      semiladder_extension_oracle, strong_witness_oracle,
                      weak_witness_oracle)
from .profiles import build_profile_table

# nodes the profile-multiset search of independent_set_solve may visit
DEFAULT_WORK_BUDGET = 10 ** 6
# pre-core recursion calls; the test grids and benchmark instances make at
# most a few thousand
DEFAULT_NODE_BUDGET = 10 ** 6

SOLUTION = "SOLUTION"
NO_SOLUTION = "NO_SOLUTION"
EXISTS = "EXISTS"
NOT_EXISTS = "NOT_EXISTS"


@dataclass
class RunTranscript:
    rounds: int = 0  # completed full rounds (a new witness was added)
    candidates: list = field(default_factory=list)
    witnesses: list = field(default_factory=list)
    oracle_calls: dict = field(default_factory=dict)

    def count(self, oracle_name: str):
        self.oracle_calls[oracle_name] = self.oracle_calls.get(oracle_name, 0) + 1


@dataclass(frozen=True)
class Decision:
    kind: str
    payload: object  # solution tuple / defeating witness list / core set
    transcript: RunTranscript | None = None


def semi_ladder_solve(ib: ImplicitBipartite, max_rounds: int = 10 ** 6) -> Decision:
    """Alternate candidate and weak-witness calls, accumulating witnesses,
    until a candidate survives (SOLUTION) or none agrees with all collected
    witnesses (NO_SOLUTION).  The collected pairs form a semi-ladder, so the
    round count never exceeds the semi-ladder index of the implicit graph."""
    if max_rounds < 1:
        raise InputError("max_rounds must be >= 1")
    t = RunTranscript()
    B = []
    while True:
        t.count("candidate")
        a = candidate_oracle(ib, B)
        if a is None:
            return Decision(NO_SOLUTION, list(B), t)
        t.count("weak_witness")
        b = weak_witness_oracle(ib, a)
        if b is None:
            t.candidates.append(a)
            return Decision(SOLUTION, a, t)
        t.candidates.append(a)
        t.witnesses.append(b)
        B.append(b)
        t.rounds += 1
        if t.rounds >= max_rounds:
            raise ResourceBudgetError(
                f"no decision after {max_rounds} full rounds "
                f"(transcript: {len(B)} witnesses)")


def ladder_solve(ib: ImplicitBipartite, p: int,
                 max_rounds: int = 10 ** 6) -> Decision:
    """Existence-only variant: candidates accumulate and each round asks for
    at most p witnesses jointly defeating all of them.  Correct whenever the
    implicit graph has the weak p-Helly property; never produces a tuple for
    the EXISTS outcome."""
    if max_rounds < 1:
        raise InputError("max_rounds must be >= 1")
    t = RunTranscript()
    A: list = []
    B: list = []
    while True:
        t.count("candidate")
        a = candidate_oracle(ib, B)
        if a is None:
            return Decision(NOT_EXISTS, list(B), t)
        A.append(a)
        t.candidates.append(a)
        t.count("strong_witness")
        P = strong_witness_oracle(ib, A, p)
        if P is None:
            return Decision(EXISTS, None, t)
        t.witnesses.append(list(P))
        # a pick already in B defeats only candidates B already defeats
        B.extend(b for b in P if b not in B)
        t.rounds += 1
        if t.rounds >= max_rounds:
            raise ResourceBudgetError(
                f"no decision after {max_rounds} full rounds "
                f"(transcript: {len(B)} witnesses)")


def coverage_core(ib: ImplicitBipartite, max_rounds: int = 10 ** 6):
    """Witness set B such that any candidate agreeing with all of B agrees
    with every witness tuple.  Grows B through the extension oracle until it
    reports that no further disagreement outside B is reachable."""
    if max_rounds < 1:
        raise InputError("max_rounds must be >= 1")
    B: list = []
    rounds = 0
    while True:
        rounds += 1
        if rounds > max_rounds:
            raise ResourceBudgetError(
                f"core construction still running after {max_rounds} rounds")
        ext = semiladder_extension_oracle(ib, B)
        if ext is None:
            return B
        _, b = ext
        B.append(b)


@dataclass(frozen=True)
class Dichotomy:
    kind: str  # "independent" or "covering"
    vertices: tuple


def greedy_dichotomy(g: Graph, X, r: int, k: int, allowed=None) -> Dichotomy:
    """Scan X in ascending order keeping vertices at pairwise distance > 2r.
    Either k+1 such vertices turn up (an independent certificate) or the
    kept set Z has everything in X within distance 2r (a covering set)."""
    if k < 0:
        raise InputError("k must be >= 0")
    X = sorted(set(X))
    for v in X:
        if not (0 <= v < g.n):
            raise InputError(f"invalid vertex {v}")
        if allowed is not None and v not in allowed:
            raise InputError(f"vertex {v} outside the arena")
    Y: list = []
    covered: set = set()
    for v in X:
        if v in covered:
            continue
        Y.append(v)
        if len(Y) == k + 1:
            return Dichotomy("independent", tuple(Y))
        covered.update(ball(g, v, 2 * r, allowed=allowed))
    return Dichotomy("covering", tuple(Y))


# --- splitter strategies ----------------------------------------------------
# Splitter's answer to Connector's v: a vertex of ``ball``, the round's
# radius-r ball of v in the arena ``active`` (None: the whole graph).


def connector_echo(g: Graph, active, v: int, ball) -> int:
    return v


def ball_max_degree(g: Graph, active, v: int, ball) -> int:
    """The ball vertex with the most neighbours in the arena."""
    return max(ball, key=lambda u: (sum(
        1 for w in g.neighbors(u) if active is None or w in active), -u))


def bfs_center(g: Graph, active, v: int, ball) -> int:
    """The ball vertex whose farthest ball vertex, by arena distance, is
    nearest; a ball vertex it cannot reach counts as n + 1 away."""
    def ecc(u):
        dist = bfs_capped(g, u, g.n, allowed=active)
        return max(min(dist[w], g.n + 1) for w in ball)

    return min(ball, key=lambda u: (ecc(u), u))


STRATEGIES = {
    "connector_echo": connector_echo,
    "ball_max_degree": ball_max_degree,
    "bfs_center": bfs_center,
}
DEFAULT_STRATEGY = "ball_max_degree"


def resolve_strategy(name):
    """The strategy named ``name``, a key of STRATEGIES."""
    if name not in STRATEGIES:
        raise InputError(f"unknown splitter strategy '{name}'")
    return STRATEGIES[name]


def splitter_game_round(g: Graph, v: int, r: int, strategy=DEFAULT_STRATEGY,
                        active=None):
    """One localization round: the strategy named ``strategy`` picks
    Splitter's answer ``w`` from the radius-r ball of ``v`` in the arena,
    computed once here; the ball minus ``w`` is the next arena."""
    strat = resolve_strategy(strategy)
    if active is not None and v not in active:
        raise InputError(f"vertex {v} outside the arena")
    if not (0 <= v < g.n):
        raise InputError(f"invalid vertex {v}")
    bl = ball(g, v, r, allowed=active)
    w = strat(g, active, v, bl)
    return w, frozenset(bl) - {w}


# --- dependence pre-core ----------------------------------------------------


def compute_precore(g: Graph, A, k: int, r: int, strategy=DEFAULT_STRATEGY,
                    depth_budget: int = 20,
                    node_budget: int = DEFAULT_NODE_BUDGET):
    """Vertex set Q such that whenever at most k vertices distance-r
    dominate A, every a in A has a path of length <= r to the dominating
    set passing through Q.

    Recursive construction: vertices of A are grouped by their capped
    distance vector on the accumulated separator S; the greedy dichotomy
    localizes every pair that still needs capturing near a small set Z of
    anchors; each anchor spawns a shrunken arena (its radius-3r ball plus
    S) with the strategy's pick added to S, and the recursion handles every
    way the dominating set can sit relative to S.  The recursion may make
    at most ``node_budget`` calls, memo hits included.
    """
    resolve_strategy(strategy)
    if k < 0 or r < 0:
        raise InputError("k and r must be >= 0")
    if depth_budget < 0:
        raise InputError("depth_budget must be >= 0")
    if node_budget < 1:
        raise InputError("node_budget must be >= 1")
    A = frozenset(A)
    for a in A:
        if not (0 <= a < g.n):
            raise InputError(f"invalid vertex {a}")
    memo: dict = {}
    calls = deepest = 0  # recursion calls made, deepest depth reached

    def rec(active, S, A_set, budget):
        nonlocal calls, deepest
        calls += 1
        depth = depth_budget - budget
        if depth > deepest:
            deepest = depth
        if calls > node_budget:
            raise ResourceBudgetError(
                f"pre-core node budget of {node_budget} recursion calls "
                f"exhausted at depth {depth} (deepest reached {deepest}); "
                f"the memo holds {len(memo)} solved subproblems; a larger "
                f"node budget may help")
        key = (active, S, A_set)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if active <= S:
            result = frozenset(active)
            memo[key] = result
            return result
        if not A_set:
            result = frozenset(S)
            memo[key] = result
            return result
        if budget == 0:
            raise SplitterBudgetError(
                f"localization depth budget exhausted at depth "
                f"{depth_budget} before the arena emptied ({len(memo)} "
                f"subproblems solved); a deeper budget or another strategy "
                f"may help")
        s_list = sorted(S)
        dists = [bfs_capped(g, s, r, allowed=active) for s in s_list]
        arena_minus_s = active - S
        a_profiles = {a: tuple(d[a] for d in dists) for a in A_set}
        classes: dict = {}
        for a in sorted(A_set - S):
            classes.setdefault(a_profiles[a], []).append(a)
        anchors: set = set()
        for prof in sorted(classes):
            out = greedy_dichotomy(g, classes[prof], r, k,
                                   allowed=arena_minus_s)
            if out.kind == "covering":
                anchors.update(out.vertices)
            # independent branch: more than k pairwise-far members of this
            # class exist, so no k-element set dominates them all and the
            # class never produces a pair that needs capturing here
        result = set(S)
        for z in sorted(anchors):
            w, rest = splitter_game_round(g, z, 3 * r, strategy,
                                          active=arena_minus_s)
            ball2 = ball(g, z, 2 * r, allowed=arena_minus_s)
            new_S = S | {w}
            new_active = rest | new_S  # w is in the radius-3r ball
            base = [a for a in sorted(A_set) if a in ball2]
            for filtered in _placement_subsets(base, a_profiles,
                                               len(s_list), r):
                result |= rec(new_active, new_S, filtered, budget - 1)
        result = frozenset(result)
        memo[key] = result
        return result

    try:
        return sorted(rec(frozenset(range(g.n)), frozenset(), A,
                          depth_budget))
    finally:
        # rec reaches itself through its closure cell; emptying the cell
        # frees the memo now instead of at the next cyclic gc pass
        del rec


def _placement_subsets(base, a_profiles, width, r):
    """The distinct sets ``{a in base : a_profiles[a][i] + p[i] > r for
    all i}`` over every placement vector ``p`` in ``{0..r, INF}^width``,
    in the order of their first occurrence in lexicographic order of ``p``.
    The order matters: the pre-core memo ignores the remaining depth
    budget, so the order of the recursive calls decides whether and where
    SplitterBudgetError fires.

    Coordinate ``i`` of ``p`` matters only through which thresholds
    ``r - a_profiles[a][i] + 1`` it reaches, so it is refined over ``{0}``
    and those thresholds alone: the cost is the number of distinct sets
    times the breakpoints, not ``(r + 2) ** width``.  Dropping a repeated
    prefix set loses no first occurrence, because an earlier equal prefix
    reaches every set the later one does, and reaches it first.
    """
    sets = {frozenset(base): None}
    for i in range(width):
        cuts = sorted({0} | {r - a_profiles[a][i] + 1 for a in base
                             if a_profiles[a][i] <= r})
        refined: dict = {}
        for current in sets:
            for cut in cuts:
                refined.setdefault(frozenset(
                    a for a in current if a_profiles[a][i] + cut > r))
        sets = refined
    return list(sets)


# --- distance-r independent set ---------------------------------------------


def independent_set_solve(g: Graph, k: int, r: int,
                          strategy=DEFAULT_STRATEGY,
                          depth_budget: int = 20,
                          work_budget: int = DEFAULT_WORK_BUDGET,
                          node_budget: int = DEFAULT_NODE_BUDGET) -> Decision:
    """Find k vertices at pairwise distance > r, or certify none exist.

    The capture set Q for (G, V, k-1) reduces the decision to profile
    multisets on Q: a size-k multiset is free when every pair of its
    profiles keeps min over Q of the summed capped distances above r.  A
    free multiset is instantiated from representatives and repaired by the
    exchange loop, which strictly shrinks the number of close vertices.
    The pre-core recursion may make at most ``node_budget`` calls and the
    multiset search may visit at most ``work_budget`` nodes.
    """
    if k < 1:
        raise InputError("k must be >= 1")
    if r < 0:
        raise InputError("r must be >= 0")
    if work_budget < 1:
        raise InputError("work_budget must be >= 1")
    if g.n == 0:
        return Decision(NO_SOLUTION, [])
    if k == 1:
        return Decision(SOLUTION, (0,))
    Q = compute_precore(g, range(g.n), k - 1, r, strategy=strategy,
                        depth_budget=depth_budget, node_budget=node_budget)
    table = build_profile_table(g, Q, r)
    profs = [e.profile.values for e in table.entries]
    counts = [e.count for e in table.entries]
    np = len(profs)
    compat = [[min((profs[i][t] + profs[j][t]
                    for t in range(len(Q))), default=INF) > r
               for j in range(np)] for i in range(np)]
    pick = _free_multiset(compat, counts, k, work_budget)
    if pick is None:
        return Decision(NO_SOLUTION, list(Q))
    # distinct lowest-id realizers per chosen profile, in one vertex pass
    wanted = Counter(pick)
    X = []
    for v in range(g.n):
        i = table.vertex_to_profile[v]
        if wanted[i]:
            wanted[i] -= 1
            X.append(v)
    if len(X) != k:
        raise InternalInvariantError("a chosen profile has too few realizers")
    return Decision(SOLUTION, tuple(_exchange(g, X, r)))


def close_pairs(g: Graph, members, r: int):
    """The pairs of sorted ``members`` at distance <= r, in the order of
    ``combinations(members, 2)``: one capped BFS per member."""
    out = []
    for idx, u in enumerate(members[:-1]):
        dist = bfs_capped(g, u, r)
        out.extend((u, v) for v in members[idx + 1:] if dist[v] <= r)
    return out


def _exchange(g: Graph, X, r: int):
    """Repair the sorted set X into one at pairwise distance > r: while a
    close pair remains, swap the second vertex of the first such pair for
    the lowest-id vertex farther than r from the rest.  Each swap must
    strictly shrink the number of vertices in close pairs."""
    guard = len(X) + 1
    pairs = close_pairs(g, X, r)
    while pairs:
        guard -= 1
        if guard < 0:
            raise InternalInvariantError(
                "exchange loop failed to terminate; capture set invalid")
        before = len({v for pair in pairs for v in pair})
        w = pairs[0][1]
        rest = [x for x in X if x != w]
        near = ball_distances(g, rest, r)
        far = next((v for v in range(g.n) if v not in near), None)
        if far is None:
            raise InternalInvariantError(
                "remainder dominates the graph; capture set was not a "
                "valid capture certificate")
        X = sorted(rest + [far])
        pairs = close_pairs(g, X, r)
        if len({v for pair in pairs for v in pair}) >= before:
            raise InternalInvariantError("exchange loop made no progress")
    return X


def _free_multiset(compat, counts, k, work_budget):
    """Lexicographically first non-decreasing size-k tuple of profile
    indices, profile ``i`` used at most ``counts[i]`` times, whose members
    are pairwise compatible (a repeated index needs ``compat[i][i]``); None
    when there is none.  A depth-first search that raises
    ResourceBudgetError on visiting more than ``work_budget`` nodes."""
    np = len(counts)
    chosen: list = []
    nxt = [0]  # nxt[d]: the next index to try after chosen[:d]
    nodes = 1
    deepest = 0
    while nxt:
        if len(chosen) == k:
            return tuple(chosen)
        i = nxt[-1]
        while i < np:
            mult = chosen.count(i)
            if (mult < counts[i] and (not mult or compat[i][i])
                    and all(compat[j][i] for j in chosen)):
                break
            i += 1
        if i == np:
            nxt.pop()
            if chosen:
                chosen.pop()
            continue
        nodes += 1
        if nodes > work_budget:
            raise ResourceBudgetError(
                f"profile-multiset search exceeded its work budget of "
                f"{work_budget} nodes ({nodes - 1} explored, deepest "
                f"multiset size {deepest} of {k})")
        nxt[-1] = i + 1
        chosen.append(i)
        nxt.append(i)
        deepest = max(deepest, len(chosen))
    return None


# --- brute-force reference solvers ------------------------------------------


def brute_force_dominating(g: Graph, k: int, r: int,
                           subset_budget: int = 5_000_000):
    """Lexicographically first distance-r dominating set of size <= k, or
    None.  Sizes are tried in increasing order, so the result is also a
    smallest one."""
    if k < 0 or r < 0:
        raise InputError("k and r must be >= 0")
    total = sum(comb(g.n, size) for size in range(min(k, g.n) + 1))
    if total > subset_budget:
        raise ResourceBudgetError(f"{total} subsets exceed budget")
    dist = [bfs_capped(g, v, r) for v in range(g.n)]
    for size in range(min(k, g.n) + 1):
        for cand in combinations(range(g.n), size):
            if all(any(dist[c][v] <= r for c in cand)
                   for v in range(g.n)):
                return cand
    return None


def brute_force_independent(g: Graph, k: int, r: int,
                            subset_budget: int = 5_000_000):
    """Lexicographically first set of k vertices at pairwise distance > r,
    or None."""
    if k < 0 or r < 0:
        raise InputError("k and r must be >= 0")
    if k > g.n:
        return None
    if comb(g.n, k) > subset_budget:
        raise ResourceBudgetError("too many subsets")
    dist = [bfs_capped(g, v, r) for v in range(g.n)]
    for cand in combinations(range(g.n), k):
        if all(dist[u][v] == INF for u, v in combinations(cand, 2)):
            return cand
    return None
