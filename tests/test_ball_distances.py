"""``ball_distances``, the package's one BFS, against a plain layer-by-layer
BFS, and the cost property it exists for: a progressive round allocates
the size of its pivot balls, not n."""
import random
import tracemalloc
from itertools import combinations

import pytest

from progexplore import (INF, NO_SOLUTION, Graph, ImplicitBipartite,
                         InputError, ball_distances, build_delta, generate,
                         semi_ladder_solve)

CAPS = [0, 1, 2, 3, 4, INF]


def random_graph(n, rng, p):
    return Graph.from_edges(
        n, [e for e in combinations(range(n), 2) if rng.random() < p])


def layered_bfs(g, sources, cap, allowed):
    """Distance to the nearest source inside ``allowed``, one whole layer
    at a time."""
    arena = set(range(g.n)) if allowed is None else set(allowed)
    dist = {}
    layer, d = set(sources), 0
    while layer and d <= cap:
        dist.update(dict.fromkeys(layer, d))
        layer = {w for v in layer for w in g.neighbors(v)
                 if w in arena and w not in dist}
        d += 1
    return dist


def cases(rng, n):
    """(sources, allowed) pairs: one, several and no sources, over the
    whole graph and over random arenas holding the sources."""
    for size in (1, 1, 3, 0, min(n, 6)):
        sources = [rng.randrange(n) for _ in range(size)]
        yield sources, None
        arena = {v for v in range(n) if rng.random() < 0.6}
        yield sources, frozenset(arena.union(sources))


@pytest.mark.parametrize("seed", range(40))
def test_ball_distances_matches_layered_bfs(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 25)
    g = random_graph(n, rng, rng.choice([0.05, 0.12, 0.3]))
    for sources, allowed in cases(rng, n):
        for cap in CAPS:
            got = ball_distances(g, sources, cap, allowed)
            assert got == layered_bfs(g, sources, cap, allowed), (
                seed, sources, cap, allowed)
            starts = list(dict.fromkeys(sources))
            assert list(got)[:len(starts)] == starts
            values = list(got.values())
            assert values == sorted(values)


def test_ball_distances_rejects_bad_input():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    for sources in ([-1], [3], [0, 3]):
        with pytest.raises(InputError):
            ball_distances(g, sources, 1)
    with pytest.raises(InputError):
        ball_distances(g, [0], -1)
    with pytest.raises(InputError):
        ball_distances(g, [0, 2], 1, allowed={0, 1})


def test_cycle_solve_allocates_its_balls_not_n():
    """``delta(3, 2)`` on the 200,000-cycle: 14 rounds whose pivot balls
    hold a few dozen vertices.  One length-n list per BFS would peak near
    3 MiB; the balls alone stay far under the bound."""
    g = generate("cycle", {"n": 200_000})
    ib = ImplicitBipartite(g, build_delta(3, 2))
    tracemalloc.start()
    try:
        decision = semi_ladder_solve(ib)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert decision.kind == NO_SOLUTION
    assert decision.transcript.rounds == 14
    assert peak < 512 * 1024
