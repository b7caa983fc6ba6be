"""The random-pair and tree generators against the list-of-tuples,
whole-graph K_{t,t} check and list-comprehension code they replaced: the
same graph for every seed and parameter set, far less memory and time, and
the same input errors."""
import hashlib
import json
import random
import time
import tracemalloc
from itertools import combinations

import pytest

from progexplore import Graph, InputError, cli_main, generate, serialize_graph
from progexplore.graph import has_ktt

SEEDS = [0, 1, 2, 3, 7]


def _reference_bounded_degree_random(n, max_degree, m, seed):
    rng = random.Random(seed)
    candidates = list(combinations(range(n), 2))
    rng.shuffle(candidates)
    deg = [0] * n
    edges = []
    for u, v in candidates:
        if len(edges) >= m:
            break
        if deg[u] < max_degree and deg[v] < max_degree:
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return Graph.from_edges(n, edges)


def _reference_ktt_free_random(n, t, m, seed):
    rng = random.Random(seed)
    candidates = list(combinations(range(n), 2))
    rng.shuffle(candidates)
    edges = []
    for u, v in candidates:
        if len(edges) >= m:
            break
        if not has_ktt(Graph.from_edges(n, edges + [(u, v)]), t):
            edges.append((u, v))
    return Graph.from_edges(n, edges)


def _reference_tree(n, max_depth, seed):
    rng = random.Random(seed)
    depth = [0] * n
    edges = []
    for v in range(1, n):
        choices = range(v)
        if max_depth is not None:
            choices = [u for u in choices if depth[u] < max_depth]
            if not choices:
                raise InputError("max_depth too small for requested n")
        parent = rng.choice(choices)
        depth[v] = depth[parent] + 1
        edges.append((parent, v))
    return Graph.from_edges(n, edges)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n, max_degree, m", [
    (0, 2, None), (1, 2, None), (2, 1, None), (3, 2, None), (3, 2, 3),
    (3, 2, 10), (10, 0, None), (10, 3, 0), (10, 9, 45), (10, 9, 100),
    (50, 4, None), (50, 4, 75), (120, 9, 400), (400, 4, 600),
])
def test_bounded_degree_random_matches_reference(seed, n, max_degree, m):
    params = {"n": n, "max_degree": max_degree}
    if m is not None:
        params["m"] = m
    expected = _reference_bounded_degree_random(
        n, max_degree, n if m is None else m, seed)
    assert generate("bounded_degree_random", params, seed=seed) == expected


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n, t, m", [
    (0, 2, None), (1, 2, None), (2, 1, None), (3, 1, None), (3, 2, 0),
    (3, 2, 3), (6, 2, 15), (6, 2, 100), (12, 2, None), (20, 3, 40),
])
def test_ktt_free_random_matches_reference(seed, n, t, m):
    params = {"n": n, "t": t}
    if m is not None:
        params["m"] = m
    expected = _reference_ktt_free_random(n, t, 2 * n if m is None else m,
                                          seed)
    assert generate("ktt_free_random", params, seed=seed) == expected


@pytest.mark.parametrize("t", (1, 2, 3))
@pytest.mark.parametrize("n", (5, 8, 12, 20, 30))
def test_ktt_free_random_matches_whole_graph_check(n, t):
    # the generator tests only the K_{t,t} through each new edge
    for seed in range(4):
        assert generate("ktt_free_random", {"n": n, "t": t}, seed=seed) == \
            _reference_ktt_free_random(n, t, 2 * n, seed)


def test_ktt_free_random_is_fast_at_n_120():
    # a whole-graph check per tried pair took 8.6 s here; this takes ~0.01 s
    start = time.perf_counter()
    g = generate("ktt_free_random", {"n": 120, "t": 2}, seed=1)
    assert time.perf_counter() - start < 0.5
    assert g.m == 240 and not has_ktt(g, 2)


@pytest.mark.parametrize("n", (1, 20))
def test_ktt_free_random_rejects_t_below_one(n):
    with pytest.raises(InputError, match=r"^t must be >= 1, got 0$"):
        generate("ktt_free_random", {"n": n, "t": 0, "m": 0})


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n, max_depth", [
    (1, None), (1, 0), (2, None), (2, 0), (2, 1), (3, 1), (5, 1), (5, 2),
    (40, None), (40, 2), (300, None), (300, 3), (300, 6),
])
def test_tree_matches_reference(seed, n, max_depth):
    params = {"n": n}
    if max_depth is not None:
        params["max_depth"] = max_depth
    try:
        expected = _reference_tree(n, max_depth, seed)
    except InputError as exc:
        with pytest.raises(InputError, match=str(exc)):
            generate("tree", params, seed=seed)
    else:
        assert generate("tree", params, seed=seed) == expected


@pytest.mark.parametrize("family, params", [
    ("bounded_degree_random", {"n": -3, "max_degree": 2}),
    ("bounded_degree_random", {"n": -3, "max_degree": 2, "m": 4}),
    ("ktt_free_random", {"n": -3, "t": 2}),
    ("ktt_free_random", {"n": -3, "t": 2, "m": 0}),
])
def test_negative_vertex_count_keeps_its_message(family, params):
    with pytest.raises(InputError, match="^negative vertex count -3$"):
        generate(family, params)


@pytest.mark.parametrize("family, params", [
    ("bounded_degree_random", {"n": 5, "max_degree": 2, "m": -4}),
    ("ktt_free_random", {"n": 5, "t": 2, "m": -1}),
])
def test_negative_m_is_rejected(family, params, capsys):
    with pytest.raises(InputError, match=r"^m must be >= 0$"):
        generate(family, params)
    code = cli_main(["generate", "--family", family,
                     "--params", json.dumps(params)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: m must be >= 0\n"


def _traced_peak(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bounded_degree_random_peaks_far_below_the_tuple_list():
    # n stays small: under tracemalloc the array swaps run 2-3x slower.
    # At n=400 the peaks are about 0.35 MiB against 5.0 MiB.
    n, max_degree, m = 400, 4, 600
    old = _traced_peak(
        lambda: _reference_bounded_degree_random(n, max_degree, m, 1))
    new = _traced_peak(lambda: generate(
        "bounded_degree_random", {"n": n, "max_degree": max_degree, "m": m},
        seed=1))
    assert new < old / 4, (new, old)


@pytest.mark.parametrize("seed, digest", [
    (1, "a683070ae428f36bb862f6b7a1a557da8f0384629cb0074a00fdee0a8ec05c21"),
    (2, "4a54ed2617062f65dc10ade57cbcb934c2c6e19f915e31075b2f1868c08c6c1c"),
])
def test_domset_sparse_graphs_are_pinned(seed, digest):
    """Slow (about a second per seed): the graphs of the benchmark's
    domset-sparse workload, which its recorded counts assume."""
    g = generate("bounded_degree_random",
                 {"n": 2000, "max_degree": 4, "m": 3000}, seed=seed)
    assert hashlib.sha256(
        serialize_graph(g).encode()).hexdigest() == digest
