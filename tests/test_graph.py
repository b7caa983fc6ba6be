import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from progexplore import (Graph, INF, InputError, ParseError, ball, bfs_capped,
                         generate, graph_power, half_square, has_ktt,
                         parse_dimacs, parse_graph, serialize_graph)


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def random_graph(n, seed, p=0.5):
    rng = random.Random(seed)
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


# --- construction -----------------------------------------------------------

def test_from_edges_rejects_self_loop():
    with pytest.raises(InputError):
        Graph.from_edges(2, [(0, 0)])


def test_from_edges_rejects_duplicates_and_reversed():
    with pytest.raises(InputError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(InputError):
        Graph.from_edges(3, [(0, 1), (0, 1)])


def test_from_edges_rejects_out_of_range():
    with pytest.raises(InputError):
        Graph.from_edges(2, [(0, 2)])


def test_size_counts_vertices_and_edges():
    g = path(4)
    assert g.n == 4 and g.m == 3 and g.size == 7


# --- bfs_capped -------------------------------------------------------------

def test_bfs_one_layer():
    assert bfs_capped(path(3), 0, 1) == [0, 1, INF]


def test_bfs_cap_zero():
    g = random_graph(5, 3)
    dist = bfs_capped(g, 2, 0)
    assert dist[2] == 0
    assert all(dist[v] == INF for v in range(5) if v != 2)


def test_bfs_four_cycle():
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert bfs_capped(c4, 0, 2) == [0, 1, 2, 1]


def test_bfs_invalid_source():
    with pytest.raises(InputError):
        bfs_capped(path(3), 7, 1)


@given(st.integers(0, 10 ** 6), st.integers(2, 7), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_bfs_distance_symmetry(seed, n, r):
    g = random_graph(n, seed)
    for u in range(n):
        du = bfs_capped(g, u, r)
        for v in range(n):
            assert du[v] == bfs_capped(g, v, r)[u]


def test_bfs_allowed_restricts_to_arena():
    # removing the middle vertex of a path disconnects the ends
    g = path(3)
    dist = bfs_capped(g, 0, 3, allowed={0, 2})
    assert dist == [0, INF, INF]


def test_ball_radius_one():
    g = path(5)
    assert ball(g, 2, 1) == {1, 2, 3}


# --- graph_power ------------------------------------------------------------

def test_power_one_is_identity():
    g = random_graph(6, 11)
    assert graph_power(g, 1) is g


def test_power_two_of_p4():
    g = graph_power(path(4), 2)
    assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]


def test_power_of_single_vertex():
    g = graph_power(Graph.from_edges(1, []), 5)
    assert g.n == 1 and g.m == 0


def test_power_zero_rejected():
    with pytest.raises(InputError):
        graph_power(path(2), 0)


def full_scan_power_edges(g, s):
    """The edge list of G^s from a scan of every later vertex per source."""
    edges = []
    for u in range(g.n):
        dist = bfs_capped(g, u, s)
        for v in range(u + 1, g.n):
            if dist[v] is not INF and dist[v] >= 1:
                edges.append((u, v))
    return edges


@given(st.integers(0, 10 ** 6), st.integers(1, 12), st.integers(2, 4),
       st.floats(0.05, 0.6))
@settings(max_examples=80, deadline=None)
def test_power_edge_list_matches_full_scan(seed, n, s, p):
    g = random_graph(n, seed, p=p)
    seen = []
    saved = Graph.__dict__["from_edges"]

    def capture(n, edges):
        seen.append(list(edges))
        return saved.__func__(n, seen[-1])

    Graph.from_edges = staticmethod(capture)
    try:
        graph_power(g, s)
    finally:
        Graph.from_edges = saved
    assert seen == [full_scan_power_edges(g, s)]


@given(st.integers(0, 10 ** 6), st.integers(1, 12), st.integers(2, 3))
@settings(max_examples=60, deadline=None)
def test_power_distance_identity(seed, n, s):
    # dist in the power graph is the ceiling of the original distance over s
    g = random_graph(n, seed, p=0.35)
    gs = graph_power(g, s)
    for u in range(n):
        base = bfs_capped(g, u, n)
        pwr = bfs_capped(gs, u, n)
        for v in range(n):
            if base[v] == INF:
                assert pwr[v] == INF
            else:
                assert pwr[v] == math.ceil(base[v] / s)


# --- half_square ------------------------------------------------------------

def test_half_square_star():
    h = Graph.from_edges(3, [(0, 1), (0, 2)])  # center 0, leaves 1,2
    g = half_square(h, [1, 2])
    assert g.n == 2 and sorted(g.edges()) == [(0, 1)]


def test_half_square_disconnected_edges():
    h = Graph.from_edges(4, [(0, 1), (2, 3)])
    g = half_square(h, [0, 2])
    assert g.m == 0


def test_half_square_six_cycle():
    c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    g = half_square(c6, [0, 2, 4])
    assert g.n == 3 and g.m == 3  # triangle


def test_half_square_rejects_non_bipartition():
    h = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(InputError):
        half_square(h, [0, 1])


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_half_square_inside_square(seed):
    # half-square edges are exactly the square's edges within the side
    rng = random.Random(seed)
    a = rng.randint(1, 6)
    b = rng.randint(1, 6)
    edges = [(i, a + j) for i in range(a) for j in range(b)
             if rng.random() < 0.5]
    h = Graph.from_edges(a + b, edges)
    side = list(range(a))
    g = half_square(h, side)
    sq = graph_power(h, 2)
    for i, j in combinations(range(a), 2):
        assert g.has_edge(i, j) == sq.has_edge(side[i], side[j])


# --- parsing and serialization ----------------------------------------------

def test_parse_simple_path():
    g = parse_graph("3 2\n0 1\n1 2")
    assert g.adjacency == ((1,), (0, 2), (1,))


def test_parse_rejects_reversed_duplicate():
    with pytest.raises(ParseError) as exc:
        parse_graph("3 2\n0 1\n1 0")
    assert "line 3" in str(exc.value)


def test_parse_rejects_wrong_count():
    with pytest.raises(ParseError):
        parse_graph("3 2\n0 1")


def test_parse_rejects_out_of_range():
    with pytest.raises(ParseError) as exc:
        parse_graph("2 1\n0 5")
    assert "line 2" in str(exc.value)


def test_serialize_round_trip():
    g = random_graph(7, 42)
    assert parse_graph(serialize_graph(g)).adjacency == g.adjacency


def test_parse_dimacs():
    g = parse_dimacs("c comment\np edge 3 2\ne 1 2\ne 2 3\n")
    assert g.adjacency == ((1,), (0, 2), (1,))


def test_parse_dimacs_rejects_bad_header():
    with pytest.raises(ParseError):
        parse_dimacs("p vertex 3 2\n")


# --- generators -------------------------------------------------------------

def test_grid_2x2_is_four_cycle():
    g = generate("grid", {"rows": 2, "cols": 2})
    assert g.n == 4 and g.m == 4 and all(g.degree(v) == 2 for v in range(4))


def test_complete_bipartite_k22():
    g = generate("complete_bipartite", {"a": 2, "b": 2})
    assert g.n == 4 and g.m == 4
    assert g.has_edge(0, 2) and g.has_edge(1, 3) and not g.has_edge(0, 1)


def test_generate_deterministic():
    a = generate("tree", {"n": 9}, seed=5)
    b = generate("tree", {"n": 9}, seed=5)
    assert a.adjacency == b.adjacency


def test_ktt_free_generator_is_ktt_free():
    for seed in range(10):
        g = generate("ktt_free_random", {"n": 9, "t": 2, "m": 14}, seed=seed)
        assert not has_ktt(g, 2)


def test_tree_depth_option():
    g = generate("tree", {"n": 10, "max_depth": 2}, seed=1)
    dist = bfs_capped(g, 0, 10)
    assert max(dist) <= 2


def test_unknown_family_rejected():
    with pytest.raises(InputError):
        generate("hypercube", {"n": 3})


def test_power_of_family():
    g = generate("power_of", {"family": "path", "params": {"n": 4}, "s": 2})
    assert g.m == 5


def test_half_square_family_connected():
    g = generate("half_square_of_planar_bipartite", {"rows": 3, "cols": 3})
    assert g.n == 5  # even-parity cells of a 3x3 grid
    assert all(d != INF for d in bfs_capped(g, 0, g.n))
