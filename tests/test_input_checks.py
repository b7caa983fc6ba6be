"""Checks at the input boundary: the edge-list and DIMACS parsers share one
validating edge reader, generator params are type-checked where they
enter, and generated graphs re-check their family."""
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from progexplore import (BipartiteGraph, Graph, InputError,
                         InternalInvariantError, ParseError, cli_main,
                         generate, parse_bipartite, parse_dimacs, parse_graph,
                         run_bench, serialize_bipartite)
from progexplore.graph import _validate_family


def line_of(exc_info):
    return exc_info.value.line


# --- parse_graph ---------------------------------------------------------------

@pytest.mark.parametrize("text, line", [
    ("3 2\n0 1\n0 1\n", 3),            # duplicate
    ("3 2\n0 1\n1 0\n", 3),            # reversed duplicate
    ("\n3 2\n\n1 2\n\n2 1\n", 6),      # reversed, blank lines counted
    ("3 1\n1 1\n", 2),                 # self-loop
    ("3 2\n0 1\n2 3\n", 3),            # endpoint == n
    ("3 1\n-1 0\n", 2),                # negative endpoint
])
def test_parse_graph_edge_errors_carry_line(text, line):
    with pytest.raises(ParseError) as exc:
        parse_graph(text)
    assert line_of(exc) == line
    assert f"(line {line})" in str(exc.value)


def test_parse_graph_messages_name_the_fault():
    with pytest.raises(ParseError, match="self-loop at vertex 1"):
        parse_graph("3 1\n1 1\n")
    with pytest.raises(ParseError, match=r"duplicate or reversed edge \(1,0\)"):
        parse_graph("3 2\n0 1\n1 0\n")
    with pytest.raises(ParseError, match=r"out of range in \(2,3\)"):
        parse_graph("3 1\n2 3\n")


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10), st.integers(0, 2 ** 32))
def test_parsed_graph_equals_from_edges(n, seed):
    rng = random.Random(seed)
    edges = [e for e in combinations(range(n), 2) if rng.random() < 0.4]
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    rng.shuffle(edges)
    text = f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    dimacs = f"p edge {n} {len(edges)}\n" + "".join(
        f"e {u + 1} {v + 1}\n" for u, v in edges)
    want = Graph.from_edges(n, edges)
    assert parse_graph(text) == want
    assert parse_dimacs(dimacs) == want


# --- parse_dimacs --------------------------------------------------------------

@pytest.mark.parametrize("text, line", [
    ("p edge 3 2\ne 1 2\ne 1 2\n", 3),             # duplicate
    ("c x\np edge 3 2\ne 1 2\nc y\ne 2 1\n", 5),   # reversed after comments
    ("p edge 3 1\ne 2 2\n", 2),                    # self-loop
    ("p edge 3 1\ne 1 4\n", 2),                    # endpoint > n
    ("p edge 3 1\ne 0 1\n", 2),                    # ids are 1-based
    ("p edge -1 0\n", 1),                          # negative vertex count
])
def test_parse_dimacs_errors_carry_line(text, line):
    with pytest.raises(ParseError) as exc:
        parse_dimacs(text)
    assert line_of(exc) == line


def test_parse_dimacs_self_loop_names_one_based_vertex():
    with pytest.raises(ParseError, match="self-loop at vertex 2"):
        parse_dimacs("p edge 3 1\ne 2 2\n")


# --- both graph formats --------------------------------------------------------

def both_formats(n, m, edges):
    """An edge list and its DIMACS twin, each edge on the same line in both;
    integer ids shift to 1-based in DIMACS, other tokens stay as they are."""
    def dimacs_id(t):
        return t + 1 if isinstance(t, int) else t
    text = f"{n} {m}\n" + "".join(
        " ".join(map(str, e)) + "\n" for e in edges)
    dimacs = f"p edge {n} {m}\n" + "".join(
        "e " + " ".join(str(dimacs_id(t)) for t in e) + "\n" for e in edges)
    return text, dimacs


@pytest.mark.parametrize("n, m, edges, line", [
    (3, 2, [(0, 1), (0, 1)], 3),       # duplicate
    (3, 2, [(0, 1), (1, 0)], 3),       # reversed duplicate
    (3, 1, [(2, 2)], 2),               # self-loop
    (3, 2, [(0, 1), (1, 3)], 3),       # id one past the last vertex
    (3, 2, [(0, 1), (-1, 2)], 3),      # id below the first vertex
    (3, 1, [(0, "x")], 2),             # not an integer
    (3, 2, [(0, 1), (0, 1, 2)], 3),    # three ids
    (3, 1, [(0,)], 2),                 # one id
    (3, 2, [(0, 1)], 1),               # count mismatch: the header's line
])
def test_both_formats_fail_on_the_same_line(n, m, edges, line):
    for parse, text in zip((parse_graph, parse_dimacs),
                           both_formats(n, m, edges)):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert line_of(exc) == line, (parse.__name__, str(exc.value))


def test_both_formats_name_the_ids_as_written():
    text, dimacs = both_formats(4, 2, [(0, 1), (2, 2)])
    with pytest.raises(ParseError, match="self-loop at vertex 2"):
        parse_graph(text)
    with pytest.raises(ParseError, match="self-loop at vertex 3"):
        parse_dimacs(dimacs)
    text, dimacs = both_formats(4, 2, [(0, 1), (1, 0)])
    with pytest.raises(ParseError, match=r"reversed edge \(1,0\)"):
        parse_graph(text)
    with pytest.raises(ParseError, match=r"reversed edge \(2,1\)"):
        parse_dimacs(dimacs)


@pytest.mark.parametrize("text", ["c x\np edge 3 -1\n", "c x\np edge -3 0\n",
                                  "c x\np edge 3 x\n"])
def test_dimacs_rejects_a_bad_count_on_the_problem_line(text):
    with pytest.raises(ParseError) as exc:
        parse_dimacs(text)
    assert line_of(exc) == 2


@pytest.mark.parametrize("parse, text, message", [
    (parse_graph, "3 1\n0_1 2\n", "edge endpoints must be integers"),
    (parse_graph, "1_0 0\n", "header counts must be integers"),
    (parse_dimacs, "p edge 3 1\ne +1 ٣\n",
     "edge endpoints must be integers"),
    (parse_bipartite, "2 2 1\n+1 0\n", "edge endpoints must be integers"),
])
def test_ids_are_ascii_digits_only(parse, text, message):
    # int() alone would read 0_1 as 1, 1_0 as 10, +1 as 1 and the
    # Arabic-Indic three as 3
    with pytest.raises(ParseError, match=message) as exc:
        parse(text)
    assert line_of(exc) == text.count("\n")


@pytest.mark.parametrize("parse, text, want", [
    (parse_graph, "2 1\n0\u00a01\n", Graph.from_edges(2, [(0, 1)])),
    (parse_dimacs, "p edge 2 1\ne 1\u00a02\n",
     Graph.from_edges(2, [(0, 1)])),
    (parse_bipartite, "1 1 1\n0\u00a00\n",
     BipartiteGraph.from_edges(1, 1, [(0, 0)])),
])
def test_ids_may_be_split_by_any_whitespace(parse, text, want):
    # the rule is on the ids; a line splits as str.split splits it,
    # here at a no-break space
    assert parse(text) == want


HUGE = 10 ** 20


@pytest.mark.parametrize("parse, text", [
    (parse_graph, f"0 {HUGE}\n"),
    (parse_graph, f"2 {HUGE}\n0 1\n"),
    (parse_dimacs, f"p edge 0 {HUGE}\n"),
])
def test_a_huge_edge_count_is_a_count_mismatch(parse, text):
    # the header's count must not size anything before the body is read
    with pytest.raises(ParseError,
                       match=f"expected {HUGE} edge lines, found ") as exc:
        parse(text)
    assert line_of(exc) == 1


@pytest.mark.parametrize("name, text", [
    ("g.txt", f"0 {HUGE}\n"),
    ("g.col", f"p edge 0 {HUGE}\n"),
])
def test_cli_exits_2_on_a_huge_edge_count(tmp_path, capsys, name, text):
    f = tmp_path / name
    f.write_text(text)
    code = cli_main(["solve-domset", "--graph", str(f), "--k", "1",
                     "--r", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"expected {HUGE} edge lines, found 0 (line 1)" in captured.err


def test_cli_exits_2_on_an_underscored_id(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text("3 1\n0_1 2\n")
    code = cli_main(["solve-domset", "--graph", str(f), "--k", "1",
                     "--r", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "edge endpoints must be integers (line 2)" in captured.err


@pytest.mark.parametrize("parse, text", [
    (parse_graph, "\n3 2\n0 1\n"),
    (parse_graph, "\n3 1\n0 1\n1 2\n"),
    (parse_dimacs, "c x\np edge 3 2\ne 1 2\n"),
    (parse_dimacs, "c x\np edge 3 1\ne 1 2\ne 2 3\n"),
])
def test_count_mismatch_names_the_header_line(parse, text):
    with pytest.raises(ParseError, match="expected") as exc:
        parse(text)
    assert line_of(exc) == 2


# --- parse_bipartite -----------------------------------------------------------

def test_parse_bipartite_duplicate_found_among_many_edges():
    edges = [(l, r) for l in range(60) for r in range(60)]
    body = "".join(f"{l} {r}\n" for l, r in edges)
    text = f"60 60 {len(edges) + 1}\n" + body + "\n7 9\n"
    with pytest.raises(ParseError, match=r"duplicate edge \(7,9\)") as exc:
        parse_bipartite(text)
    assert line_of(exc) == len(edges) + 3
    h = parse_bipartite(f"60 60 {len(edges)}\n" + body)
    assert h.m == len(edges)


@pytest.mark.parametrize("header", ["-1 2 0", "2 -1 0", "2 2 -1"])
def test_parse_bipartite_rejects_negative_header_counts(header):
    with pytest.raises(ParseError) as exc:
        parse_bipartite(f"\n{header}\n")
    assert line_of(exc) == 2


@st.composite
def bipartite_graphs(draw):
    left, right = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    masks = draw(st.lists(st.integers(0, (1 << right) - 1),
                          min_size=left, max_size=left))
    return BipartiteGraph(left, right, tuple(masks))


@settings(max_examples=100, deadline=None)
@given(bipartite_graphs())
def test_parse_bipartite_inverts_serialize(h):
    assert parse_bipartite(serialize_bipartite(h)) == h


# --- generator params ----------------------------------------------------------

@pytest.mark.parametrize("family, params", [
    ("grid", {"rows": "a", "cols": 2}),
    ("grid", {"rows": 2.0, "cols": 2}),
    ("path", {"n": True}),
    ("cycle", {"n": None}),
    ("tree", {"n": 5, "max_depth": "2"}),
    ("bounded_degree_random", {"n": 5, "max_degree": 2, "m": [3]}),
    ("ktt_free_random", {"n": 5, "t": "2"}),
    ("complete_bipartite", {"a": 2, "b": {}}),
    ("power_of", {"family": "path", "params": {"n": 4}, "s": "2"}),
    ("power_of", {"family": "path", "params": [4], "s": 2}),
    ("power_of", {"family": ["path"], "params": {"n": 4}, "s": 2}),
    ("half_square_of_planar_bipartite", {"rows": 2, "cols": "3"}),
])
def test_generate_rejects_bad_typed_params(family, params):
    with pytest.raises(InputError):
        generate(family, params)


@pytest.mark.parametrize("params", [[1, 2], "grid", 3, None])
def test_generate_rejects_non_mapping_params(params):
    with pytest.raises(InputError, match="must be a mapping"):
        generate("grid", params)


def test_generate_optional_params_accept_null():
    assert generate("tree", {"n": 6, "max_depth": None}).n == 6
    assert generate("bounded_degree_random",
                    {"n": 6, "max_degree": 2, "m": None}).n == 6


@pytest.mark.parametrize("params", ['{"rows":"a","cols":2}', "[1,2]"])
def test_cli_generate_bad_typed_params_is_usage_error(params, capsys):
    code = cli_main(["generate", "--family", "grid", "--params", params])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_bench_records_bad_typed_instance_and_runs_the_rest():
    records = run_bench({
        "instances": [{"family": "grid", "params": {"rows": "a", "cols": 2}},
                      {"family": "path", "params": {"n": 4}}],
        "problems": [{"kind": "domset", "k": 1, "r": 1}],
    })
    assert [rec.decision for rec in records] == ["ERROR", "NO_SOLUTION"]
    assert "'rows' must be an integer" in records[0].error


# --- family re-check -----------------------------------------------------------

@pytest.mark.parametrize("family, g, params", [
    ("path", Graph.from_edges(3, []), {"n": 3}),
    ("cycle", Graph.from_edges(3, [(0, 1), (1, 2)]), {"n": 3}),
    ("star", Graph.from_edges(3, [(1, 2)]), {"n": 3}),
    ("tree", Graph.from_edges(4, [(0, 1), (2, 3)]), {"n": 4}),
    ("grid", Graph.from_edges(4, [(0, 1)]), {"rows": 2, "cols": 2}),
    ("complete_bipartite", Graph.from_edges(3, []), {"a": 1, "b": 2}),
])
def test_family_recheck_raises_internal_invariant(family, g, params):
    with pytest.raises(InternalInvariantError, match=family):
        _validate_family(g, family, params)
