"""Canonical edge-list files take a bulk path that checks the whole text at
once and hands anything it doubts to the line walker.  Against the walker
alone, on canonical files and on edited copies of them, it must give the
same graph or the same ParseError, message and line alike."""
import gc
import random
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from progexplore import Graph, ParseError, generate, parse_graph
from progexplore.graph import (_bulk_edge_list, _from_adjacency,
                               _walk_edge_list, serialize_graph)


def outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc), exc.line


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 9))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


def edit(lines, rng, n):
    """``lines`` with one random edit of the kinds a hand-made file shows."""
    lines = list(lines)
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    kind = rng.randrange(12)
    pos = rng.randrange(len(lines[i]) + 1)
    if kind == 0:  # a stray character inside a line
        lines[i] = lines[i][:pos] + rng.choice("+_٣\t") + lines[i][pos:]
    elif kind == 1:  # a character dropped, which can leave an id empty
        lines[i] = lines[i][:pos - 1] + lines[i][pos:] if pos else lines[i]
    elif kind == 2:
        lines[i] += "\r"  # joined by "\n", this line ends in "\r\n"
    elif kind == 3:
        lines.insert(i, "")
    elif kind == 4:
        lines[i] += f" {rng.randrange(n + 2)}"
    elif kind == 5:
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == 6:  # a line copied over another, so the count stays
        lines[j] = lines[i]
    elif kind == 7:  # the same with its ids the other way round
        lines[j] = " ".join(lines[i].split()[::-1])
    elif kind == 8:  # an id just past the last vertex
        words = lines[i].split() or [""]
        words[-1] = str(n)
        lines[i] = " ".join(words)
    elif kind == 9:  # the header's edge count off by one, or far too large
        words = lines[0].split()
        if words and words[-1].isascii() and words[-1].isdigit():
            words[-1] = str(int(words[-1]) + rng.choice((-1, 1, 10 ** 20)))
            lines[0] = " ".join(words)
    elif len(lines) > 1:  # on an edge line: an id with a leading zero,
        # which int reads and JSON does not, or an id of 10^20
        i = rng.randrange(1, len(lines))
        words = lines[i].split() or [""]
        k = rng.randrange(len(words))
        words[k] = "0" + words[k] if kind == 10 else str(10 ** 20)
        lines[i] = " ".join(words)
    return lines


def few_vertices(text):
    """Whether the header, the first non-blank line, names at most 10^6
    vertices.  Both parsers make one list per vertex the header names, so
    a 10^20 id that a later edit moves into it must not reach them."""
    head = next((s.split() for s in text.splitlines() if s.strip()), [])
    return not (head and head[0].isascii() and head[0].isdigit()
                and int(head[0]) > 10 ** 6)


@settings(max_examples=300, deadline=None)
@given(graphs(), st.integers(0, 2 ** 32), st.integers(0, 3),
       st.booleans())
def test_parse_graph_agrees_with_the_line_walker(g, seed, edits,
                                                 final_newline):
    rng = random.Random(seed)
    lines = serialize_graph(g).split("\n")[:-1]
    for _ in range(edits):
        lines = edit(lines, rng, g.n)
    text = "\n".join(lines) + ("\n" if final_newline else "")
    assume(few_vertices(text))
    want = outcome(_walk_edge_list, text)
    assert outcome(parse_graph, text) == want
    if not edits:
        assert want == g


@settings(max_examples=50, deadline=None)
@given(graphs(), st.booleans())
def test_canonical_files_take_the_bulk_path(g, final_newline):
    text = serialize_graph(g)
    if not final_newline:
        text = text[:-1]
    assert _from_adjacency(_bulk_edge_list(text)) == g


@pytest.mark.parametrize("text", [
    "3 2\n0 01\n1 2\n",   # a leading zero: the walker reads the edge 0-1
    "2 1\n0 00\n",         # a leading zero that spells a self-loop
    "2 0\n5",              # an id after an empty edge list, no line end
    "3 1\n0 100000000000000000000\n",  # an id far past n
])
def test_doubtful_ids_go_to_the_line_walker(text):
    assert _bulk_edge_list(text) is None
    assert outcome(parse_graph, text) == outcome(_walk_edge_list, text)


def test_parsing_the_grid_runs_few_collector_passes():
    """The adjacency lists become tuples one at a time, each list freed as
    its tuple is made, so parsing allocates about n containers net and
    the cyclic collector runs about n / threshold times, not twice that."""
    text = serialize_graph(generate("grid", {"rows": 200, "cols": 200}))
    passes = []

    def count(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    gc.callbacks.append(count)
    try:
        g = parse_graph(text)
    finally:
        gc.callbacks.remove(count)
    assert len(passes) <= 1.5 * g.n / gc.get_threshold()[0], passes
