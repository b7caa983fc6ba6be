"""Canonical edge-list files take a bulk path that checks the whole text at
once and hands anything it doubts to the line walker.  Against the walker
alone, on canonical files and on edited copies of them, it must give the
same graph or the same ParseError, message and line alike."""
import random
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from progexplore import Graph, ParseError, parse_graph
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
    kind = rng.randrange(10)
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
    else:  # the edge count in the header off by one, or far too large
        words = lines[0].split()
        if words and words[-1].isascii() and words[-1].isdigit():
            words[-1] = str(int(words[-1]) + rng.choice((-1, 1, 10 ** 20)))
            lines[0] = " ".join(words)
    return lines


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
