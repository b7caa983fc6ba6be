"""Every subcommand driven in-process through ``cli_main`` with malformed
graph, formula, bipartite and config files and with out-of-range or
missing params.  Whatever the input, the exit code is one of the
documented five, no traceback reaches stderr, and exit 1 comes only with a
``pe/1`` payload that carries a negative decision.

Sizes stay small (at most 10 vertices in a file, n <= 50 for a
generator), so no example takes long or allocates much."""
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from progexplore import (GENERATOR_FAMILIES, NO_SOLUTION, NOT_EXISTS,
                         cli_main)

# Each draw is well formed most of the time, so that about half of the
# examples get past the parsers into the solvers.


def mostly(good, bad):
    """``good`` nine times in ten, else ``bad``."""
    return st.integers(0, 9).flatmap(lambda i: bad if i == 9 else good)


def count(low, high):
    """Mostly a count in [low, high]; else one or two below it."""
    return mostly(st.integers(low, high), st.integers(low - 2, low - 1))


def rarely(draw):
    return draw(st.integers(0, 19)) == 19


TOKEN = st.sampled_from(["", "x", "1.5", "+1", "0x1", "1_0", "\u0663", "-0",
                         "01", "-1", "99", "1e1"])


def lines_text(draw, header, body):
    """``header`` and ``body`` (lists of token lists) as text.  Sometimes
    one token is broken, a token is added, a blank or comment line is
    inserted, or the line ends are odd."""
    rows = [header] + body
    if rarely(draw):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(TOKEN)
    if rarely(draw):
        draw(st.sampled_from(rows)).append(draw(TOKEN))
    lines = [" ".join(toks) for toks in rows]
    if rarely(draw):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", "  ", "# x", "c x"])))
    end = draw(mostly(st.just("\n"), st.sampled_from(["\r\n", "\n\n",
                                                    "\t\n"])))
    return end.join(lines) + draw(st.sampled_from(["\n", ""]))


def edges(draw, n, base=0):
    """Mostly distinct edges between ids of ``range(base, n + base)``."""
    ids = mostly(st.integers(base, n - 1 + base),
                 st.integers(base - 1, n + base)) if n > 1 \
        else st.integers(0, 1)
    return [[str(u), str(v)] for u, v in draw(
        st.lists(st.tuples(ids, ids), max_size=12,
                 unique_by=lambda e: frozenset(e)))]


def edge_counts(m):
    return mostly(st.just(m), st.sampled_from([m - 1, m + 1]))


@st.composite
def edge_list_texts(draw):
    n = draw(count(1, 10))
    body = edges(draw, max(n, 0))
    header = [str(n), str(draw(edge_counts(len(body))))]
    return lines_text(draw, header, body)


@st.composite
def dimacs_texts(draw):
    n = draw(count(1, 10))
    body = [["e", *e] for e in edges(draw, max(n, 0), base=1)]
    header = ["p", draw(mostly(st.just("edge"), st.just("col"))), str(n),
              str(draw(edge_counts(len(body))))]
    if rarely(draw):
        body.insert(0, list(header))  # a duplicate problem line
    return lines_text(draw, header, body)


@st.composite
def bipartite_texts(draw):
    left, right = draw(count(1, 6)), draw(count(1, 6))
    body = [[str(a), str(b)] for a, b in draw(st.lists(
        st.tuples(count(0, max(left - 1, 0)), count(0, max(right - 1, 0))),
        max_size=10))]
    header = [str(left), str(right), str(draw(edge_counts(len(body))))]
    return lines_text(draw, header, body)


ODD_VALUES = st.sampled_from([None, "1", 1.5, True, [], {}])


def formula_nodes(c, d, depth=2):
    atom = st.fixed_dictionaries({"atom": st.fixed_dictionaries(
        {"q": count(0, 4), "x": count(0, max(c - 1, 0)),
         "y": count(0, max(d - 1, 0))})})
    odd = st.one_of(ODD_VALUES, st.dictionaries(
        st.sampled_from(["atom", "and", "nand"]), atom, max_size=2))
    if depth == 0:
        return mostly(atom, odd)
    sub = formula_nodes(c, d, depth - 1)
    return mostly(st.one_of(
        atom,
        st.fixed_dictionaries({"or": st.lists(sub, min_size=1,
                                              max_size=3)}),
        st.fixed_dictionaries({"and": st.lists(sub, min_size=1,
                                               max_size=3)}),
        st.fixed_dictionaries({"not": sub})),
        st.one_of(odd, st.fixed_dictionaries({"or": st.just([])})))


@st.composite
def formula_texts(draw):
    c, d = draw(count(1, 2)), draw(st.integers(1, 2))
    obj = {"c": c, "d": d, "node": draw(formula_nodes(c, d))}
    if rarely(draw):
        obj[draw(st.sampled_from(["c", "d"]))] = draw(ODD_VALUES)
    if rarely(draw):
        del obj[draw(st.sampled_from(["c", "d", "node"]))]
    text = json.dumps(obj)
    if rarely(draw):  # cut the JSON short or append junk
        cut = draw(st.integers(0, len(text)))
        text = text[:cut] + draw(st.sampled_from(["", "}", ",", "x"]))
    return text


SIZE = mostly(st.one_of(st.integers(1, 7), st.integers(8, 50)),
              st.one_of(st.integers(-1, 0), ODD_VALUES))
# the params each generator requires, and the optional ones
NEEDS = {"grid": ["rows", "cols"], "path": ["n"], "cycle": ["n"],
         "star": ["n"], "tree": ["n"], "bounded_degree_random":
         ["n", "max_degree"], "complete_bipartite": ["a", "b"],
         "ktt_free_random": ["n", "t"], "power_of": ["s"],
         "half_square_of_planar_bipartite": ["rows", "cols"]}
OPTIONAL = ["max_depth", "m", "seed"]


@st.composite
def generator_params(draw, depth=1):
    family = draw(mostly(st.sampled_from(GENERATOR_FAMILIES),
                         st.just("moebius")))
    on_grid = family in ("grid", "half_square_of_planar_bipartite")
    dims = count(1, 7) if on_grid else SIZE  # rows and cols multiply
    params = {key: draw(dims) for key in NEEDS.get(family, ["n"])}
    if family == "power_of":
        inner_family, inner = draw(generator_params(depth - 1)) if depth \
            else ("path", {"n": 3})
        params.update(family=inner_family, params=inner)
    for key in draw(st.lists(st.sampled_from(OPTIONAL), max_size=2)):
        params[key] = draw(SIZE)
    if rarely(draw):
        del params[draw(st.sampled_from(sorted(params)))]
    return family, params


def option(draw, name, values, argv):
    """Append ``--name value`` to ``argv`` unless the draw leaves it out."""
    if not rarely(draw):
        argv += [name, str(draw(values))]


@st.composite
def invocations(draw, command, folder):
    """An argv for ``command`` and the files it names, written to
    ``folder``."""
    files = {}

    def file_arg(name, text, suffix=".txt"):
        if not rarely(draw):  # else a path that does not exist
            files[name + suffix] = text
        return ["--" + name, os.path.join(folder, name + suffix)]

    def graph_arg():
        if not rarely(draw):
            return file_arg("graph", draw(edge_list_texts()))
        return file_arg("graph", draw(dimacs_texts()), ".col")

    argv = [command]
    if command in ("solve-domset", "solve-domset-formula", "solve-indep",
                   "coverage-core", "measure-profiles"):
        argv += graph_arg()
    if command in ("solve-domset-formula", "coverage-core"):
        argv += file_arg("formula", draw(formula_texts()))
    if command == "solve-domset":
        option(draw, "--k", count(1, 3), argv)
        option(draw, "--r", count(0, 4), argv)
    if command in ("solve-domset", "solve-domset-formula") and rarely(draw):
        argv += ["--max-rounds", str(draw(count(1, 3)))]
    if command == "solve-indep":
        option(draw, "--k", count(1, 4), argv)
        option(draw, "--r", count(0, 4), argv)
        if rarely(draw):
            argv += ["--strategy", draw(st.sampled_from(
                ["bfs_center", "connector_echo", "spin"]))]
        for name in ("--depth-budget", "--work-budget", "--node-budget"):
            if rarely(draw):
                argv += [name, str(draw(count(1, 6)))]
    if command == "measure-indices":
        argv += file_arg("bipartite", draw(bipartite_texts()))
    if command == "measure-profiles":
        option(draw, "--r", count(0, 4), argv)
        option(draw, "--m", count(0, 3), argv)
        option(draw, "--trials", count(1, 3), argv)
        if rarely(draw):
            argv += ["--seed", str(draw(st.integers(-1, 3)))]
    if command == "generate":
        family, params = draw(generator_params())
        argv += ["--family", family, "--params", draw(mostly(
            st.just(json.dumps(params)), st.sampled_from(["{", "[]"])))]
        if rarely(draw):
            argv += ["--seed", str(draw(st.integers(-1, 3)))]
        if draw(st.booleans()):
            argv += ["--out", os.path.join(folder, "out.txt")]
    if command == "bench":
        instances = [{"family": family, "params": params}
                     for family, params in draw(st.lists(
                         generator_params(depth=0), max_size=2))]
        problems = draw(st.lists(st.fixed_dictionaries({
            "kind": mostly(st.sampled_from(["domset", "indep"]),
                           st.just("cover")),
            "k": mostly(count(1, 2), ODD_VALUES),
            "r": mostly(count(0, 2), ODD_VALUES)}), max_size=2))
        config = {"instances": instances, "problems": problems,
                  "cross_validate": draw(mostly(st.booleans(), ODD_VALUES)),
                  "materialize_budget": draw(mostly(st.just(1000),
                                                    st.just("9")))}
        text = draw(mostly(st.just(json.dumps(config)),
                           st.sampled_from(["{oops", "[]"])))
        argv += file_arg("config", text, ".json")
        if draw(st.booleans()):
            argv += ["--out", os.path.join(folder, "out.csv")]
    if rarely(draw):  # an option the command does not take
        argv.append(draw(st.sampled_from(["--bogus", "-x", "7", "--k"])))
    return argv, files


COMMANDS = ["solve-domset", "solve-domset-formula", "solve-indep",
            "coverage-core", "measure-indices", "measure-profiles",
            "generate", "bench"]


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_malformed_input_never_crashes_or_fakes_a_decision(command, data):
    with tempfile.TemporaryDirectory() as folder:
        argv, files = data.draw(invocations(command, folder))
        for name, text in files.items():
            with open(os.path.join(folder, name), "w",
                      encoding="utf-8") as fh:
                fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main(argv)
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        payload = json.loads(out.getvalue())
        assert payload["schema"] == "pe/1"
        assert payload["command"] == command
        assert payload["decision"] in (NO_SOLUTION, NOT_EXISTS)
