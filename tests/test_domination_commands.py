"""`solve-domset` is `solve-domset-formula` on delta(k, r).

The golden cases pin the exact `pe/1` stdout, stderr and exit code of both
domination subcommands; the equivalence cases run both on the same graphs
and compare every field of the decision."""
import json

import pytest

from progexplore import (build_delta, build_eta, cli_main, generate,
                         serialize_formula, serialize_graph)
from progexplore.graph import Graph


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


@pytest.fixture
def files(tmp_path):
    texts = {
        "p4.txt": serialize_graph(path_graph(4)),
        "p5.txt": serialize_graph(path_graph(5)),
        "d21.json": serialize_formula(build_delta(2, 1)),
        "d11.json": serialize_formula(build_delta(1, 1)),
        "d61.json": serialize_formula(build_delta(6, 1)),
        "eta.json": serialize_formula(build_eta(2, 1)),
    }
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    return tmp_path


def run(capsys, argv):
    code = cli_main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _missing(name):
    return f"error: [Errno 2] No such file or directory: '{name}'\n"


GOLDEN = [
    (["solve-domset", "--graph", "p4.txt", "--k", "2", "--r", "1"], 0,
     '{"schema": "pe/1", "command": "solve-domset", "k": 2, "r": 1, '
     '"decision": "SOLUTION", "rounds": 2, "oracle_calls": {"candidate": 3, '
     '"weak_witness": 3}, "solution": [0, 2], "verified": true}\n', ""),
    (["solve-domset", "--graph", "p4.txt", "--k", "1", "--r", "1"], 1,
     '{"schema": "pe/1", "command": "solve-domset", "k": 1, "r": 1, '
     '"decision": "NO_SOLUTION", "rounds": 3, "oracle_calls": '
     '{"candidate": 4, "weak_witness": 3}, "witnesses": [[2], [3], [0]]}\n',
     ""),
    # the solver's tuple repeats vertex 0; the command prints each once
    (["solve-domset", "--graph", "p5.txt", "--k", "1500", "--r", "1"], 0,
     '{"schema": "pe/1", "command": "solve-domset", "k": 1500, "r": 1, '
     '"decision": "SOLUTION", "rounds": 3, "oracle_calls": {"candidate": 4, '
     '"weak_witness": 4}, "solution": [0, 3], "verified": true}\n', ""),
    (["solve-domset", "--graph", "nope.txt", "--k", "1", "--r", "1"], 2,
     "", _missing("nope.txt")),
    (["solve-domset", "--graph", "p4.txt", "--k", "0", "--r", "1"], 2,
     "", "error: need k >= 1 (an empty disjunction is just False)\n"),
    # the graph is read before the formula is built
    (["solve-domset", "--graph", "nope.txt", "--k", "0", "--r", "1"], 2,
     "", _missing("nope.txt")),
    (["solve-domset-formula", "--graph", "p4.txt", "--formula", "d21.json"],
     0, '{"schema": "pe/1", "command": "solve-domset-formula", '
     '"decision": "SOLUTION", "rounds": 2, "oracle_calls": {"candidate": 3, '
     '"weak_witness": 3}, "solution": [0, 2], "verified": true}\n', ""),
    (["solve-domset-formula", "--graph", "p4.txt", "--formula", "d11.json"],
     1, '{"schema": "pe/1", "command": "solve-domset-formula", '
     '"decision": "NO_SOLUTION", "rounds": 3, "oracle_calls": '
     '{"candidate": 4, "weak_witness": 3}, "witnesses": [[2], [3], [0]]}\n',
     ""),
    # the formula command prints the solver's tuple as it is
    (["solve-domset-formula", "--graph", "p5.txt", "--formula", "d61.json"],
     0, '{"schema": "pe/1", "command": "solve-domset-formula", '
     '"decision": "SOLUTION", "rounds": 3, "oracle_calls": {"candidate": 4, '
     '"weak_witness": 4}, "solution": [0, 0, 0, 0, 0, 3], "verified": true}'
     '\n', ""),
    (["solve-domset-formula", "--graph", "p4.txt", "--formula", "eta.json"],
     2, "", "error: domination-type solving needs a positive formula "
     "(no negation)\n"),
    (["solve-domset-formula", "--graph", "nope.txt", "--formula",
      "eta.json"], 2, "", _missing("nope.txt")),
    (["solve-domset-formula", "--graph", "p4.txt", "--formula", "nope.txt"],
     2, "", _missing("nope.txt")),
]


@pytest.mark.parametrize("argv, code, out, err", GOLDEN,
                         ids=lambda v: " ".join(v) if isinstance(v, list)
                         else None)
def test_golden_output(files, capsys, argv, code, out, err):
    prefix = f"{files}/"
    argv = [prefix + a if a.endswith((".txt", ".json")) else a
            for a in argv]
    got_code, got_out, got_err = run(capsys, argv)
    assert (got_code, got_out, got_err.replace(prefix, "")) == (
        code, out, err)


GRAPHS = [
    ("grid 3x4", generate("grid", {"rows": 3, "cols": 4})),
    ("grid 4x4", generate("grid", {"rows": 4, "cols": 4})),
    ("cycle 7", generate("cycle", {"n": 7})),
    ("cycle 10", generate("cycle", {"n": 10})),
    ("tree 9", generate("tree", {"n": 9}, seed=1)),
    ("tree 12", generate("tree", {"n": 12}, seed=2)),
    ("path 6", generate("path", {"n": 6})),
    ("path 9", generate("path", {"n": 9})),
]
KR = [(1, 1), (2, 1), (2, 2)]


def test_domset_is_formula_on_delta(tmp_path, capsys):
    """24 pairs of runs agree field by field, and both decisions occur."""
    decisions = set()
    for label, g in GRAPHS:
        gf = tmp_path / "g.txt"
        gf.write_text(serialize_graph(g))
        for k, r in KR:
            ff = tmp_path / f"delta_{k}_{r}.json"
            ff.write_text(serialize_formula(build_delta(k, r)))
            code, out, _ = run(capsys, ["solve-domset", "--graph", str(gf),
                                        "--k", str(k), "--r", str(r)])
            f_code, f_out, _ = run(capsys, ["solve-domset-formula",
                                            "--graph", str(gf),
                                            "--formula", str(ff)])
            plain, formula = json.loads(out), json.loads(f_out)
            assert code == f_code, (label, k, r)
            for key in ("decision", "rounds", "oracle_calls", "witnesses"):
                assert plain.get(key) == formula.get(key), (label, k, r, key)
            if "solution" in formula:
                assert plain["solution"] == sorted(set(formula["solution"]))
            decisions.add(plain["decision"])
    assert decisions == {"SOLUTION", "NO_SOLUTION"}


def test_verifier_runs_one_bfs_per_distinct_vertex(files, capsys,
                                                   monkeypatch):
    """The `--k 1500` solution repeats vertex 0; it is checked with one
    BFS from each of its two distinct vertices."""
    from progexplore import cli
    sources = []

    def counting(g, v, cap, **kw):
        sources.append(v)
        return real(g, v, cap, **kw)

    real = cli.bfs_capped
    monkeypatch.setattr(cli, "bfs_capped", counting)
    code, out, _ = run(capsys, ["solve-domset", "--graph",
                                str(files / "p5.txt"), "--k", "1500",
                                "--r", "1"])
    assert code == 0 and json.loads(out)["solution"] == [0, 3]
    assert sorted(sources) == [0, 3]
