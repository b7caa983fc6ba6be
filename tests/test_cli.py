import json
import re
from itertools import combinations

import pytest

from progexplore import (TIMING_COLUMNS, bfs_capped, build_delta, cli_main,
                         generate, records_to_csv, run_bench,
                         serialize_bipartite, serialize_formula,
                         serialize_graph)
from progexplore.bipartite import BipartiteGraph
from progexplore.cli import _verify_dominating
from progexplore.graph import Graph


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


@pytest.fixture
def p4(tmp_path):
    f = tmp_path / "p4.txt"
    f.write_text(serialize_graph(path_graph(4)))
    return str(f)


@pytest.fixture
def c5(tmp_path):
    g = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    f = tmp_path / "c5.txt"
    f.write_text(serialize_graph(g))
    return str(f)


def run(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr().out
    return code, out


def payload(out):
    data = json.loads(out)
    assert data["schema"] == "pe/1"
    return data


# --- solve-domset -------------------------------------------------------------

def test_domset_negative(p4, capsys):
    code, out = run(capsys, "solve-domset", "--graph", p4, "--k", "1", "--r", "1")
    data = payload(out)
    assert code == 1 and data["decision"] == "NO_SOLUTION"
    assert data["witnesses"]


def test_domset_positive_verified(p4, capsys):
    code, out = run(capsys, "solve-domset", "--graph", p4, "--k", "2", "--r", "1")
    data = payload(out)
    assert code == 0 and data["decision"] == "SOLUTION"
    assert data["verified"] is True
    assert sorted(data["solution"]) == data["solution"]


def test_verify_dominating_matches_per_vertex_check():
    """One multi-source BFS gives the verdict of one BFS per member."""
    for g in (path_graph(7), generate("grid", {"rows": 3, "cols": 4}),
              generate("tree", {"n": 9}, seed=3),
              Graph.from_edges(6, [(0, 1), (2, 3)])):
        for r in range(3):
            for k in range(3):
                for sol in combinations(range(g.n), k):
                    dists = [bfs_capped(g, v, r) for v in sol]
                    want = all(any(d[u] <= r for d in dists)
                               for u in range(g.n))
                    assert _verify_dominating(g, sol, r) is want


def test_domset_missing_graph(tmp_path, capsys):
    code, _ = run(capsys, "solve-domset", "--graph",
                  str(tmp_path / "nope.txt"), "--k", "1", "--r", "1")
    assert code == 2


def test_domset_malformed_graph(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a graph")
    code, _ = run(capsys, "solve-domset", "--graph", str(bad),
                  "--k", "1", "--r", "1")
    assert code == 2


def test_dimacs_extension_accepted(tmp_path, capsys):
    f = tmp_path / "p3.col"
    f.write_text("c tiny\np edge 3 2\ne 1 2\ne 2 3\n")
    code, out = run(capsys, "solve-domset", "--graph", str(f),
                    "--k", "1", "--r", "1")
    assert code == 0 and payload(out)["solution"] == [1]


# --- solve-domset-formula -----------------------------------------------------

def test_formula_flow(p4, tmp_path, capsys):
    ff = tmp_path / "delta21.json"
    ff.write_text(serialize_formula(build_delta(2, 1)))
    code, out = run(capsys, "solve-domset-formula", "--graph", p4,
                    "--formula", str(ff))
    assert code == 0 and payload(out)["decision"] == "SOLUTION"


def test_formula_must_be_positive(p4, tmp_path, capsys):
    from progexplore import build_eta
    ff = tmp_path / "eta.json"
    ff.write_text(serialize_formula(build_eta(2, 1)))
    code, _ = run(capsys, "solve-domset-formula", "--graph", p4,
                  "--formula", str(ff))
    assert code == 2


# --- solve-indep --------------------------------------------------------------

def test_indep_negative(c5, capsys):
    code, out = run(capsys, "solve-indep", "--graph", c5, "--k", "2", "--r", "2")
    data = payload(out)
    assert code == 1 and data["decision"] == "NO_SOLUTION"
    assert "core" in data


def test_indep_positive(p4, capsys):
    code, out = run(capsys, "solve-indep", "--graph", p4, "--k", "2", "--r", "1")
    data = payload(out)
    assert code == 0 and data["solution"] == [0, 2]


def test_indep_unknown_strategy_is_usage_error(p4, capsys):
    code, _ = run(capsys, "solve-indep", "--graph", p4, "--k", "2",
                  "--r", "1", "--strategy", "psychic")
    assert code == 2


# --- coverage-core / measure-* ------------------------------------------------

def test_coverage_core_cmd(p4, tmp_path, capsys):
    ff = tmp_path / "delta11.json"
    ff.write_text(serialize_formula(build_delta(1, 1)))
    code, out = run(capsys, "coverage-core", "--graph", p4,
                    "--formula", str(ff))
    data = payload(out)
    assert code == 0 and data["size"] == len(data["core"])


def test_measure_indices_ladder4(tmp_path, capsys):
    h = BipartiteGraph.from_edges(
        4, 4, [(i, j) for i in range(4) for j in range(4) if i > j])
    f = tmp_path / "ladder4.txt"
    f.write_text(serialize_bipartite(h))
    code, out = run(capsys, "measure-indices", "--bipartite", str(f))
    data = payload(out)
    assert code == 0
    assert data["ladder"] == 4 and data["semiladder"] == 4
    assert len(data["ladder_witness"]["a"]) == 4


def test_measure_profiles_cmd(p4, capsys):
    code, out = run(capsys, "measure-profiles", "--graph", p4,
                    "--r", "1", "--m", "2")
    data = payload(out)
    assert code == 0 and data["exact"] is True and data["count"] >= 2


# --- generate -----------------------------------------------------------------

def test_generate_to_file(tmp_path, capsys):
    out_file = tmp_path / "grid.txt"
    code, out = run(capsys, "generate", "--family", "grid",
                    "--params", '{"rows":2,"cols":3}', "--out", str(out_file))
    data = payload(out)
    assert code == 0 and data["n"] == 6
    assert out_file.read_text().startswith("6 7\n")


def test_generate_bad_params(capsys):
    code, _ = run(capsys, "generate", "--family", "grid", "--params", "{oops")
    assert code == 2


def test_unknown_subcommand(capsys):
    assert cli_main(["frobnicate"]) == 2


# --- bench --------------------------------------------------------------------

BENCH_CONFIG = {
    "instances": [
        {"family": "path", "params": {"n": 6}, "seed": 0},
        {"family": "grid", "params": {"rows": 2, "cols": 3}, "seed": 1},
    ],
    "problems": [
        {"kind": "domset", "k": 2, "r": 1},
        {"kind": "indep", "k": 2, "r": 2},
    ],
    "cross_validate": True,
    "bound_check": True,
}


def strip_timing(csv_text):
    import csv
    import io
    rows = list(csv.reader(io.StringIO(csv_text)))
    keep = [i for i, col in enumerate(rows[0]) if col not in TIMING_COLUMNS]
    return [[row[i] for i in keep] for row in rows]


def test_bench_records_and_flags():
    records = run_bench(BENCH_CONFIG)
    assert len(records) == 4
    for rec in records:
        assert rec.error == ""
        assert rec.brute_force_agrees is True
        if rec.bound is not None:
            assert rec.bound_respected is True


def test_bench_deterministic_modulo_timing():
    a = strip_timing(records_to_csv(run_bench(BENCH_CONFIG)))
    b = strip_timing(records_to_csv(run_bench(BENCH_CONFIG)))
    assert a == b


def test_bench_workers_preserve_order():
    seq = records_to_csv(run_bench(BENCH_CONFIG))
    par = records_to_csv(run_bench({**BENCH_CONFIG, "workers": 4}))
    assert strip_timing(seq) == strip_timing(par)


def test_bench_bad_kind_recorded_not_fatal():
    cfg = {"instances": [{"family": "path", "params": {"n": 4}}],
           "problems": [{"kind": "mystery"}]}
    records = run_bench(cfg)
    assert len(records) == 1 and records[0].decision == "ERROR"


def test_bench_cli_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps(BENCH_CONFIG))
    out_file = tmp_path / "out.csv"
    code, out = run(capsys, "bench", "--config", str(cfg),
                    "--out", str(out_file))
    data = payload(out)
    assert code == 0 and data["records"] == 4
    text = out_file.read_text()
    assert text.startswith("instance_id,family,n,m,")
    assert len(text.strip().split("\n")) == 5


def test_bench_csv_to_stdout(tmp_path, capsys):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"instances": [{"family": "path",
                                              "params": {"n": 5}}],
                               "problems": [{"kind": "domset",
                                             "k": 1, "r": 2}]}))
    code, out = run(capsys, "bench", "--config", str(cfg))
    assert code == 0
    assert re.match(r"instance_id,", out)
    assert "SOLUTION" in out
