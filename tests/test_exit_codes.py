"""Exit codes of the CLI and the per-cell error contract of the bench grid:
malformed input exits 2, a broken internal invariant exits 4, and a bad grid
cell is recorded as ERROR while the rest of the grid still runs."""
import json

import pytest

from progexplore import (SOLUTION, Decision, Graph, RunTranscript, cli_main,
                         run_bench, serialize_graph)
from progexplore import cli


@pytest.fixture
def p4(tmp_path):
    f = tmp_path / "p4.txt"
    f.write_text(serialize_graph(
        Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])))
    return str(f)


def test_bench_invalid_json_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bench.json"
    cfg.write_text("{oops")
    code = cli_main(["bench", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: invalid JSON")
    assert "(line 1)" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("bad", [
    {"kind": "domset", "k": "a", "r": 1},
    {"kind": "domset", "k": 1, "r": None},
    {"kind": "domset", "k": True, "r": 1},
    {"kind": 3, "k": 1, "r": 1},
    "oops",
])
def test_bench_bad_problem_recorded_and_the_rest_runs(bad):
    records = run_bench({
        "instances": [{"family": "path", "params": {"n": 4}}],
        "problems": [bad, {"kind": "domset", "k": 1, "r": 1}],
    })
    assert [rec.decision for rec in records] == ["ERROR", "NO_SOLUTION"]
    assert records[0].error
    assert records[1].instance_id == "path-s0-i0-domset-k1-r1"


def test_bench_non_object_instance_recorded_and_the_rest_runs():
    records = run_bench({
        "instances": ["oops", {"family": "path", "params": {"n": 4}}],
        "problems": [{"kind": "domset", "k": 2, "r": 1}],
    })
    assert [rec.decision for rec in records] == ["ERROR", SOLUTION]
    assert "must be objects" in records[0].error


def test_bench_workers_key_is_ignored():
    config = {"instances": [{"family": "path", "params": {"n": 4}}],
              "problems": [{"kind": "domset", "k": 2, "r": 1}]}
    plain = run_bench(config)
    for workers in (4, "x"):
        records = run_bench({**config, "workers": workers})
        assert [r.decision for r in records] == [r.decision for r in plain]


def test_failed_verification_is_internal_error(p4, monkeypatch, capsys):
    # vertex 0 alone does not 1-dominate the path 0-1-2-3
    monkeypatch.setattr(cli, "semi_ladder_solve", lambda ib, max_rounds:
                        Decision(SOLUTION, (0,), RunTranscript()))
    code = cli_main(["solve-domset", "--graph", p4, "--k", "1", "--r", "1"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL == 4
    assert captured.out == ""
    assert captured.err == ("internal error: solution failed "
                            "verification\n")



@pytest.fixture
def p5(tmp_path):
    f = tmp_path / "p5.txt"
    f.write_text(serialize_graph(
        Graph.from_edges(5, [(i, i + 1) for i in range(4)])))
    return str(f)


def test_large_k_is_solved_without_recursion(p5, capsys):
    # the covering search visits one position per candidate variable, and
    # k = 1500 or 5000 is past the interpreter's default recursion limit
    for k in ("1500", "5000"):
        code = cli_main(["solve-domset", "--graph", p5, "--k", k,
                         "--r", "1"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_OK
        assert captured.err == ""
        out = json.loads(captured.out)
        assert out["decision"] == SOLUTION and out["verified"] is True


def test_unexpected_exception_is_internal_error(p4, monkeypatch, capsys):
    def broken(ib, max_rounds):
        raise KeyError("lost")

    monkeypatch.setattr(cli, "semi_ladder_solve", broken)
    code = cli_main(["solve-domset", "--graph", p4, "--k", "1", "--r", "1"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL
    assert captured.out == ""
    assert captured.err == "internal error: KeyError: 'lost'\n"


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_measure_profiles_without_trials_is_usage_error(tmp_path, capsys,
                                                         trials):
    f = tmp_path / "p100.txt"
    f.write_text(serialize_graph(
        Graph.from_edges(100, [(i, i + 1) for i in range(99)])))
    code = cli_main(["measure-profiles", "--graph", str(f), "--r", "1",
                     "--m", "4", "--trials", trials])
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith("error: trials must be >= 1")
