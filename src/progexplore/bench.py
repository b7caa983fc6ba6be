"""Benchmark harness: run solver grids over generated instances, emit CSV.

Records are deterministic for a fixed config (timing excluded) and come back
in config order, one per instance x problem cell.
"""
from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass

from .bipartite import SEMILADDER, index_of, materialize
from .errors import InputError, ProgExploreError, ResourceBudgetError
from .formulas import build_delta
from .graph import generate
from .oracles import ImplicitBipartite
from .solvers import (SOLUTION, brute_force_dominating,
                      brute_force_independent, independent_set_solve,
                      semi_ladder_solve)

CSV_COLUMNS = (
    "instance_id", "family", "n", "m", "formula", "k", "r",
    "decision", "rounds", "oracle_calls", "wall_time_s",
    "bound", "bound_respected", "brute_force_agrees", "error",
)
# wall_time_s is the only column golden tests must ignore
TIMING_COLUMNS = ("wall_time_s",)


@dataclass
class BenchRecord:
    instance_id: str
    family: str
    n: int
    m: int
    formula: str
    k: int
    r: int
    decision: str = ""
    rounds: int | None = None
    oracle_calls: str = ""
    wall_time_s: float = 0.0
    bound: int | None = None
    bound_respected: bool | None = None
    brute_force_agrees: bool | None = None
    error: str = ""

    def as_row(self):
        def fmt(x):
            if x is None:
                return ""
            if isinstance(x, bool):
                return "true" if x else "false"
            return str(x)

        return [fmt(getattr(self, col)) for col in CSV_COLUMNS]


def _parse_config(config: dict):
    if not isinstance(config, dict):
        raise InputError("config must be a JSON object")
    for key in ("instances", "problems"):
        if key not in config or not isinstance(config[key], list):
            raise InputError(f"config needs a list under '{key}'")
    flags = []
    for key in ("cross_validate", "bound_check"):
        value = config.get(key, False)
        if not isinstance(value, bool):
            raise InputError(f"config '{key}' must be true or false")
        flags.append(value)
    budget = config.get("materialize_budget", 100_000)
    if not isinstance(budget, int) or isinstance(budget, bool):
        raise InputError("config 'materialize_budget' must be an integer")
    return config["instances"], config["problems"], *flags, budget


def _run_one(idx, inst, prob, cross_validate, bound_check, mat_budget):
    rec = BenchRecord(instance_id=f"i{idx}", family="?", n=0, m=0,
                      formula="", k=0, r=0)
    try:
        if not isinstance(inst, dict) or not isinstance(prob, dict):
            raise InputError("instance and problem entries must be objects")
        family = inst.get("family", "?")
        seed = inst.get("seed", 0)
        kind = prob.get("kind", "domset")
        k, r = prob.get("k", 1), prob.get("r", 1)
        if not isinstance(kind, str) or not all(
                isinstance(v, int) and not isinstance(v, bool) for v in (k, r)):
            raise InputError("a problem needs a string 'kind' and integer "
                             "'k' and 'r'")
        rec.instance_id = f"{family}-s{seed}-i{idx}-{kind}-k{k}-r{r}"
        rec.family, rec.k, rec.r = family, k, r
        rec.formula = (f"delta(k={k},r={r})" if kind == "domset"
                       else f"eta(r={r})")
        g = generate(family, inst.get("params", {}), seed=seed)
        rec.n, rec.m = g.n, g.m
        start = time.perf_counter()
        if kind == "domset":
            ib = ImplicitBipartite(g, build_delta(k, r))
            decision = semi_ladder_solve(ib)
            rec.decision = decision.kind
            rec.rounds = decision.transcript.rounds
            rec.oracle_calls = ";".join(
                f"{name}={cnt}" for name, cnt in
                sorted(decision.transcript.oracle_calls.items()))
        elif kind == "indep":
            decision = independent_set_solve(g, k, r)
            rec.decision = decision.kind
            rec.rounds = 0
        else:
            raise InputError(f"unknown problem kind '{kind}'")
        rec.wall_time_s = time.perf_counter() - start
        if cross_validate:
            if kind == "domset":
                ref = brute_force_dominating(g, k, r)
            else:
                ref = brute_force_independent(g, k, r)
            rec.brute_force_agrees = (
                (ref is not None) == (rec.decision == SOLUTION))
        if bound_check and kind == "domset":
            if g.n ** (k + 1) <= mat_budget:
                h = materialize(g, build_delta(k, r),
                                pair_budget=mat_budget)
                rec.bound, _ = index_of(h, SEMILADDER)
                rec.bound_respected = rec.rounds <= rec.bound
    except ResourceBudgetError as exc:
        rec.decision = "RESOURCE"
        rec.error = str(exc)
    except ProgExploreError as exc:
        rec.decision = "ERROR"
        rec.error = str(exc)
    return rec


def run_bench(config: dict) -> list:
    """Execute the config's instance x problem grid, in config order."""
    instances, problems, cross_validate, bound_check, mat_budget = \
        _parse_config(config)
    return [_run_one(idx, inst, prob, cross_validate, bound_check, mat_budget)
            for idx, inst in enumerate(instances)
            for prob in problems]


def records_to_csv(records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow(rec.as_row())
    return buf.getvalue()
