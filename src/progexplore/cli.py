"""Command-line front end.

Machine-readable JSON (schema "pe/1") goes to stdout, diagnostics to stderr.
Exit codes: 0 = solved/measured, 1 = a negative decision (still a success,
distinguished in the payload), 2 = usage error, 3 = resource budget hit,
4 = internal error (a failed verification, a broken invariant or any other
unexpected exception; never bad input, not even too deeply nested JSON).
"""
from __future__ import annotations

import argparse
import json
import sys
from itertools import product

from .bench import records_to_csv, run_bench
from .bipartite import OBSTRUCTION_KINDS, index_of, parse_bipartite
from .errors import (InputError, InternalInvariantError, ResourceBudgetError,
                     read_json)
from .formulas import (DistanceMatrix, build_delta, evaluate, parse_formula)
from .graph import (GENERATOR_FAMILIES, bfs_capped, generate, parse_dimacs,
                    parse_graph, serialize_graph)
from .oracles import ImplicitBipartite
from .profiles import measure_profile_complexity
from .solvers import (DEFAULT_NODE_BUDGET, DEFAULT_STRATEGY,
                      DEFAULT_WORK_BUDGET, SOLUTION, STRATEGIES,
                      close_pairs, coverage_core, independent_set_solve,
                      semi_ladder_solve)

SCHEMA = "pe/1"

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_graph(path: str):
    text = _read_text(path)
    if path.endswith(".col"):
        return parse_dimacs(text)
    return parse_graph(text)


def _emit(args, payload: dict) -> None:
    payload = {"schema": SCHEMA, "command": args.command, **payload}
    json.dump(payload, sys.stdout)
    sys.stdout.write("\n")


def _verify_independent(g, solution, r) -> bool:
    return not close_pairs(g, sorted(solution), r)


def _verify_formula_solution(g, f, a) -> bool:
    """Whether ``a`` agrees with every witness tuple.  One BFS per distinct
    vertex of ``a``; a witness vertex enters the matrix only through its
    column of distances to those vertices, so each tuple of distinct
    columns, one distinct matrix, is judged once."""
    r = f.radius()
    pos = {s: i for i, s in enumerate(dict.fromkeys(a))}
    dists = [bfs_capped(g, s, r) for s in pos]
    at = [pos[x] for x in a]
    columns = dict.fromkeys(tuple(d[v] for d in dists) for v in range(g.n))
    for cols in product(columns, repeat=f.d):
        rows = tuple(zip(*cols))  # one row per distinct vertex of a
        if not evaluate(f, DistanceMatrix(r, tuple(rows[i] for i in at))):
            return False
    return True


def _cmd_solve_domset(args) -> int:
    g = _load_graph(args.graph)
    return _solve_domination(args, g, build_delta(args.k, args.r),
                             {"k": args.k, "r": args.r},
                             lambda a: sorted(set(a)))


def _cmd_solve_domset_formula(args) -> int:
    g = _load_graph(args.graph)
    f = parse_formula(_read_text(args.formula))
    if not f.is_positive():
        raise InputError(
            "domination-type solving needs a positive formula (no negation)")
    return _solve_domination(args, g, f, {}, list)


def _solve_domination(args, g, f, payload, solution_form) -> int:
    """Run the semi-ladder solver for formula ``f`` on ``g`` and emit its
    decision after ``payload``; a SOLUTION is checked against every
    witness and printed through ``solution_form``."""
    decision = semi_ladder_solve(ImplicitBipartite(g, f),
                                 max_rounds=args.max_rounds)
    payload.update(decision=decision.kind,
                   rounds=decision.transcript.rounds,
                   oracle_calls=decision.transcript.oracle_calls)
    if decision.kind == SOLUTION:
        if not _verify_formula_solution(g, f, decision.payload):
            raise InternalInvariantError("solution failed verification")
        payload["solution"] = solution_form(decision.payload)
        payload["verified"] = True
        _emit(args, payload)
        return EXIT_OK
    payload["witnesses"] = [list(b) for b in decision.payload]
    _emit(args, payload)
    return EXIT_NEGATIVE


def _cmd_solve_indep(args) -> int:
    g = _load_graph(args.graph)
    decision = independent_set_solve(
        g, args.k, args.r, strategy=args.strategy,
        depth_budget=args.depth_budget, work_budget=args.work_budget,
        node_budget=args.node_budget)
    payload = {"k": args.k, "r": args.r, "decision": decision.kind}
    if decision.kind == SOLUTION:
        if not _verify_independent(g, decision.payload, args.r):
            raise InternalInvariantError("solution failed verification")
        payload["solution"] = sorted(decision.payload)
        payload["verified"] = True
        _emit(args, payload)
        return EXIT_OK
    payload["core"] = sorted(decision.payload)
    _emit(args, payload)
    return EXIT_NEGATIVE


def _cmd_coverage_core(args) -> int:
    g = _load_graph(args.graph)
    f = parse_formula(_read_text(args.formula))
    core = coverage_core(ImplicitBipartite(g, f))
    _emit(args, {"core": [list(b) for b in core], "size": len(core)})
    return EXIT_OK


def _cmd_measure_indices(args) -> int:
    h = parse_bipartite(_read_text(args.bipartite))
    payload = {"left": h.left_size, "right": h.right_size}
    for kind in OBSTRUCTION_KINDS:
        order, obstruction = index_of(h, kind)
        payload[kind] = order
        payload[f"{kind}_witness"] = {
            "a": list(obstruction.a_seq), "b": list(obstruction.b_seq)}
    _emit(args, payload)
    return EXIT_OK


def _cmd_measure_profiles(args) -> int:
    g = _load_graph(args.graph)
    result = measure_profile_complexity(
        g, args.r, args.m, trials=args.trials, seed=args.seed)
    _emit(args, {"r": args.r, "m": args.m,
                 "count": result.count, "exact": result.exact})
    return EXIT_OK


def _cmd_generate(args) -> int:
    params = read_json(args.params, "--params")
    g = generate(args.family, params, seed=args.seed)
    text = serialize_graph(g)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stderr.write(text)
    _emit(args, {"family": args.family, "n": g.n, "m": g.m,
                 "out": args.out})
    return EXIT_OK


def _cmd_bench(args) -> int:
    config = read_json(_read_text(args.config))
    records = run_bench(config)
    text = records_to_csv(records)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        _emit(args, {"records": len(records), "out": args.out})
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="progexplore",
        description="Progressive-exploration solvers for distance-based "
                    "domination and independence problems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-domset", help="distance-r dominating multiset")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--max-rounds", type=int, default=10 ** 6)
    p.set_defaults(func=_cmd_solve_domset)

    p = sub.add_parser("solve-domset-formula",
                       help="domination-type problem from a formula file")
    p.add_argument("--graph", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--max-rounds", type=int, default=10 ** 6)
    p.set_defaults(func=_cmd_solve_domset_formula)

    p = sub.add_parser("solve-indep", help="distance-r independent set")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--strategy", choices=sorted(STRATEGIES),
                   default=DEFAULT_STRATEGY)
    p.add_argument("--depth-budget", type=int, default=20)
    p.add_argument("--work-budget", type=int, default=DEFAULT_WORK_BUDGET,
                   help="nodes the profile-multiset search may visit")
    p.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET,
                   help="calls the pre-core recursion may make")
    p.set_defaults(func=_cmd_solve_indep)

    p = sub.add_parser("coverage-core",
                       help="witness core forcing full agreement")
    p.add_argument("--graph", required=True)
    p.add_argument("--formula", required=True)
    p.set_defaults(func=_cmd_coverage_core)

    p = sub.add_parser("measure-indices",
                       help="exact obstruction indices of a bipartite graph")
    p.add_argument("--bipartite", required=True)
    p.set_defaults(func=_cmd_measure_indices)

    p = sub.add_parser("measure-profiles",
                       help="max realized profile count over small pivots")
    p.add_argument("--graph", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_measure_profiles)

    p = sub.add_parser("generate", help="build a named-family instance")
    p.add_argument("--family", choices=GENERATOR_FAMILIES, required=True)
    p.add_argument("--params", required=True, help="JSON object")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("bench", help="run a benchmark config, emit CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bench)

    return parser


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ResourceBudgetError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # a crash is never a negative decision
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:  # console-script entry point
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
