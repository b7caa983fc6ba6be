"""The four workloads: instances built from one seed, the operation that
takes an instance from input to answer, and the reference check of each
answer.

Operations call the library through its submodules (``solvers.X``, not
``progexplore.X``), so the tracer's wrappers see them.  Reference checks use
the benchmark's own BFS or the library's brute-force and exact machinery,
and run outside every timed region.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from progexplore import bipartite, formulas, graph, solvers
from progexplore.oracles import ImplicitBipartite


@dataclass(frozen=True)
class Instance:
    label: str
    run: Callable[[], object]  # the operation; returns a comparable answer
    check: Callable[[object], str | None]  # None, or what is wrong


@dataclass(frozen=True)
class Workload:
    instances: list
    # answers of the first pass -> (argv for cli_main with "{file}"
    # placeholders, the text of each file, check of exit code and output)
    cli_case: Callable


# --- the benchmark's own reference helpers -----------------------------------


def _within(g, sources, cap):
    """Vertices at distance <= cap from any source, by plain BFS."""
    seen = set(sources)
    frontier = list(seen)
    for _ in range(cap):
        nxt = []
        for u in frontier:
            for w in g.adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def _dominates(g, vertices, r):
    return len(_within(g, set(vertices), r)) == g.n


def _pairwise_far(g, vertices, r):
    return all(not (_within(g, [u], r) & (set(vertices) - {u}))
               for u in vertices)


def _k_cover_exists(masks, full, k):
    """Whether k of the given witness masks union to ``full``.  Any cover
    must contain a mask with the lowest uncovered witness, so branch only
    on those."""
    masks = set(masks)

    def search(covered, left):
        if covered == full:
            return True
        if left == 0:
            return False
        missing = full & ~covered
        low = missing & -missing
        return any(search(covered | m, left - 1) for m in masks if m & low)

    return search(0, k)


def _decision(d):
    transcript = d.transcript
    calls = tuple(sorted(transcript.oracle_calls.items())) if transcript else ()
    rounds = transcript.rounds if transcript else None
    payload = d.payload
    if isinstance(payload, list):
        payload = tuple(payload)
    return d.kind, payload, rounds, calls


def _check_delta(g, k, r, answer):
    kind, payload = answer[0], answer[1]
    if kind == solvers.SOLUTION:
        if len(payload) != k or not _dominates(g, payload, r):
            return f"solution {payload} does not distance-{r} dominate"
        return None
    if kind != solvers.NO_SOLUTION:
        return f"unexpected decision {kind}"
    witnesses = sorted({b[0] for b in payload})
    balls = [_within(g, [w], r) for w in witnesses]
    masks = {}
    for i, ball in enumerate(balls):
        for v in ball:
            masks[v] = masks.get(v, 0) | 1 << i
    if _k_cover_exists(masks.values(), (1 << len(witnesses)) - 1, k):
        return f"{k} vertices dominate the witnesses {witnesses}"
    return None


def _check_independent(g, k, r, answer):
    kind, payload = answer[0], answer[1]
    reference = solvers.brute_force_independent(g, k, r)
    if kind == solvers.SOLUTION:
        if len(set(payload)) != k or not _pairwise_far(g, payload, r):
            return f"{payload} is not {k} vertices at distance > {r}"
        if reference is None:
            return "brute force finds no solution"
        return None
    if kind != solvers.NO_SOLUTION:
        return f"unexpected decision {kind}"
    if reference is not None:
        return f"brute force finds {reference}"
    return None


def _check_formula(g, kind, k, r, answer):
    check = _check_delta if kind == "delta" else _check_independent
    return check(g, k, r, answer)


def _formula(kind, k, r):
    build = formulas.build_delta if kind == "delta" else formulas.build_eta
    return build(k, r)


# --- domset-sparse -----------------------------------------------------------


def _domset_instance(label, g, k, r):
    text = graph.serialize_graph(g)
    f = formulas.build_delta(k, r)

    def run():
        parsed = graph.parse_graph(text)
        return _decision(solvers.semi_ladder_solve(ImplicitBipartite(parsed, f)))

    return Instance(label, run, lambda answer: _check_delta(g, k, r, answer))


def domset_sparse(seed):
    grid = graph.generate("grid", {"rows": 200, "cols": 200})
    instances = [
        _domset_instance("grid 200x200 delta(3,1)", grid, 3, 1),
        _domset_instance("cycle 20000 delta(3,2)",
                         graph.generate("cycle", {"n": 20000}), 3, 2),
        _domset_instance("tree 5000 delta(3,3)",
                         graph.generate("tree", {"n": 5000}, seed=seed), 3, 3),
        _domset_instance(
            "bounded-degree 2000 delta(3,2)",
            graph.generate("bounded_degree_random",
                           {"n": 2000, "max_degree": 4, "m": 3000},
                           seed=seed), 3, 2),
    ]

    def cli_case(answers):
        argv = ["solve-domset", "--graph", "{graph}", "--k", "3", "--r", "1"]
        kind, payload = answers[0][0], answers[0][1]

        def check(code, out):
            want = {"decision": kind, "witnesses": [list(b) for b in payload]}
            if code != 1 or {k: out.get(k) for k in want} != want:
                return f"solve-domset exit {code}, output {out}"
            return None

        return argv, {"graph": graph.serialize_graph(grid)}, check

    return Workload(instances, cli_case)


# --- indep-precore -----------------------------------------------------------


def _indep_instance(label, g, k, r):
    def run():
        return _decision(solvers.independent_set_solve(g, k, r))

    return Instance(label, run,
                    lambda answer: _check_independent(g, k, r, answer))


def indep_precore(seed):
    path = graph.generate("path", {"n": 12})
    instances = [
        _indep_instance("path 12 k=3 r=4", path, 3, 4),
        _indep_instance("path 12 k=3 r=5", path, 3, 5),
        _indep_instance("grid 3x4 k=3 r=2",
                        graph.generate("grid", {"rows": 3, "cols": 4}), 3, 2),
        _indep_instance("cycle 12 k=3 r=3",
                        graph.generate("cycle", {"n": 12}), 3, 3),
        _indep_instance("tree 15 k=3 r=3",
                        graph.generate("tree", {"n": 15}, seed=seed), 3, 3),
    ]

    def cli_case(answers):
        argv = ["solve-indep", "--graph", "{graph}", "--k", "3", "--r", "4"]
        payload = answers[0][1]

        def check(code, out):
            if code != 0 or out.get("solution") != sorted(payload):
                return f"solve-indep exit {code}, output {out}"
            return None

        return argv, {"graph": graph.serialize_graph(path)}, check

    return Workload(instances, cli_case)


# --- formula-dense -----------------------------------------------------------


def _semi_instance(label, g, kind, k, r):
    f = _formula(kind, k, r)

    def run():
        return _decision(solvers.semi_ladder_solve(ImplicitBipartite(g, f)))

    return Instance(label, run,
                    lambda answer: _check_formula(g, kind, k, r, answer))


def _check_core(g, f, core):
    """Acceptance criterion 8: agreeing with the core forces agreeing with
    every witness tuple of the materialized graph."""
    h = bipartite.materialize(g, f)
    full = (1 << h.right_size) - 1
    mask = 0
    for b in core:
        if len(b) != f.d:
            return f"core tuple {b} has the wrong length"
        mask |= 1 << bipartite.tuple_index(g.n, b)
    bad = [l for l, adj in enumerate(h.left_adj)
           if adj & mask == mask and adj != full]
    if bad:
        return f"candidate {bad[0]} agrees with the core but not with all"
    return None


def _core_instance(label, g, f):
    def run():
        return tuple(solvers.coverage_core(ImplicitBipartite(g, f)))

    return Instance(label, run, lambda core: _check_core(g, f, core))


def _check_ladder(g, f, p, answer):
    h = bipartite.materialize(g, f)
    if not bipartite.check_p_helly(h, p, "weak").holds:
        return f"weak {p}-Helly does not hold; ladder_solve is out of contract"
    exists = bipartite.coverage_bruteforce(h) is not None
    if answer[0] != (solvers.EXISTS if exists else solvers.NOT_EXISTS):
        return f"ladder says {answer[0]}, brute-force coverage says {exists}"
    return None


def _ladder_instance(label, g, f, p):
    def run():
        return _decision(solvers.ladder_solve(ImplicitBipartite(g, f), p))

    return Instance(label, run, lambda answer: _check_ladder(g, f, p, answer))


def formula_dense(seed):
    path12 = graph.generate("path", {"n": 12})
    cycle11 = graph.generate("cycle", {"n": 11})
    cycle40 = graph.generate("cycle", {"n": 40})
    core_formula = formulas.build_delta(2, 2)
    instances = [
        _semi_instance("grid 24x24 delta(1,24)",
                       graph.generate("grid", {"rows": 24, "cols": 24}),
                       "delta", 1, 24),
        _semi_instance("cycle 120 delta(3,20)",
                       graph.generate("cycle", {"n": 120}), "delta", 3, 20),
        _semi_instance("cycle 11 eta(3,3)", cycle11, "eta", 3, 3),
        _semi_instance("path 12 eta(3,5)", path12, "eta", 3, 5),
        _semi_instance("grid 5x5 eta(4,3)",
                       graph.generate("grid", {"rows": 5, "cols": 5}),
                       "eta", 4, 3),
        _core_instance("cycle 40 core delta(2,2)", cycle40, core_formula),
        _core_instance("cycle 30 core eta(2,1)",
                       graph.generate("cycle", {"n": 30}),
                       formulas.build_eta(2, 1)),
        # the smallest p for which weak p-Helly holds on each graph; the
        # 5x5 grid eta(4,3) exceeds materialize's pair budget, so no p can
        # be confirmed there and ladder_solve does not run on it
        _ladder_instance("path 12 eta(3,5) ladder p=3", path12,
                         formulas.build_eta(3, 5), 3),
        _ladder_instance("cycle 11 eta(3,3) ladder p=4", cycle11,
                         formulas.build_eta(3, 3), 4),
    ]

    def cli_case(answers):
        argv = ["coverage-core", "--graph", "{graph}",
                "--formula", "{formula}"]
        core = [list(b) for b in answers[5]]

        def check(code, out):
            if code != 0 or out.get("core") != core:
                return f"coverage-core exit {code}, output {out}"
            return None

        files = {"graph": graph.serialize_graph(cycle40),
                 "formula": formulas.serialize_formula(core_formula)}
        return argv, files, check

    return Workload(instances, cli_case)


# --- exact-indices -----------------------------------------------------------

KINDS = bipartite.OBSTRUCTION_KINDS
HELLY = tuple((p, v) for p in (1, 2) for v in ("weak", "full", "strong"))


def _measure(h):
    h2 = bipartite.parse_bipartite(bipartite.serialize_bipartite(h))
    indices = tuple(bipartite.index_of(h2, kind) for kind in KINDS)
    helly = tuple(bipartite.check_p_helly(h2, p, v) for p, v in HELLY)
    return h2, indices, helly, bipartite.coverage_bruteforce(h2)


def _check_measure(h, answer):
    h2, indices, _, cover = answer[:4]
    if h2 != h:
        return "parse_bipartite(serialize_bipartite(h)) differs from h"
    for kind, (order, obstruction) in zip(KINDS, indices):
        if obstruction.kind != kind or obstruction.order != order:
            return f"{kind} obstruction does not match its order {order}"
        if not obstruction.verify(h):
            return f"{kind} obstruction fails Obstruction.verify"
        if bipartite.index_of(h, kind)[0] != order:
            return f"{kind} index changed across the parse round trip"
    cm, ld, sl = (order for order, _ in indices)
    if not bipartite.check_p_helly(h, cm, "strong").holds or (
            cm > 0 and bipartite.check_p_helly(h, cm - 1, "strong").holds):
        return f"strong p-Helly threshold is not the co-matching index {cm}"
    if not (ld <= sl and cm <= sl):
        return f"index laws fail: comatching {cm} ladder {ld} semiladder {sl}"
    full = (1 << h.right_size) - 1
    if cover is not None and h.left_adj[cover] != full:
        return f"left vertex {cover} does not cover the right side"
    return None


def _exact_graph_instance(label, g, kind, k, r):
    f = _formula(kind, k, r)
    brute = ("brute_force_dominating" if kind == "delta"
             else "brute_force_independent")

    def run():
        h = bipartite.materialize(g, f)
        return (*_measure(h), getattr(solvers, brute)(g, k, r))

    def check(answer):
        problem = _check_measure(bipartite.materialize(g, f), answer)
        if problem:
            return problem
        cover, found = answer[3], answer[4]
        if (cover is None) != (found is None):
            return f"coverage {cover} disagrees with brute force {found}"
        if found is not None:
            ok = (_dominates(g, found, r) if kind == "delta"
                  else _pairwise_far(g, found, r))
            if not ok:
                return f"brute-force answer {found} fails the BFS check"
        return None

    return Instance(label, run, check)


def _bipartite_instance(label, h):
    return Instance(label, lambda: _measure(h),
                    lambda answer: _check_measure(h, answer))


def exact_indices(seed):
    rng = random.Random(seed)
    cycle8 = graph.generate("cycle", {"n": 8})
    instances = [
        _exact_graph_instance("cycle 8 delta(3,1)", cycle8, "delta", 3, 1),
        _exact_graph_instance("cycle 10 eta(2,1)",
                              graph.generate("cycle", {"n": 10}), "eta", 2, 1),
        _exact_graph_instance("grid 3x3 delta(2,1)",
                              graph.generate("grid", {"rows": 3, "cols": 3}),
                              "delta", 2, 1),
        _exact_graph_instance("tree 8 delta(3,1)",
                              graph.generate("tree", {"n": 8}, seed=seed),
                              "delta", 3, 1),
    ]
    for density in (0.3, 0.5, 0.7):
        h = bipartite.BipartiteGraph.from_edges(
            16, 16, [(l, r) for l in range(16) for r in range(16)
                     if rng.random() < density])
        instances.append(
            _bipartite_instance(f"random 16x16 density {density}", h))

    def cli_case(answers):
        argv = ["measure-indices", "--bipartite", "{bipartite}"]
        indices = answers[0][1]

        def check(code, out):
            want = {kind: order for kind, (order, _) in zip(KINDS, indices)}
            if code != 0 or {k: out.get(k) for k in want} != want:
                return f"measure-indices exit {code}, output {out}"
            return None

        h = bipartite.materialize(cycle8, formulas.build_delta(3, 1))
        return argv, {"bipartite": bipartite.serialize_bipartite(h)}, check

    return Workload(instances, cli_case)


WORKLOADS = {
    "domset-sparse": domset_sparse,
    "indep-precore": indep_precore,
    "formula-dense": formula_dense,
    "exact-indices": exact_indices,
}
