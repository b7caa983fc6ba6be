"""Spans around the library's layer calls, recorded from outside the library.

The tracer replaces each function under the module attribute its caller
looks it up by (``progexplore.solvers.candidate_oracle`` is what
``semi_ladder_solve`` calls) and puts the original back afterwards.
Nothing under ``src/`` is changed.

A span is ``[name, start, end, parent, op, child_s, leaves, counts]``:
``parent`` is the index of the enclosing span, ``op`` the operation id,
``child_s`` the time its child spans cover.  Hot leaf calls (``evaluate``,
``bfs_capped``, ``ball``) open no span: each adds a call count and a time
to its enclosing span's ``leaves``.  A span's self time is its duration
minus ``child_s`` minus the time of the outermost leaf calls inside it.
"""
from __future__ import annotations

import statistics
from time import perf_counter

from progexplore import bipartite, cli, graph, oracles, profiles, solvers

NAME, START, END, PARENT, OP, CHILD_S, LEAVES, COUNTS = range(8)
# leaf statistics: [calls, seconds, outermost seconds, reached, scanned]
CALLS, SECONDS, OUTER_S, REACHED, SCANNED = range(5)


def _table_counts(args, kwargs, table):
    return {"scanned": sum(e.count for e in table.entries),
            "entries": len(table.entries)}


def _transcript_rounds(args, kwargs, decision):
    return {"rounds": decision.transcript.rounds}


def _core_rounds(args, kwargs, core):
    return {"rounds": len(core)}


def _precore_size(args, kwargs, q):
    return {"size": len(q)}


def _index_name(args, kwargs):
    return f"bipartite.index.{args[1]}"  # index_of(h, kind)


def _bfs_reached(args, kwargs, dist):
    return len(dist) - dist.count(graph.INF), len(dist)


# (module, attribute, span name or name function, counts hook)
SPAN_TARGETS = (
    (graph, "parse_graph", "graph.parse", None),
    (cli, "parse_graph", "graph.parse", None),
    (oracles, "build_profile_table", "profiles.table", _table_counts),
    (solvers, "build_profile_table", "profiles.table", _table_counts),
    (solvers, "candidate_oracle", "oracles.candidate", None),
    (solvers, "weak_witness_oracle", "oracles.weak_witness", None),
    (solvers, "strong_witness_oracle", "oracles.strong_witness", None),
    (solvers, "semiladder_extension_oracle", "oracles.extension", None),
    (solvers, "semi_ladder_solve", "solvers.semi_ladder", _transcript_rounds),
    (cli, "semi_ladder_solve", "solvers.semi_ladder", _transcript_rounds),
    (solvers, "ladder_solve", "solvers.ladder", _transcript_rounds),
    (solvers, "coverage_core", "solvers.coverage_core", _core_rounds),
    (cli, "coverage_core", "solvers.coverage_core", _core_rounds),
    (solvers, "independent_set_solve", "solvers.indep", None),
    (cli, "independent_set_solve", "solvers.indep", None),
    (solvers, "compute_precore", "solvers.precore", _precore_size),
    (solvers, "greedy_dichotomy", "solvers.dichotomy", None),
    (solvers, "brute_force_dominating", "solvers.brute_force", None),
    (solvers, "brute_force_independent", "solvers.brute_force", None),
    (bipartite, "materialize", "bipartite.materialize", None),
    (bipartite, "serialize_bipartite", "bipartite.serialize", None),
    (bipartite, "parse_bipartite", "bipartite.parse", None),
    (cli, "parse_bipartite", "bipartite.parse", None),
    (bipartite, "index_of", _index_name, None),
    (cli, "index_of", _index_name, None),
    (bipartite, "check_p_helly", "bipartite.helly", None),
    (bipartite, "coverage_bruteforce", "bipartite.coverage", None),
    (cli, "cli_main", "cli.call", None),
)

# (module, attribute, leaf name, hook returning (reached, scanned))
LEAF_TARGETS = (
    (graph, "bfs_capped", "graph.bfs", _bfs_reached),
    (profiles, "bfs_capped", "graph.bfs", _bfs_reached),
    (solvers, "bfs_capped", "graph.bfs", _bfs_reached),
    (bipartite, "bfs_capped", "graph.bfs", _bfs_reached),
    (cli, "bfs_capped", "graph.bfs", _bfs_reached),
    (solvers, "ball", "graph.ball", None),
    (oracles, "evaluate", "formulas.evaluate", None),
    (bipartite, "evaluate", "formulas.evaluate", None),
    (cli, "evaluate", "formulas.evaluate", None),
)

ROOT_SPAN = "bench.op"


class Tracer:
    """Records spans while an operation is open; passes calls straight
    through otherwise, so reference checks run between operations are not
    recorded."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = None
        self.leaf_depth = 0
        self.originals: list = []  # (module, attribute, original object)

    def install(self):
        for module, attr, name, hook in SPAN_TARGETS:
            original = getattr(module, attr)
            self.originals.append((module, attr, original))
            setattr(module, attr, self._span_wrapper(original, name, hook))
        for module, attr, name, hook in LEAF_TARGETS:
            original = getattr(module, attr)
            self.originals.append((module, attr, original))
            setattr(module, attr, self._leaf_wrapper(original, name, hook))

    def restore(self):
        """Put every original back; return the attributes that still
        differ from their original object (empty when all came back)."""
        for module, attr, original in reversed(self.originals):
            setattr(module, attr, original)
        return [f"{module.__name__}.{attr}"
                for module, attr, original in self.originals
                if getattr(module, attr) is not original]

    def run_op(self, op_id, fn):
        """Run one operation under a root span tagged ``op_id``."""
        self.op = op_id
        try:
            return self._span_wrapper(fn, ROOT_SPAN, None)()
        finally:
            self.op = None

    def _span_wrapper(self, fn, name, hook):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer.stack
            parent = stack[-1] if stack else None
            label = name if isinstance(name, str) else name(args, kwargs)
            record = [label, 0.0, 0.0, parent, tracer.op, 0.0, {}, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = end = perf_counter()
                stack.pop()
                if parent is not None:
                    spans[parent][CHILD_S] += end - record[START]
            if hook is not None:
                record[COUNTS] = hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _leaf_wrapper(self, fn, name, hook):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            outermost = tracer.leaf_depth == 0
            tracer.leaf_depth += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer.leaf_depth -= 1
            leaves = tracer.spans[tracer.stack[-1]][LEAVES]
            stats = leaves.get(name)
            if stats is None:
                stats = leaves[name] = [0, 0.0, 0.0, 0, 0]
            stats[CALLS] += 1
            stats[SECONDS] += elapsed
            if outermost:
                stats[OUTER_S] += elapsed
            if hook is not None:
                reached, scanned = hook(args, kwargs, result)
                stats[REACHED] += reached
                stats[SCANNED] += scanned
            return result

        traced.__wrapped__ = fn
        return traced


# --- per-layer metrics ------------------------------------------------------

LAYERS = ("graph", "profiles", "formulas", "oracles", "solvers", "bipartite")
ORACLES = ("candidate", "weak_witness", "strong_witness", "extension")
INDEX_KINDS = ("comatching", "ladder", "semiladder")

# counters that repeat exactly from pass to pass and run to run
COUNT_METRICS = (
    "graph.bfs_calls", "graph.bfs_reached", "graph.ball_calls",
    "profiles.table_calls", "profiles.table_scanned",
    "profiles.table_entries", "formulas.evaluate_calls",
    *(f"oracles.{o}_calls" for o in ORACLES),
    "solvers.rounds", "solvers.precore_calls", "solvers.precore_size",
    "solvers.dichotomy_calls",
)
TIME_METRICS = (
    "graph.parse_s", "graph.bfs_s", "graph.ball_s",
    "profiles.table_s", "profiles.table_self_s", "formulas.evaluate_s",
    *(f"oracles.{o}_self_s" for o in ORACLES),
    "solvers.loop_self_s", "solvers.precore_s", "solvers.precore_self_s",
    "solvers.indep_rest_s", "solvers.brute_force_s", "solvers.solve_s",
    "bipartite.materialize_s", "bipartite.parse_s",
    *(f"bipartite.index_s.{k}" for k in INDEX_KINDS), "bipartite.helly_s",
    *(f"{layer}.self_s" for layer in LAYERS),
)
RATIO_METRICS = ("graph.bfs_reached_ratio",)
OVERHEAD_METRIC = "trace.overhead_ratio"

_SOLVER_ENTRIES = ("solvers.semi_ladder", "solvers.ladder",
                   "solvers.coverage_core", "solvers.indep")
_LOOPS = ("solvers.semi_ladder", "solvers.ladder", "solvers.coverage_core")
_BIPARTITE_DURATIONS = {
    "bipartite.materialize": "bipartite.materialize_s",
    "bipartite.parse": "bipartite.parse_s",
    "bipartite.helly": "bipartite.helly_s",
    **{f"bipartite.index.{k}": f"bipartite.index_s.{k}"
       for k in INDEX_KINDS},
}


def unit_of(name):
    if name in COUNT_METRICS:
        return "count"
    return "ratio" if name.endswith("_ratio") else "s"


def self_time(span):
    outer = sum(stats[OUTER_S] for stats in span[LEAVES].values())
    return span[END] - span[START] - span[CHILD_S] - outer


def layer_metrics(spans):
    """Per-layer counts and times of one group of spans (one pass)."""
    m = dict.fromkeys(COUNT_METRICS, 0)
    m.update(dict.fromkeys(TIME_METRICS, 0.0))
    bfs_scanned = 0
    for span in spans:
        name = span[NAME]
        duration = span[END] - span[START]
        own = self_time(span)
        layer = name.split(".", 1)[0]
        if layer in LAYERS:
            m[f"{layer}.self_s"] += own
        for leaf, stats in span[LEAVES].items():
            m[f"{leaf}_calls"] += stats[CALLS]
            m[f"{leaf}_s"] += stats[SECONDS]
            m[f"{leaf.split('.', 1)[0]}.self_s"] += stats[OUTER_S]
            m["graph.bfs_reached"] += stats[REACHED]
            bfs_scanned += stats[SCANNED]
        counts = span[COUNTS] or {}
        if name == "graph.parse":
            m["graph.parse_s"] += duration
        elif name == "profiles.table":
            m["profiles.table_calls"] += 1
            m["profiles.table_s"] += duration
            m["profiles.table_self_s"] += own
            m["profiles.table_scanned"] += counts["scanned"]
            m["profiles.table_entries"] += counts["entries"]
        elif layer == "oracles":
            oracle = name.split(".", 1)[1]
            m[f"oracles.{oracle}_calls"] += 1
            m[f"oracles.{oracle}_self_s"] += own
        elif name == "solvers.precore":
            m["solvers.precore_calls"] += 1
            m["solvers.precore_s"] += duration
            m["solvers.precore_self_s"] += own
            m["solvers.precore_size"] += counts["size"]
        elif name == "solvers.dichotomy":
            m["solvers.dichotomy_calls"] += 1
        elif name == "solvers.brute_force":
            m["solvers.brute_force_s"] += duration
        elif name in _BIPARTITE_DURATIONS:
            m[_BIPARTITE_DURATIONS[name]] += duration
        if name in _SOLVER_ENTRIES:
            m["solvers.solve_s"] += duration
        if name in _LOOPS:
            m["solvers.rounds"] += counts["rounds"]
            m["solvers.loop_self_s"] += own
        if name == "solvers.indep":
            m["solvers.indep_rest_s"] += own
    m["graph.bfs_reached_ratio"] = (
        m["graph.bfs_reached"] / bfs_scanned if bfs_scanned else 0.0)
    return m


def cli_metrics(spans):
    calls = [s for s in spans if s[NAME] == "cli.call"]
    return {"cli.call_s": sum(s[END] - s[START] for s in calls),
            "cli.self_s": sum(self_time(s) for s in calls)}


def summarize(per_pass):
    """Counts from the first pass (they must match in every pass), the
    median of each time and ratio; plus the count names that differed."""
    first = per_pass[0]
    unstable = [name for name in COUNT_METRICS
                if any(p[name] != first[name] for p in per_pass)]
    out = {name: first[name] for name in COUNT_METRICS}
    for name in TIME_METRICS + RATIO_METRICS:
        out[name] = statistics.median(p[name] for p in per_pass)
    return out, unstable


def shares(m, pass_s):
    """The share each workload is meant to put on its layer, with its base."""
    solve = m["solvers.solve_s"]
    oracle_self = sum(m[f"oracles.{o}_self_s"] for o in ORACLES)
    bip = (m["bipartite.materialize_s"] + m["bipartite.parse_s"]
           + m["bipartite.helly_s"]
           + sum(m[f"bipartite.index_s.{k}"] for k in INDEX_KINDS))

    def ratio(part, base):
        return part / base if base else 0.0

    return {
        "profiles.table_s / solvers.solve_s": ratio(m["profiles.table_s"], solve),
        "solvers.precore_s / solvers.solve_s": ratio(m["solvers.precore_s"], solve),
        "(formulas.evaluate_s + oracle self) / solvers.solve_s":
            ratio(m["formulas.evaluate_s"] + oracle_self, solve),
        "bipartite.* / traced pass": ratio(bip, pass_s),
    }


def spans_as_json(spans):
    return [{"name": s[NAME], "start": s[START], "end": s[END],
             "parent": s[PARENT], "op": s[OP], "child_s": s[CHILD_S],
             "leaves": {k: {"calls": v[CALLS], "s": v[SECONDS],
                            "outer_s": v[OUTER_S]}
                        for k, v in s[LEAVES].items()},
             "counts": s[COUNTS]} for s in spans]
