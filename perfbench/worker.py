"""One measuring process: import the library from this checkout's ``src``,
build a workload's instances from the seed, then run passes over them as a
closed loop (one caller; the next operation starts when the previous one
has returned) for the given number of seconds.

Before every operation, after the last one of a pass and right after
set-up it times a fixed calibration task (plain Python that does not use
the library), so that ``run.py`` can scale its times to a reference host
speed.  Prints one JSON line with the raw measurements;
``run.py`` turns them into the reported metrics.  With ``--setup-only`` it
stops after building the instances and calibrating, so ``run.py`` can time
set-up several times.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import random
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT_DIR = os.path.join(HERE, "out")
CAL_BFS = ((60, (0, 1817, 3599)), (100, (0,)))  # (grid side, BFS sources)
CAL_KEYS = 6000
SETUP_CAL_SAMPLES = 5


@dataclass(frozen=True)
class Failure:
    error: str


def _calibration_grid(side):
    adj = []
    for v in range(side * side):
        row, col = divmod(v, side)
        adj.append([w for w, inside in ((v - side, row > 0),
                                        (v + side, row < side - 1),
                                        (v - 1, col > 0),
                                        (v + 1, col < side - 1))
                    if inside])
    return adj


@functools.lru_cache(maxsize=None)
def _calibration_inputs():
    grids = [(_calibration_grid(side), sources) for side, sources in CAL_BFS]
    rng = random.Random(0)
    keys = [(rng.randrange(10**6), rng.randrange(50)) for _ in range(CAL_KEYS)]
    return grids, keys


def calibrate():
    """Seconds a fixed pure-Python task takes now: BFS over a small and a
    larger grid, then grouping, sorting and hashing a fixed list of pairs.
    The mix follows host-speed changes about as much as the workloads do;
    it does not use the library."""
    grids, keys = _calibration_inputs()
    start = perf_counter()
    for adj, sources in grids:
        for source in sources:
            dist = [-1] * len(adj)
            dist[source] = 0
            queue = [source]
            for u in queue:
                du = dist[u] + 1
                for w in adj[u]:
                    if dist[w] < 0:
                        dist[w] = du
                        queue.append(w)
            len({(d, d % 7) for d in dist})
    groups = {}
    for key in keys:
        groups.setdefault(key[1], []).append(key)
    len({key[0] % 997 for key in sorted(keys)})
    return perf_counter() - start


def _rss_kib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _import_library():
    """Import progexplore from this checkout only, never an installed copy."""
    sys.path.insert(0, SRC)
    try:
        import progexplore
    except ImportError as exc:
        sys.exit(f"cannot import progexplore from {SRC}: {exc}")
    if not os.path.abspath(progexplore.__file__).startswith(SRC + os.sep):
        sys.exit(f"progexplore was imported from {progexplore.__file__}, "
                 f"not from {SRC}")


class Runner:
    """Runs passes and judges every answer against the first pass, whose
    answers go through the reference checks once."""

    def __init__(self, instances):
        self.instances = instances
        self.reference = None
        self.wrong = {}  # instance index -> what was wrong with its answer
        self.attempted = 0
        self.failed = 0

    def run_pass(self, tracer=None, pass_no=0):
        """One pass; returns the summed wall time of its operations and the
        mean time of the calibrations taken before each operation and after
        the last."""
        answers = []
        elapsed = 0.0
        cal_s = []
        for i, inst in enumerate(self.instances):
            cal_s.append(calibrate())
            op_start = perf_counter()
            try:
                if tracer is None:
                    answer = inst.run()
                else:
                    answer = tracer.run_op(f"p{pass_no}.{i}", inst.run)
            except Exception as exc:  # a failed operation is counted, not fatal
                answer = Failure(f"{type(exc).__name__}: {exc}")
                if i not in self.wrong:
                    traceback.print_exc()
            elapsed += perf_counter() - op_start
            answers.append(answer)
        cal_s.append(calibrate())
        self._judge(answers)
        return elapsed, statistics.mean(cal_s)

    def _judge(self, answers):
        if self.reference is None:
            self.reference = answers
            for i, (inst, answer) in enumerate(zip(self.instances, answers)):
                problem = self._check(inst, answer)
                if problem:
                    self.wrong[i] = f"{inst.label}: {problem}"
        for i, answer in enumerate(answers):
            self.attempted += 1
            if i in self.wrong:
                self.failed += 1
            elif answer != self.reference[i]:
                self.failed += 1
                self.wrong[i] = (f"{self.instances[i].label}: answer changed "
                                 f"between passes")

    @staticmethod
    def _check(inst, answer):
        if isinstance(answer, Failure):
            return answer.error
        try:
            return inst.check(answer)
        except Exception as exc:  # the check itself could not complete
            return f"reference check raised {type(exc).__name__}: {exc}"


def _run_cli(workload, answers, tracer):
    """One in-process cli_main call with stdout captured, traced."""
    from progexplore import cli

    argv, files, check = workload.cli_case(answers)
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        paths = {}
        for name, text in files.items():
            paths[name] = os.path.join(tmp, name)
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        argv = [arg.format(**paths) for arg in argv]
        captured = io.StringIO()
        tracer.install()
        try:
            with contextlib.redirect_stdout(captured):
                code = tracer.run_op("cli", lambda: cli.cli_main(argv))
        finally:
            not_restored = tracer.restore()
    lines = captured.getvalue().splitlines()
    out = json.loads(lines[-1]) if lines else {}
    return check(code, out), not_restored


def _measure(args, workload):
    runner = Runner(workload.instances)
    passes = []
    while sum(p[0] for p in passes) < args.seconds or not passes:
        passes.append(runner.run_pass())
    pass_s, pass_cal_s = zip(*passes)
    return runner, {"pass_s": pass_s, "pass_cal_s": pass_cal_s}


def _scaled_median(passes):
    """Median pass time over calibration time; host speed cancels out."""
    return statistics.median(elapsed / cal for elapsed, cal in passes)


def _measure_traced(args, workload):
    import tracing

    runner = Runner(workload.instances)
    tracer = tracing.Tracer()
    untraced, traced, per_pass, not_restored = [], [], [], []
    while sum(p[0] for p in untraced + traced) < args.seconds or not traced:
        if len(untraced) <= len(traced):
            untraced.append(runner.run_pass())
            continue
        first_span = len(tracer.spans)
        tracer.install()
        try:
            traced.append(runner.run_pass(tracer, len(traced)))
        finally:
            not_restored += tracer.restore()
        per_pass.append(tracing.layer_metrics(tracer.spans[first_span:]))
    metrics, unstable = tracing.summarize(per_pass)
    shares = [tracing.shares(m, t) for m, (t, _) in zip(per_pass, traced)]
    first_cli = len(tracer.spans)
    cli_problem, cli_not_restored = _run_cli(workload, runner.reference, tracer)
    not_restored += cli_not_restored
    metrics.update(tracing.cli_metrics(tracer.spans[first_cli:]))
    metrics[tracing.OVERHEAD_METRIC] = (_scaled_median(traced)
                                        / _scaled_median(untraced))
    problems = []
    if unstable:
        problems.append(f"counts differ between traced passes: {unstable}")
    if not_restored:
        problems.append(f"not restored after tracing: {sorted(set(not_restored))}")
    if cli_problem:
        problems.append(cli_problem)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(
        OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "spans": tracing.spans_as_json(tracer.spans)}, fh)
    per_layer = {name: {"value": value, "unit": tracing.unit_of(name)}
                 for name, value in metrics.items()}
    return runner, {
        "pass_s": [p[0] for p in untraced],
        "traced_pass_s": [p[0] for p in traced], "per_layer": per_layer,
        "shares": {name: statistics.median(s[name] for s in shares)
                   for name in shares[0]},
        "trace_problems": problems, "spans_file": spans_path,
        "span_count": len(tracer.spans),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; "
                 f"known: {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    result = {"ready_at": time.monotonic(), "setup_rss_kib": _rss_kib(),
              "instances": [inst.label for inst in workload.instances]}
    result["setup_cal_s"] = statistics.mean(
        calibrate() for _ in range(SETUP_CAL_SAMPLES))
    if not args.setup_only:
        measure = _measure_traced if args.trace else _measure
        runner, measured = measure(args, workload)
        result.update(measured)
        result.update(attempted=runner.attempted, failed=runner.failed,
                      wrong=sorted(runner.wrong.values()),
                      peak_rss_kib=_rss_kib())
    print(json.dumps(result))


if __name__ == "__main__":
    main()
