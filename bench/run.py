"""hopf-forge benchmark: CLI time-to-verdict with known-answer checks.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload small|t3z5 --seed N \
        --seconds S --trace 0|1

--trace 0 drives the CLI as a user does: one `python -m hopf_forge.cli`
process per request, closed loop, one client, one request at a time,
repeating passes over the workload's inputs for at least S seconds.
--trace 1 runs one pass in process under the tracer and reports
per-layer numbers instead.  Either way every verdict is checked against
known answers.  Human-readable lines go first; the last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

Scratch files go to .bench_work/ under the checkout.  See bench/README.md
for the workloads, metrics and their meaning.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from client import Cli  # noqa: E402
from corpus import (WORKLOADS, Outcome, Workload,  # noqa: E402
                    is_known_defect, judge)

SETUP_REPEATS = 3
RUN_BUDGET_S = 170.0    # every run must end well within 180 s
SETUP_LIMIT_S = 60.0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup(cli, workload):
    """Build the workload's inputs with the CLI, SETUP_REPEATS times.

    Returns the wall time of each repeat.  Harness-only preparation
    (the k[S3] file, mutants, malformed files) is not timed.
    """
    workload.prepare()
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        for argv in workload.setup_commands:
            timed = cli.run(argv, SETUP_LIMIT_S, cwd=workload.work_dir)
            if timed.outcome.rc != 0:
                raise RuntimeError(
                    f"set-up command {argv} exited {timed.outcome.rc}: "
                    f"{timed.outcome.stderr.decode()[-500:]}")
        times.append(time.perf_counter() - start)
    return times


def measure(cli, requests, seconds, deadline, work_dir):
    """Closed loop: passes over the requests until `seconds` have elapsed.

    Returns a list of passes, each a list of (request, Timed, ok, defect).
    A request that would run past the run budget is not started; it
    counts as attempted and undecided.
    """
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        if passes and time.perf_counter() + _pass_estimate(passes) > deadline:
            break
        current = []
        for req in requests:
            limit = min(req.limit_s, deadline - time.perf_counter())
            if limit <= 0:
                current.append((req, None,
                                *judge(req, Outcome(None, b"", b""))))
                continue
            timed = cli.run(req.argv(), limit, cwd=work_dir)
            ok, defect = judge(req, timed.outcome)
            current.append((req, timed, ok, defect))
        passes.append(current)
    return passes


def _pass_estimate(passes):
    return max(sum(t.wall_s for _, t, _, _ in p if t is not None)
               for p in passes)


def _decided(timed):
    return timed is not None and not timed.outcome.timed_out


def end_to_end_metrics(setup_times, passes):
    """Times cover decided requests only: a killed request's wall time is
    the harness's limit, not the program's.  decided_ratio counts the
    rest."""
    timed = [t for p in passes for _, t, _, _ in p if t is not None]
    decided = [t for t in timed if _decided(t)]
    # a run where nothing decided still reports a (limit-bound) geomean
    geo = decided or timed
    results = [r for p in passes for r in p]

    def pass_sum(command):
        return [sum(t.wall_s for req, t, _, _ in p
                    if _decided(t) and req.command == command)
                for p in passes]

    attempted = len(results)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "verify_s": (statistics.median(pass_sum("verify")), "s"),
        "report_s": (statistics.median(pass_sum("report")), "s"),
        "request_geomean_s": (
            math.exp(statistics.fmean(math.log(t.wall_s) for t in geo)),
            "s"),
        "peak_rss_mb": (max(t.maxrss_mb for t in timed), "MB"),
        "verdict_ok_ratio": (
            sum(1 for r in results if r[2]) / attempted, "ratio"),
        "decided_ratio": (len(decided) / attempted, "ratio"),
    }


def summarize(results):
    """(correct, attempted, failed, failure lines) over (request, ok,
    defect) triples.  correct is False when any failure is not the
    seed's catalogued defect on that very request."""
    failures = [(req, defect) for req, ok, defect in results if not ok]
    correct = all(is_known_defect(req, d) for req, d in failures)
    lines = [f"FAILED {req.rid}: {defect}" for req, defect in failures]
    return correct, len(results), len(failures), lines


def emit(metrics, correct, attempted, failed, notes, samples):
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        n = samples.get(name)
        extra = f"  (n={n})" if n is not None else ""
        print(f"{name:36s} {value:>14.6g} {unit}{extra}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hopf_forge", "cli.py")):
        print("error: run from the root of a hopf-forge source checkout "
              "(src/hopf_forge/cli.py not found)", file=sys.stderr)
        return 2
    started = time.perf_counter()
    deadline = started + RUN_BUDGET_S
    work_root = os.path.join(root, ".bench_work", args.workload)
    shutil.rmtree(work_root, ignore_errors=True)
    os.makedirs(work_root)
    workload = Workload(args.workload, os.path.join(work_root, "inputs"),
                        args.seed)
    cli = Cli(root, work_root)
    setup_times = setup(cli, workload)
    requests = workload.requests()

    if args.trace:
        sys.path.insert(0, os.path.join(root, "src"))
        import traced
        results, metrics, spans = traced.traced_pass(workload, requests,
                                                     deadline)
        metrics.update(traced.microbenchmarks())
        metrics.update(traced.startup_metrics(
            cli, work_root, workload.path("taft3.json")))
        with open(os.path.join(work_root, "spans.json"), "w") as fh:
            json.dump(spans, fh)
        triples = [(req, ok, defect) for req, _, _, ok, defect in results]
        samples = {}
        for command in ("verify", "report"):
            wall = sum(w for req, _, w, _, _ in results
                       if req.command == command)
            print(f"traced {command} pass: {wall:.3f} s")
    else:
        passes = measure(cli, requests, args.seconds, deadline,
                         workload.work_dir)
        metrics = end_to_end_metrics(setup_times, passes)
        triples = [(req, ok, defect) for p in passes
                   for req, _, ok, defect in p]
        n_req = sum(len(p) for p in passes)
        n_decided = sum(1 for p in passes for _, t, _, _ in p if _decided(t))
        samples = {"setup_s": len(setup_times), "verify_s": len(passes),
                   "report_s": len(passes), "request_geomean_s": n_decided,
                   "peak_rss_mb": n_req, "verdict_ok_ratio": n_req,
                   "decided_ratio": n_req}
    correct, attempted, failed, notes = summarize(triples)
    notes.append(f"workload {args.workload} seed {args.seed}: "
                 f"{attempted} requests, {failed} failed, "
                 f"run {time.perf_counter() - started:.1f} s")
    emit(metrics, correct, attempted, failed, notes, samples)
    return 0


if __name__ == "__main__":
    sys.exit(main())
