"""The traced run: the workload's requests in process, with spans.

Requests go through hopf_forge.cli.main exactly as argv, with the tracer
wrapping each layer's public functions from outside the package.  The
same process also runs the layer microbenchmarks and measures interpreter
start-up in fresh child processes.
"""

from __future__ import annotations

import contextlib
import io
import random
import signal
import statistics
import subprocess
import sys
import time
import traceback

from corpus import Outcome, judge
from tracer import Profile, Tracer

MICRO_SEED = 45015      # fixed: microbenchmark inputs never change
MICRO_REPEATS = 3
STARTUP_REPEATS = 5
OVERHEAD_ROUNDS = 5


class _Deadline(BaseException):
    """Raised by SIGALRM when an in-process request hits its limit."""


def _alarm(_signum, _frame):
    raise _Deadline()


def run_in_process(cli_main, argv, limit_s):
    """(Outcome, wall seconds) for cli.main(argv) under a time limit."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_main(argv)
    except _Deadline:
        rc = None
    except Exception:       # a crash is a verdict too: record it
        rc = 1
        err.write(traceback.format_exc())
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - start
    return Outcome(rc, out.getvalue().encode(), err.getvalue().encode()), wall


# -- layer microbenchmarks ----------------------------------------------------


def _element(cyclofield, order, rng):
    """A seeded element of Q(zeta_order) with every coordinate nonzero
    (so products take the full convolution path when order > 2)."""
    degree = len(cyclofield.cyclotomic_poly(order)) - 1
    from fractions import Fraction
    coeffs = tuple(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                            rng.choice((1, 1, 2, 3)))
                   for _ in range(degree))
    return cyclofield.CycNumber(order, coeffs)


def _ns_per_op(fn, items, rounds):
    best = []
    for _ in range(rounds):
        start = time.perf_counter_ns()
        for args in items:
            fn(*args)
        best.append((time.perf_counter_ns() - start) / len(items))
    return statistics.median(best)


def _micro_matrix(cyclofield, linalg):
    """Seeded 45 x 45 upper Hessenberg matrix over Q(zeta_15): roots of
    unity on the diagonal, ones below it, 45 small integers above.  Its
    Hessenberg form keeps charpoly cheap enough to time; a dense random
    matrix takes minutes there."""
    rng = random.Random(MICRO_SEED)
    n, order = 45, 15
    zero = cyclofield.cyc(order, 0)
    rows = [[zero] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = cyclofield.root_of_unity(order, rng.randrange(order))
        if i:
            rows[i][i - 1] = cyclofield.cyc(order, 1)
    for _ in range(n):
        i, j = rng.randrange(n), rng.randrange(n)
        if j > i:
            rows[i][j] = rows[i][j] + cyclofield.cyc(
                order, rng.choice((-2, -1, 1, 2)))
    full = linalg.Mat(order, rows, cols=n)
    # one dependent row, so the null space is a line
    rows[n - 1] = [a + b for a, b in zip(rows[0], rows[1])]
    singular = linalg.Mat(order, rows, cols=n)
    return full, singular


def microbenchmarks():
    from hopf_forge import cyclofield, linalg
    rng = random.Random(MICRO_SEED)
    out = {}
    for order, count in ((1, 4000), (3, 2000), (15, 400)):
        pairs = [(_element(cyclofield, order, rng),
                  _element(cyclofield, order, rng)) for _ in range(count)]
        out[f"cyclofield.mul_ns.o{order}"] = (
            _ns_per_op(lambda a, b: a * b, pairs, 5), "ns")
    singles = [(_element(cyclofield, 15, rng),) for _ in range(200)]
    out["cyclofield.inverse_ns.o15"] = (
        _ns_per_op(lambda a: a.inverse(), singles, 5), "ns")
    full, singular = _micro_matrix(cyclofield, linalg)
    for name, fn, arg in (("linalg.rref_s.n45o15", linalg.rref, full),
                          ("linalg.null_space_s.n45o15", linalg.null_space,
                           singular),
                          ("linalg.charpoly_s.n45o15", linalg.charpoly,
                           full)):
        times = []
        for _ in range(MICRO_REPEATS):
            start = time.perf_counter()
            fn(arg)
            times.append(time.perf_counter() - start)
        out[name] = (statistics.median(times), "s")
    return out


# -- fresh interpreters -------------------------------------------------------


_MODULES_PROBE = """
import contextlib, io, sys
from hopf_forge import cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["report", sys.argv[1], "--json"])
print(rc, len(sys.modules))
"""


def startup_metrics(cli_runner, cwd, taft3_path):
    times = []
    for _ in range(STARTUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import hopf_forge.cli"],
                       cwd=cwd, env=cli_runner.env, check=True)
        times.append(time.perf_counter() - start)
    done = subprocess.run([sys.executable, "-c", _MODULES_PROBE, taft3_path],
                          cwd=cwd, env=cli_runner.env, check=True,
                          capture_output=True, text=True)
    rc, loaded = done.stdout.split()
    if rc != "0":
        raise RuntimeError(f"report on taft(3) exited {rc}")
    return {"cli.startup_s": (statistics.median(times), "s"),
            "cli.modules_loaded": (int(loaded), "count")}


# -- the traced pass ----------------------------------------------------------


def traced_pass(workload, requests, deadline):
    """Run set-up and one pass of requests in process.

    Returns (results, metrics, spans): results is a list of
    (request, Outcome, wall seconds, ok, defect) for the traced pass.
    """
    from hopf_forge import cli
    _warm_up(cli, workload)
    overhead = _overhead_ratio(cli, workload.path("taft3.json"))
    tracer = Tracer()
    tracer.install()
    results = []
    try:
        for i, argv in enumerate(workload.setup_commands):
            token = tracer.begin(f"setup:{i}")
            outcome, _ = run_in_process(
                cli.main, _absolute(workload, argv), 60.0)
            tracer.end(token)
            if outcome.rc != 0:
                raise RuntimeError(f"set-up command {argv} failed: "
                                   f"{outcome.stderr.decode()}")
        for req in requests:
            limit = min(req.limit_s, deadline - time.perf_counter())
            if limit <= 0:
                outcome, wall = Outcome(None, b"", b""), 0.0
            else:
                token = tracer.begin(req.rid)
                outcome, wall = run_in_process(cli.main, req.argv(), limit)
                tracer.end(token)
            ok, defect = judge(req, outcome)
            results.append((req, outcome, wall, ok, defect))
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return results, metrics, tracer.spans


def _warm_up(cli, workload):
    """Pay first-call costs (lazy imports, field tables) before timing."""
    path = workload.path("warm_up.json")
    for argv in (["zoo", "sweedler", "--out", path], ["verify", path],
                 ["report", path, "--json"]):
        outcome, _ = run_in_process(cli.main, argv, 60.0)
        if outcome.rc != 0:
            raise RuntimeError(f"warm-up {argv} failed")


def _overhead_ratio(cli, path):
    """Traced / untraced in-process wall time of verify + report on a
    fixed reference input (taft(3)), alternating, median of rounds.  A
    fixed reference keeps the traced run short on every workload."""
    argvs = (["verify", path], ["report", path, "--json"])
    untraced, traced = [], []
    for _ in range(OVERHEAD_ROUNDS):
        untraced.append(sum(run_in_process(cli.main, a, 60.0)[1]
                            for a in argvs))
        tracer = Tracer()
        tracer.install()
        try:
            traced.append(sum(run_in_process(cli.main, a, 60.0)[1]
                              for a in argvs))
        finally:
            tracer.uninstall()
    return statistics.median(traced) / statistics.median(untraced)


def _absolute(workload, argv):
    """Set-up argv with file arguments made absolute (no chdir in process)."""
    out = []
    for arg in argv:
        out.append(workload.path(arg) if arg.endswith(".json") else arg)
    return out


_INCLUSIVE = (
    "hopf.find_grouplikes", "linalg.roots_in_field", "integrals.integral_pair",
    "hopf.compute_antipode", "hopf.check_axioms", "linalg.rref",
    "linalg.null_space", "linalg.charpoly", "linalg.matmul",
    "linalg.operator_order", "invariants.compute_index",
    "invariants.eigen_decomposition", "invariants.coradical_traces",
    "invariants.alternating_form_check", "integrals.radford_trace",
    "integrals.verify_s4_formula",
)
_CALLS = (
    "hopf.find_grouplikes", "linalg.roots_in_field", "linalg.rref",
    "invariants.compute_index", "integrals.distinguished_grouplike",
    "integrals.integral_subspace",
)
_COUNTED = ("cyclofield.galois_conjugate", "cyclofield.mul",
            "cyclofield.inverse")
_SELF = ("hopf", "integrals", "invariants", "linalg", "cli")


def layer_metrics(tracer):
    prof = Profile(tracer.spans)
    m = {}
    for name in _INCLUSIVE:
        m[f"{name}_s"] = (prof.inclusive_s(name), "s")
    for name in _CALLS:
        m[f"{name}_calls"] = (prof.calls(name), "count")
    for name in _COUNTED:
        m[f"{name}_calls"] = (tracer.counts[name], "count")
    muls = tracer.counts["cyclofield.mul"]
    m["cyclofield.mul_full_share"] = (
        tracer.mul_full / muls if muls else 0.0, "ratio")
    m["linalg.max_dim"] = (tracer.max_dim, "count")
    m["invariants.build_report_self_s"] = (
        prof.self_s(name="invariants.build_report"), "s")
    m["cli.load_s"] = (prof.inclusive_s("cli.load_presentation"), "s")
    m["cli.emit_s"] = (prof.inclusive_s("cli.canonical_bytes")
                       + prof.inclusive_s("cli._emit"), "s")
    m["zoo.build_s"] = (prof.layer_inclusive_s("zoo"), "s")
    for layer in _SELF:
        m[f"{layer}.self_s"] = (prof.self_s(layer=layer), "s")
    return m
