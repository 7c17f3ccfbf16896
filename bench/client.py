"""The closed-loop client: one hopf-forge CLI process per request.

One client, one request at a time, and at most one child process alive.
Each request is timed from spawn to reap; the child's peak RSS comes from
the rusage that os.wait4 returns for it.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
import time
from dataclasses import dataclass

from corpus import Outcome


@dataclass(frozen=True)
class Timed:
    outcome: Outcome
    wall_s: float
    maxrss_mb: float


class Cli:
    """Runs `python -m hopf_forge.cli` from the source tree under root."""

    def __init__(self, root, scratch):
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (
            os.pathsep + self.env["PYTHONPATH"]
            if self.env.get("PYTHONPATH") else "")
        self.scratch = scratch

    def command(self, argv):
        return [sys.executable, "-m", "hopf_forge.cli", *argv]

    def run(self, argv, limit_s, cwd) -> Timed:
        out_path = os.path.join(self.scratch, "stdout")
        err_path = os.path.join(self.scratch, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(self.command(argv), cwd=cwd,
                                    env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            pidfd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([pidfd], [], [], limit_s)
            finally:
                os.close(pidfd)
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        rc = proc.returncode if ready else None
        return Timed(Outcome(rc, stdout, stderr), wall,
                     usage.ru_maxrss / 1024.0)
