"""`report --json` bytes of the benchmark's genuine small inputs.

The inputs are built in a temporary directory by the benchmark's own
set-up commands for the `small` workload (bench/corpus.py), and each
report is compared byte for byte with its committed file in
bench/golden/, which this test only reads.  The dimension-45 member
(t3z5) is left to the benchmark: its report takes seconds.
"""

import contextlib
import io
import os
import sys

import pytest

from hopf_forge import cli

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")
sys.path.insert(0, BENCH)

from corpus import GOLDEN_DIR, Workload  # noqa: E402

MEMBERS = sorted(name[:-len(".json")] for name in os.listdir(GOLDEN_DIR)
                 if name != "t3z5.json")


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


@pytest.fixture(scope="module")
def small_dir(tmp_path_factory):
    work = tmp_path_factory.mktemp("small")
    workload = Workload("small", str(work), seed=1)
    workload.prepare()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for argv in workload.setup_commands:
            assert _run(argv)[0] == 0, argv
    finally:
        os.chdir(cwd)
    return work


def test_golden_members_are_the_small_genuine_inputs():
    assert len(MEMBERS) == 9


@pytest.mark.parametrize("member", MEMBERS)
def test_report_json_matches_golden_bytes(small_dir, member):
    rc, out = _run(["report", str(small_dir / f"{member}.json"), "--json"])
    assert rc == 0
    with open(os.path.join(GOLDEN_DIR, f"{member}.json"), "rb") as fh:
        assert out.encode() == fh.read()
