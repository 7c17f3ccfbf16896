"""`report --json` bytes of every benchmark golden.

Each input is built in a temporary directory by the set-up commands of
its own benchmark workload (bench/corpus.py): the nine genuine `small`
inputs by the `small` workload's, and the dimension-45 t3z5 by the
`t3z5` workload's.  Each report is compared byte for byte with its
committed file in bench/golden/, which this test only reads.
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

GOLDENS = sorted(name[:-len(".json")] for name in os.listdir(GOLDEN_DIR))
MEMBERS = [name for name in GOLDENS if name != "t3z5"]


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _built(tmp_path_factory, name):
    """The directory where workload name's set-up commands have run."""
    work = tmp_path_factory.mktemp(name)
    workload = Workload(name, str(work), seed=1)
    workload.prepare()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for argv in workload.setup_commands:
            assert _run(argv)[0] == 0, argv
    finally:
        os.chdir(cwd)
    return work


@pytest.fixture(scope="module")
def small_dir(tmp_path_factory):
    return _built(tmp_path_factory, "small")


@pytest.fixture(scope="module")
def t3z5_dir(tmp_path_factory):
    return _built(tmp_path_factory, "t3z5")


def test_golden_members_are_the_small_genuine_inputs():
    assert len(MEMBERS) == 9
    assert GOLDENS == sorted(MEMBERS + ["t3z5"])


def _assert_golden(work, member):
    rc, out = _run(["report", str(work / f"{member}.json"), "--json"])
    assert rc == 0
    with open(os.path.join(GOLDEN_DIR, f"{member}.json"), "rb") as fh:
        assert out.encode() == fh.read()


@pytest.mark.parametrize("member", MEMBERS)
def test_report_json_matches_golden_bytes(small_dir, member):
    _assert_golden(small_dir, member)


def test_t3z5_report_json_matches_golden_bytes(t3z5_dir):
    _assert_golden(t3z5_dir, "t3z5")
