"""Self-test of the benchmark's tracer.

Run from the root of the checkout:

    python3 -m pytest -q bench/test_tracer.py
"""

import contextlib
import io
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import hopf_forge  # noqa: E402,F401  (loads every hopf_forge module)
from hopf_forge import cli  # noqa: E402
from tracer import Profile, Tracer, package_modules  # noqa: E402


def _bindings():
    """{(module name, attribute): object} for every package module."""
    return {(mod.__name__, attr): obj for mod in package_modules()
            for attr, obj in vars(mod).items()}


def test_every_imported_name_is_rebound_and_restored():
    before = _bindings()
    tracer = Tracer()
    originals = {fn for _, _, fn in tracer.targets()}
    assert len(originals) > 50
    tracer.install()
    try:
        missed = [key for key, obj in _bindings().items()
                  if any(obj is fn for fn in originals)]
        assert missed == []
        # names imported into other modules, not only the defining one
        for mod, attr in (("hopf_forge.invariants", "find_grouplikes"),
                          ("hopf_forge.invariants", "null_space"),
                          ("hopf_forge.invariants", "integral_pair"),
                          ("hopf_forge.hopf", "roots_in_field"),
                          ("hopf_forge.cli", "build_report"),
                          ("hopf_forge.cli", "check_axioms"),
                          ("hopf_forge", "find_grouplikes"),
                          ("hopf_forge", "rref")):
            assert getattr(sys.modules[mod], attr) is not before[(mod, attr)]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert all(after[key] is obj for key, obj in before.items())
    cyc = sys.modules["hopf_forge.cyclofield"].CycNumber
    assert cyc.__mul__ is cyc.__rmul__
    assert cyc.__mul__.__name__ == "__mul__"
    assert not hasattr(cyc.__mul__, "__wrapped__")


def _report(path):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["report", path, "--json"])


def test_report_spans_cover_named_imports(tmp_path):
    path = str(tmp_path / "t3.json")
    assert cli.main(["zoo", "taft", "--n", "3", "--out", path]) == 0
    tracer = Tracer()
    tracer.install()
    try:
        token = tracer.begin("report")
        rc = _report(path)
        tracer.end(token)
    finally:
        tracer.uninstall()
    assert rc == 0
    prof = Profile(tracer.spans)
    # find_grouplikes runs twice per report, both times through the name
    # that invariants imported from hopf
    assert prof.calls("hopf.find_grouplikes") == 2
    assert prof.calls("invariants.compute_index") >= 1
    assert prof.calls("linalg.roots_in_field") > 0
    assert tracer.counts["cyclofield.galois_conjugate"] > 0
    assert tracer.counts["cyclofield.mul"] > tracer.mul_full > 0
    ids = {s[0] for s in tracer.spans}
    assert all(s[1] == 0 or s[1] in ids for s in tracer.spans)
    assert all(s[2] == "report" for s in tracer.spans)
    assert all(s[5] >= s[4] for s in tracer.spans)
    total = sum(s[5] - s[4] for s in tracer.spans if s[3] == "request")
    layers = sum(prof.self_s(layer=layer) for layer in
                 ("cli", "zoo", "hopf", "integrals", "invariants", "linalg"))
    assert 0 < layers <= total


def test_profile_arithmetic():
    spans = [
        (2, 1, "r", "hopf.f", 1.0, 5.0),
        (3, 2, "r", "hopf.f", 2.0, 3.0),      # recursion: not re-counted
        (4, 2, "r", "linalg.g", 3.0, 4.5),
        (1, 0, "r", "request", 0.0, 6.0),
    ]
    prof = Profile(spans)
    assert prof.inclusive_s("hopf.f") == 4.0
    assert prof.calls("hopf.f") == 2
    assert prof.layer_inclusive_s("hopf") == 4.0
    assert prof.self_s(name="hopf.f") == (4.0 - 1.0 - 1.5) + 1.0
    assert prof.self_s(layer="linalg") == 1.5
