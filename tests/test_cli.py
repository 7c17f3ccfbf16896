"""Command-line interface: build, verify, report, dual, tensor.

Most tests drive ``main(argv)`` in-process for speed; one test runs
``python -m hopf_forge.cli`` in a child process to cover the module's
entry point.
Exit codes: 0 ok, 1 checks failed, 2 malformed input/parameters,
3 field too small (lift the cyclotomic order)."""

import json
import os
import random
import subprocess
import sys

import pytest

import hopf_forge
from hopf_forge.cli import main

# child interpreters import the package under test, wherever it was found
_CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (os.path.dirname(os.path.dirname(hopf_forge.__file__)),
                os.environ.get("PYTHONPATH")) if p))


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def taft3_file(tmp_path, capsys):
    path = tmp_path / "t3.json"
    code, _, err = run_cli(capsys, "zoo", "taft", "--n", "3",
                           "--out", str(path))
    assert code == 0, err
    return path


def test_zoo_then_verify_ok(taft3_file, capsys):
    code, out, _ = run_cli(capsys, "verify", str(taft3_file))
    assert code == 0
    assert "associativity: ok" in out
    assert "antipode-crosscheck: ok" in out
    assert "integrals: ok" in out


def test_zoo_group_and_dual_and_sweedler(tmp_path, capsys):
    group = tmp_path / "g.json"
    code, _, _ = run_cli(capsys, "zoo", "group", "--cyclic", "3,3",
                         "--out", str(group))
    assert code == 0
    doc = json.loads(group.read_text())
    assert doc["name"] == "k[Z3xZ3]" and doc["dim"] == 9

    code, _, _ = run_cli(capsys, "zoo", "sweedler", "--out",
                         str(tmp_path / "sw.json"))
    assert code == 0

    dual_out = tmp_path / "dual.json"
    code, _, _ = run_cli(capsys, "dual", str(group), "--out", str(dual_out))
    assert code == 0
    assert run_cli(capsys, "verify", str(dual_out))[0] == 0


def test_zoo_builds_no_duals_or_tensors(taft3_file, capsys):
    # the top-level dual and tensor commands are the one path to each
    f = str(taft3_file)
    for argv in (["zoo", "dual", "--a", f],
                 ["zoo", "tensor", "--a", f, "--b", f]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"invalid choice: '{argv[1]}'" in capsys.readouterr().err


def test_zoo_rejects_missing_parameters(capsys):
    code, _, err = run_cli(capsys, "zoo", "taft")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("family", [["taft", "--n", "3"], ["sweedler"],
                                    ["group", "--cyclic", "3"],
                                    ["group", "--cyclic", "3,3"]])
def test_zoo_rejects_order_zero(family, capsys):
    code, out, err = run_cli(capsys, "zoo", *family, "--order", "0")
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_verify_names_failed_axiom(taft3_file, tmp_path, capsys):
    doc = json.loads(taft3_file.read_text())
    doc["mult"][0][3] = 2  # corrupt one structure constant
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", str(bad))
    assert code == 1
    assert ": FAIL" in out


def test_verify_detects_corrupt_stored_antipode(taft3_file, tmp_path,
                                                capsys):
    doc = json.loads(taft3_file.read_text())
    doc["antipode"][0][0] = 5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", str(bad))
    assert code == 1
    assert "antipode-left: FAIL" in out or "antipode-crosscheck: FAIL" in out


def _shifted(scalar, delta):
    """A file scalar (int or num/den object) plus delta."""
    if isinstance(scalar, int):
        return scalar + delta
    num = list(scalar["num"])
    num[0] += delta * scalar["den"]
    return {"num": num, "den": scalar["den"]}


def test_verify_rejects_every_unit_counit_and_antipode_corruption(
        taft3_file, tmp_path, capsys):
    # unit, counit and antipode are unique when they exist, so changing
    # any one entry leaves an input that is not a Hopf algebra
    doc = json.loads(taft3_file.read_text())
    rng = random.Random(2024)
    sites = [(key, (i,), delta) for key in ("unit", "counit")
             for i in range(doc["dim"]) for delta in (1, -1)]
    sites += [("antipode", (i, j), rng.choice((-2, -1, 1, 2, 3)))
              for i in range(doc["dim"]) for j in range(doc["dim"])]
    bad = tmp_path / "bad.json"
    for key, index, delta in sites:
        mutant = json.loads(json.dumps(doc))
        owner = mutant[key]
        for i in index[:-1]:
            owner = owner[i]
        owner[index[-1]] = _shifted(owner[index[-1]], delta)
        bad.write_text(json.dumps(mutant))
        code, out, _ = run_cli(capsys, "verify", str(bad))
        assert code == 1 and ": FAIL" in out, (key, index, delta)


def test_malformed_files_exit_two(taft3_file, tmp_path, capsys):
    text = taft3_file.read_text()

    truncated = tmp_path / "trunc.json"
    truncated.write_text(text[: len(text) // 2])
    assert run_cli(capsys, "verify", str(truncated))[0] == 2

    doc = json.loads(text)
    doc["surprise"] = 1
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps(doc))
    assert run_cli(capsys, "verify", str(unknown))[0] == 2

    doc = json.loads(text)
    doc["mult"][0][3] = {"num": [1], "den": 0}
    badscalar = tmp_path / "badscalar.json"
    badscalar.write_text(json.dumps(doc))
    assert run_cli(capsys, "verify", str(badscalar))[0] == 2

    doc = json.loads(text)
    doc["unit"][0] = {"num": [True], "den": True}  # would read as 1
    boolscalar = tmp_path / "boolscalar.json"
    boolscalar.write_text(json.dumps(doc))
    assert run_cli(capsys, "verify", str(boolscalar))[0] == 2

    doc = json.loads(text)
    doc["antipode"] = [[1, 0], [0, 1]]
    badshape = tmp_path / "badshape.json"
    badshape.write_text(json.dumps(doc))
    assert run_cli(capsys, "verify", str(badshape))[0] == 2

    doc = json.loads(text)
    doc["mult"][0][2] = doc["dim"]
    outside = tmp_path / "outside.json"
    outside.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verify", str(outside))
    assert code == 2 and "mult index out of range" in err

    nested = tmp_path / "nested.json"
    nested.write_text("[" * 200_000)
    code, _, err = run_cli(capsys, "verify", str(nested))
    assert code == 2 and err.startswith("error:")

    data = text.encode().replace(b'"x"', b'"\xff"', 1)  # a basis label
    assert data != text.encode()
    badutf8 = tmp_path / "badutf8.json"
    badutf8.write_bytes(data)
    code, _, err = run_cli(capsys, "verify", str(badutf8))
    assert code == 2 and err.startswith("error:")

    assert run_cli(capsys, "verify", str(tmp_path / "absent.json"))[0] == 2


def test_verify_and_report_without_stored_antipode(taft3_file, tmp_path,
                                                   capsys):
    doc = json.loads(taft3_file.read_text())
    del doc["antipode"]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", str(bare))
    assert code == 0
    assert "antipode: ok (computed; none stored)" in out.splitlines()
    stored, computed = tmp_path / "stored.json", tmp_path / "computed.json"
    assert run_cli(capsys, "report", str(taft3_file), "--json",
                   "--out", str(stored))[0] == 0
    assert run_cli(capsys, "report", str(bare), "--json",
                   "--out", str(computed))[0] == 0
    assert computed.read_bytes() == stored.read_bytes()


def test_verify_fails_monoid_bialgebra(tmp_path, capsys):
    # k{1, m} with m^2 = m: a bialgebra whose grouplike m has no inverse
    doc = {"name": "k{1,m}", "dim": 2, "cyclotomic_order": 1,
           "basis": ["1", "m"],
           "mult": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 1, 1]],
           "comult": [[0, 0, 0, 1], [1, 1, 1, 1]],
           "unit": [1, 0], "counit": [1, 1]}
    path = tmp_path / "monoid.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert "FAIL" in out


def test_report_text_and_filtering(taft3_file, capsys):
    code, out, _ = run_cli(capsys, "report", str(taft3_file))
    assert code == 0
    assert "thm1.2:trace-variants" in out and "pass" in out

    code, out, _ = run_cli(capsys, "report", str(taft3_file),
                           "--check", "thm3.4,eq1:s4-formula")
    assert code == 0
    from hopf_forge import CHECK_TAGS
    lines = [l for l in out.splitlines() if l.strip()]
    tagged = [l.split()[0] for l in lines if l.split()[0] in CHECK_TAGS]
    assert tagged == ["eq1:s4-formula", "thm3.4:coradical-dim-geq-p",
                      "thm3.4:trace-additivity",
                      "thm3.4:trace-on-coradical-geq-p"]


def test_report_rejects_unknown_check_selector(taft3_file, tmp_path,
                                              capsys):
    code, out, err = run_cli(capsys, "report", str(taft3_file),
                             "--check", "thm3.4,bogus")
    assert (code, out) == (2, "")
    assert "bogus" in err and "thm3.4" not in err
    # rejected before the file is read
    code, _, err = run_cli(capsys, "report", str(tmp_path / "missing.json"),
                           "--check", "thm3")
    assert code == 2
    assert "thm3" in err and "cannot read" not in err
    # a list with no selector in it selects nothing either
    for empty in (",", ""):
        code, out, _ = run_cli(capsys, "report", str(taft3_file),
                               "--check", empty)
        assert (code, out) == (2, ""), repr(empty)


def test_report_json_is_byte_stable(taft3_file, tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert run_cli(capsys, "report", str(taft3_file), "--json",
                   "--out", str(out1))[0] == 0
    assert run_cli(capsys, "report", str(taft3_file), "--json",
                   "--out", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["all_ok"] is True
    assert doc["index"] == {"n": 3, "s4_order": 3, "g_order": 3}


def test_report_omega_power(taft3_file, capsys):
    code, out, _ = run_cli(capsys, "report", str(taft3_file),
                           "--json", "--omega", "2")
    assert code == 0
    assert json.loads(out)["x_exponent"] == 1


@pytest.mark.parametrize("zoo_args, power", [(["sweedler"], 2),
                                              (["taft", "--n", "3"], 3)])
def test_report_rejects_omega_power_sharing_a_factor_with_the_index(
        zoo_args, power, tmp_path, capsys):
    # sweedler has index 2 and taft(3) index 3: zeta_n^power is not
    # primitive on either, whether or not the index is odd
    path = tmp_path / "h.json"
    assert run_cli(capsys, "zoo", *zoo_args, "--out", str(path))[0] == 0
    code, out, err = run_cli(capsys, "report", str(path), "--json",
                             "--omega", str(power))
    assert (code, out) == (2, "")
    assert f"omega power {power} is not coprime" in err


def test_report_exit_three_with_lift_hint(tmp_path, capsys):
    z5 = tmp_path / "z5.json"
    assert run_cli(capsys, "zoo", "group", "--cyclic", "5",
                   "--out", str(z5))[0] == 0
    dual_path = tmp_path / "z5dual.json"
    assert run_cli(capsys, "dual", str(z5), "--out", str(dual_path))[0] == 0
    code, _, err = run_cli(capsys, "report", str(dual_path))
    assert code == 3
    assert "cyclotomic" in err and "hint:" in err


def test_file_round_trip_is_byte_identical(taft3_file, tmp_path, capsys):
    from hopf_forge.cli import (canonical_bytes, load_presentation,
                                presentation_to_document)
    h = load_presentation(str(taft3_file))
    again = canonical_bytes(presentation_to_document(h))
    assert again == taft3_file.read_bytes()


def test_tensor_command_with_lift(tmp_path, capsys):
    t3 = tmp_path / "t3.json"
    z5 = tmp_path / "z5.json"
    assert run_cli(capsys, "zoo", "taft", "--n", "3",
                   "--out", str(t3))[0] == 0
    assert run_cli(capsys, "zoo", "group", "--cyclic", "5",
                   "--out", str(z5))[0] == 0
    out = tmp_path / "t3z5.json"
    code, _, err = run_cli(capsys, "tensor", "--a", str(t3), "--b", str(z5),
                           "--lift-order", "15", "--out", str(out))
    assert code == 0, err
    doc = json.loads(out.read_text())
    assert doc["dim"] == 45 and doc["cyclotomic_order"] == 15
    # without lifting the orders differ and the build must refuse
    assert run_cli(capsys, "tensor", "--a", str(t3),
                   "--b", str(z5), "--out", str(out))[0] == 2


def test_console_script_end_to_end(tmp_path):
    path = tmp_path / "sw.json"
    build = subprocess.run(
        [sys.executable, "-m", "hopf_forge.cli", "zoo", "sweedler",
         "--out", str(path)],
        capture_output=True, text=True, env=_CHILD_ENV)
    assert build.returncode == 0, build.stderr
    verify = subprocess.run(
        [sys.executable, "-m", "hopf_forge.cli", "verify", str(path)],
        capture_output=True, text=True, env=_CHILD_ENV)
    assert verify.returncode == 0, verify.stderr
    assert "associativity: ok" in verify.stdout


def test_report_does_not_import_sympy(tmp_path):
    path = str(tmp_path / "t3.json")
    script = (
        "import sys\n"
        "from hopf_forge.cli import main\n"
        f"assert main(['zoo', 'taft', '--n', '3', '--out', {path!r}]) == 0\n"
        f"assert main(['report', {path!r}, '--json']) == 0\n"
        "sys.stderr.write('sympy loaded: %s' % ('sympy' in sys.modules))\n")
    run = subprocess.run([sys.executable, "-c", script],
                         capture_output=True, text=True, env=_CHILD_ENV)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["dim"] == 9
    assert run.stderr.endswith("sympy loaded: False")


def test_cli_import_generates_no_code():
    # every CLI process pays for what importing the package pulls in:
    # dataclasses brings inspect, ast, dis and tokenize and compiles code
    # for each decorated class; typing, random and sympy are never needed
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "import hopf_forge.cli\n"
              "print(' '.join(sorted(set(sys.modules) - before)))\n")
    run = subprocess.run([sys.executable, "-S", "-c", script],
                         capture_output=True, text=True, env=_CHILD_ENV)
    assert run.returncode == 0, run.stderr
    added = set(run.stdout.split())
    assert "hopf_forge.cli" in added
    banned = {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing",
              "random", "sympy"}
    assert sorted(added & banned) == []
