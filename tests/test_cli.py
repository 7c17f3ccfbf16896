"""Command-line interface: build, verify, report, dual, tensor.

Most tests drive ``main(argv)`` in-process for speed; one test runs
``python -m hopf_forge.cli`` in a child process to cover the module's
entry point.
Exit codes: 0 ok, 1 checks failed, 2 malformed input/parameters,
3 field too small (lift the cyclotomic order)."""

import hashlib
import json
import os
import random
import subprocess
import sys

import pytest
import sympy
from conftest import corrupted, rebased_z2, s3_table, sites

import hopf_forge
from hopf_forge import (BadParameters, Mat, NonSplitting,
                        build_group_algebra, build_taft, dual,
                        omega_for_index)
from hopf_forge.cli import canonical_bytes, main, presentation_to_document

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


@pytest.mark.parametrize("cyclic, message", [
    (["--cyclic", "3,x"], "bad --cyclic value: '3,x'"),
    ([], "group needs --cyclic N[,N2,...]"),
], ids=["bad-list", "missing"])
def test_zoo_group_names_a_bad_cyclic_list(cyclic, message, capsys):
    code, out, err = run_cli(capsys, "zoo", "group", *cyclic)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_missing_roots_of_unity_are_named_by_their_order(z5, capsys):
    with pytest.raises(NonSplitting) as exc:
        omega_for_index(z5, 3)
    assert str(exc.value) == ("Q(zeta_1) has no primitive root of unity of "
                              "order 3; re-present the algebra over "
                              "Q(zeta_6)")
    message = ("Q(zeta_4) contains no primitive root of unity of order 3; "
               "use a cyclotomic order divisible by 3")
    with pytest.raises(BadParameters) as exc:
        build_taft(3, cyclotomic_order=4)
    assert str(exc.value) == message
    code, out, err = run_cli(capsys, "zoo", "taft", "--n", "3",
                             "--order", "4")
    assert (code, out, err) == (2, "", f"error: {message}\n")


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
    # both axioms fail on e0, and no cross-check runs after a failure
    assert out.splitlines()[6:] == [
        "antipode-left: FAIL antipode left axiom fails on e0",
        "antipode-right: FAIL antipode right axiom fails on e0",
        "integrals: ok"]


def _readme_verify_lines():
    """The lines the README shows `verify` printing."""
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("`verify` prints one line per axiom:")[1]
    return block.split("```")[1].strip().splitlines()


def test_verify_cross_checks_a_stored_antipode_with_one_product(
        taft3_file, tmp_path, capsys, monkeypatch):
    # a stored antipode that passed its axioms is checked as
    # S (B C)^T = I: no matrix is inverted and compute_antipode never runs
    calls = []

    def counting(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    for module, name in ((hopf_forge.linalg, "inverse"),
                         (hopf_forge.hopf, "inverse"),
                         (hopf_forge.hopf, "compute_antipode"),
                         (hopf_forge.cli, "compute_antipode")):
        monkeypatch.setattr(module, name,
                            counting(name, getattr(module, name)))
    expect = _readme_verify_lines()
    assert len(expect) == 10 and expect[-1] == "antipode-crosscheck: ok"
    dual_file = tmp_path / "t3d.json"
    assert run_cli(capsys, "dual", str(taft3_file), "--out",
                   str(dual_file))[0] == 0
    for path in (taft3_file, dual_file):
        code, out, err = run_cli(capsys, "verify", str(path))
        assert (code, out.splitlines(), err) == (0, expect, ""), path
    assert calls == []
    # with none stored, compute_antipode runs once and inverts once
    doc = json.loads(taft3_file.read_text())
    del doc["antipode"]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", str(bare))
    assert code == 0
    assert out.splitlines() == expect[:6] + [
        "integrals: ok", "antipode: ok (computed; none stored)"]
    assert calls == ["compute_antipode", "inverse"]


def test_crosscheck_reads_the_integral_formula(taft3_file, capsys,
                                               monkeypatch):
    # with the integral form doubled, S (B C)^T = 2 I fails the one
    # product the cross-check makes
    original = hopf_forge.integrals.integral_form

    def doubled(h):
        m = original(h)
        return Mat(m.order, [[2 * x for x in row] for row in m.data],
                   cols=m.cols)

    monkeypatch.setattr(hopf_forge.integrals, "integral_form", doubled)
    code, out, _ = run_cli(capsys, "verify", str(taft3_file))
    assert code == 1
    assert out.splitlines()[-1] == "antipode-crosscheck: FAIL S (B C)^T != I"


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

    def changed(key, value):
        doc = json.loads(text)
        doc[key] = value
        return doc

    doc = json.loads(text)
    comult = [list(e) for e in doc["comult"]]
    comult[0][0] = True
    # each file breaks one rule of the format; json.dumps writes "\ud800"
    # as the escape of a lone surrogate, which no UTF-8 text can hold
    for bad_doc, message in (
            ([doc], "top level must be an object"),
            ({k: v for k, v in doc.items() if k != "counit"},
             "missing key 'counit'"),
            (changed("name", 3), "name must be a string"),
            (changed("dim", True), "dim must be a positive integer"),
            (changed("cyclotomic_order", 0),
             "cyclotomic_order must be a positive integer"),
            (changed("basis", "".join(doc["basis"])),
             "basis must be a list of dim labels"),
            (changed("mult", {}), "mult must be a list of entries"),
            (changed("comult", comult), "comult[0] must be [i, j, k, scalar]"),
            (changed("unit", doc["unit"][1:]),
             "unit must be a list of dim scalars"),
            (changed("name", "t\ud800"),
             "name and labels must be Unicode text"),
            (changed("basis", ["\udfff", *doc["basis"][1:]]),
             "name and labels must be Unicode text")):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(bad_doc))
        assert run_cli(capsys, "verify", str(bad)) == \
            (2, "", f"error: {message}\n"), message


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


def test_report_certifies_a_bialgebra_without_an_antipode(tmp_path,
                                                         capsys):
    # k{1, m} with m^2 = m passes every bialgebra axiom and stores no
    # antipode, so compute_antipode's NoAntipode is the certificate that
    # fails, carrying the integral failure verify prints
    doc = {"name": "k{1,m}", "dim": 2, "cyclotomic_order": 1,
           "basis": ["1", "m"],
           "mult": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 1, 1]],
           "comult": [[0, 0, 0, 1], [1, 1, 1, 1]],
           "unit": [1, 0], "counit": [1, 1]}
    path = tmp_path / "monoid.json"
    path.write_text(json.dumps(doc))
    why = "lambda(Lambda) = 0 on k{1,m}; input is not a Hopf algebra"
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 1 and out.splitlines()[-1] == f"integrals: FAIL {why}"
    code, out, err = run_cli(capsys, "report", str(path), "--json")
    assert (code, out) == (1, "")
    assert err == f"error: no normalized integral pair: {why}\n"


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


def test_report_names_the_axiom_before_translation_by_g_fails_to_split(
        taft3_file, tmp_path, capsys):
    # shifting e0 e3 by e3 keeps the index, and right translation by g
    # would fall short in the eigenspace decomposition; report certifies
    # its input first and exits 1 with the witness verify prints first
    doc = json.loads(taft3_file.read_text())
    entry = next(e for e in doc["mult"] if e[:3] == [0, 3, 3])
    entry[3] = _shifted(entry[3], 1)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "report", str(bad), "--json")
    assert (code, out) == (1, "")
    assert err == "error: associativity: (e0 e0) e3 != e0 (e0 e3)\n"
    code, out, _ = run_cli(capsys, "verify", str(bad))
    assert code == 1
    assert out.splitlines()[0] == \
        "associativity: FAIL (e0 e0) e3 != e0 (e0 e3)"


_AXIOMS = ("associativity", "unit", "coassociativity", "counit",
           "comult-algebra-map", "counit-algebra-map", "antipode-left",
           "antipode-right")


def test_report_certifies_single_entry_corruptions(tmp_path, capsys):
    # unit entries and a seeded sample of mult and comult sites of taft(3)
    # and dual(k[S3]), each shifted alone with the stored antipode kept:
    # report exits 1 on every mutant that fails an axiom, with the
    # witness of verify's first FAIL line, and names no axiom otherwise,
    # as on the unshifted control.  _oracle_axioms, a plain scan of every
    # triple, decides which mutants are no bialgebra
    from test_hopf import _oracle_axioms
    rng = random.Random(32)
    path = tmp_path / "mutant.json"
    verdicts = {"rejected": 0, "kept": 0}
    for h in (build_taft(3),
              dual(build_group_algebra(s3_table(), name="k[S3]"))):
        antipode = presentation_to_document(h)["antipode"]
        cases = [("unit", (i,), shift) for i in range(h.dim)
                 for shift in (1, -1)] + [("unit", (0,), 0)]
        cases += [(table, site, rng.choice((1, -1)))
                  for table in ("mult", "comult")
                  for site in rng.sample(sites(h), 25)]
        for table, site, shift in cases:
            m = corrupted(h, table, site, shift)
            doc = presentation_to_document(m)
            doc["antipode"] = antipode
            path.write_bytes(canonical_bytes(doc))
            _, lines, _ = run_cli(capsys, "verify", str(path))
            code, out, err = run_cli(capsys, "report", str(path), "--json")
            fails = [ln.split(": FAIL ", 1) for ln in lines.splitlines()
                     if ": FAIL " in ln]
            bialgebra = all(ok for _, ok, _ in _oracle_axioms(m))
            assert bialgebra or fails[0][0] in _AXIOMS[:6], m.name
            if fails:
                name, detail = fails[0]
                assert name in _AXIOMS, m.name
                assert (code, out) == (1, ""), m.name
                assert err == f"error: {name}: {detail}\n", m.name
                verdicts["rejected"] += 1
            else:
                assert not err.startswith(
                    tuple(f"error: {a}:" for a in _AXIOMS)), m.name
                verdicts["kept"] += 1
    assert verdicts["rejected"] > 100 and verdicts["kept"] >= 2, verdicts


def test_file_round_trip_is_byte_identical(taft3_file, tmp_path, capsys):
    from hopf_forge.cli import (canonical_bytes, load_presentation,
                                presentation_to_document)
    h = load_presentation(str(taft3_file))
    again = canonical_bytes(presentation_to_document(h))
    assert again == taft3_file.read_bytes()


# SHA-256 of what the writers emit, so that any change of entry order or
# scalar form in zoo, dual, tensor or the file writer shows
_EMITTED = {
    "t3.json": "5009adfd4edad0458ad2cae180384e23"
               "878da538ca306baf5fa8019b807e5313",
    "t3d.json": "f5ba11fcab9d61564ae458b121572aceb"
                "10c61c91999f68fb95acbfa80541e11",
    "z3z3.json": "3c9f6270497d8971a20c00794168006f"
                 "fced98165bf5000cde2bd48d21a40beb",
    "z5.json": "c4b03ed219b0c1b762e80cd1ef7a0e54"
               "23d6b68d8285bcd13018ebd2e7a0cd16",
    "t3z5.json": "483bbc67330c98276a4bbbd5d04c798b"
                 "940302f6e6bef642ae07a764e6078abe",
    "t5.json": "eaa4ebd748cb9fa1a811af8a8b2bdec5"
               "de7cce6f619cdbc488cd64b96b3761dd",
    "t3r2.json": "7f44d0a91cb9aaafcad15c2cd515dc70"
                 "886e9e9dc03fc035ec0004f1f2b85bb3",
    "sw.json": "afc97f5bc3773e8e888dafc2fc460466"
               "19156eb6305a28afebd0da676afb4e7d",
    "z3.json": "bf3f16128e5d3d2cc3a8d578e6d51e5a"
               "31869191f9b259a9e8522b54381e3f66",
    "t3z3.json": "cbc1c0f5e531d1b20408236f203020b3"
                 "629a3f157ba580b1d103deb74a9e7bb9",
}


def test_emitted_files_are_pinned(tmp_path, capsys):
    def path(name):
        return str(tmp_path / name)

    for name, *args in (
            ("t3.json", "zoo", "taft", "--n", "3"),
            ("t3d.json", "dual", path("t3.json")),
            ("z3z3.json", "zoo", "group", "--cyclic", "3,3"),
            ("z5.json", "zoo", "group", "--cyclic", "5"),
            ("t3z5.json", "tensor", "--a", path("t3.json"),
             "--b", path("z5.json"), "--lift-order", "15"),
            ("t5.json", "zoo", "taft", "--n", "5"),
            ("t3r2.json", "zoo", "taft", "--n", "3", "--root-power", "2"),
            ("sw.json", "zoo", "sweedler"),  # omega = -1
            ("z3.json", "zoo", "group", "--cyclic", "3"),
            # lifts the order-1 antipode of k[Z3] into Q(zeta_3)
            ("t3z3.json", "tensor", "--a", path("t3.json"),
             "--b", path("z3.json"), "--lift-order", "3")):
        code, _, err = run_cli(capsys, *args, "--out", path(name))
        assert code == 0, err
        with open(path(name), "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
        assert digest == _EMITTED[name], name


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


@pytest.mark.parametrize("command", ("report", "zoo", "dual", "tensor"))
def test_unwritable_out_exits_two(taft3_file, tmp_path, capsys, command):
    group = tmp_path / "z2.json"
    assert run_cli(capsys, "zoo", "group", "--cyclic", "2",
                   "--out", str(group))[0] == 0
    args = {"report": ("report", str(taft3_file), "--json"),
            "zoo": ("zoo", "taft", "--n", "3"),
            "dual": ("dual", str(taft3_file)),
            "tensor": ("tensor", "--a", str(group), "--b", str(group))}
    for out in (tmp_path, tmp_path / "absent" / "x.json"):
        code, stdout, err = run_cli(capsys, *args[command], "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err.startswith(f"error: cannot write {out}: ")


def test_integer_scalars_parsed_once_meet_every_check(taft3_file, tmp_path,
                                                      capsys):
    # scalars repeat throughout a file and each is parsed once; true and
    # 1.0 are not integers, even where they equal a scalar parsed before
    doc = json.loads(taft3_file.read_text())
    seen = next(c for *_, c in doc["mult"] if isinstance(c, dict))
    as_floats = {"num": [float(x) for x in seen["num"]], "den": seen["den"]}
    for bad in (True, 1.0, as_floats, {**seen, "den": True}):
        doc["counit"][-1] = bad
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 2 and "bad scalar in counit" in err


def test_report_subset_rejects_an_input_without_a_character(tmp_path,
                                                             capsys):
    # 1 * e_3 := 0 in sweedler: Lambda e_0 leaves the line of Lambda, so
    # there is no distinguished character; whatever checks are selected,
    # report certifies its input first and names the failing axiom
    path = tmp_path / "sw.json"
    assert run_cli(capsys, "zoo", "sweedler", "--out", str(path))[0] == 0
    doc = json.loads(path.read_text())
    for entry in doc["mult"]:
        if entry[:3] == [3, 0, 3]:
            entry[3] = 0
    path.write_text(json.dumps(doc))
    for check in ("eq2", "thm3.4"):
        code, _, err = run_cli(capsys, "report", str(path), "--json",
                               "--check", check)
        assert code == 1
        assert err == "error: associativity: (e1 e2) e0 != e1 (e2 e0)\n"


def test_report_on_a_rebased_group_algebra_with_a_large_constant(
        tmp_path, capsys):
    # c is a 54-digit product of two primes: no root search may factor it
    c = int(sympy.nextprime(10 ** 24) * sympy.nextprime(7 * 10 ** 29))
    path = tmp_path / "z2c.json"
    path.write_bytes(canonical_bytes(presentation_to_document(rebased_z2(c))))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 0, err
    code, out, err = run_cli(capsys, "report", str(path), "--json")
    assert code == 0, err
    z2 = tmp_path / "z2.json"
    assert run_cli(capsys, "zoo", "group", "--cyclic", "2",
                   "--out", str(z2))[0] == 0
    code, want, _ = run_cli(capsys, "report", str(z2), "--json")
    assert code == 0
    got, want = json.loads(out), json.loads(want)
    assert got.pop("name") != want.pop("name")
    assert got == want


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


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
def test_stdout_carries_the_bytes_out_writes(tmp_path, encoding):
    # a label outside both encodings: stdout is UTF-8 whatever the locale
    doc = presentation_to_document(build_taft(3))
    doc["basis"][1] = "\u03be"
    path, out = tmp_path / "t3.json", tmp_path / "t3d.json"
    path.write_bytes(canonical_bytes(doc))
    command = [sys.executable, "-m", "hopf_forge.cli", "dual", str(path)]
    wrote = subprocess.run(command + ["--out", str(out)],
                           capture_output=True, env=_CHILD_ENV)
    assert wrote.returncode == 0, wrote.stderr
    run = subprocess.run(command, capture_output=True,
                         env=dict(_CHILD_ENV, PYTHONIOENCODING=encoding))
    assert (run.returncode, run.stderr) == (0, b"")
    assert run.stdout == out.read_bytes()


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
