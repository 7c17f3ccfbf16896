"""Acceptance gate: the eleven headline guarantees, one test each.

Run with ``pytest -v tests/test_acceptance.py`` to get a one-line
pass/fail verdict per criterion.  These tests intentionally repeat some
coverage from the per-module suites; they are the contract."""

import json
import random
import time

import pytest

from conftest import random_endomorphism
from hopf_forge import (IndexData, alternating_form_check, compute_index,
                        coradical, coradical_is_subcoalgebra,
                        coradical_traces, cyc, eigen_decomposition,
                        h_plus_minus, integral_pair, lemma24_check,
                        normal_form, omega_for_index, projection_traces,
                        radford_trace, restrict_operator, trace_s2p_report,
                        verify_s4_formula)


def decomposition_of(h):
    n = compute_index(h).n
    return eigen_decomposition(h, omega_for_index(h, n))


def test_c01_trace_formula_matches_matrix_trace_under_60s(corpus):
    started = time.monotonic()
    rng = random.Random(20260814)
    for name, h in corpus.items():
        for _ in range(20):
            f = random_endomorphism(h, rng)
            expected = f.trace()
            for variant in (1, 2, 3):
                got = radford_trace(h, f, variant=variant)
                assert got == expected, (name, variant)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"trace sweep took {elapsed:.1f}s"


def test_c02_s4_conjugation_formula_on_every_basis_element(corpus):
    for name, h in corpus.items():
        assert verify_s4_formula(h), name


def test_c03_taft3_invariant_bundle(t3):
    assert compute_index(t3) == IndexData(3, 3, 3)
    rep = trace_s2p_report(t3, 3, 3)
    assert rep.trace == 9 == 3 * 3 * rep.d
    assert rep.d == 1 and rep.d_odd
    assert rep.congruence_ok            # 1 = 9 mod 4
    assert rep.dim_h_minus == 0 and rep.h_minus_formula_ok


def test_c04_taft5_invariant_bundle(t5):
    assert compute_index(t5) == IndexData(5, 5, 5)
    rep = trace_s2p_report(t5, 5, 5)
    assert rep.trace == 25 and rep.d == 1
    assert rep.congruence_ok            # 1 = 25 mod 4


def test_c05_eigenspace_partition_and_symmetry(t3, t5):
    for h in (t3, t5):
        table = decomposition_of(h)
        assert sum(table.dims.values()) == h.dim
        for key in table.labels():
            assert table.dims[key] == table.dims[table.pattern_partner(key)]
        res = lemma24_check(h, table, 1)
        assert res.difference_ok and res.j_independence_ok


def test_c06_normal_form_reconstructs_coproduct_of_integral(t3, t5):
    for h in (t3, t5):
        table = decomposition_of(h)
        nf = normal_form(h, table)  # raises if any block off-pattern
        flat = [cyc(h.order, 0)] * (h.dim * h.dim)
        lam = integral_pair(h).integral
        for (j, k), c in h.comult_pairs(lam).items():
            flat[j * h.dim + k] = c
        assert nf.reconstruction() == tuple(flat)
        for key in nf.components:
            assert table.dims[key] > 0
        for key, (direct, via_projection) in \
                projection_traces(h, table).items():
            assert direct == table.dims[key] == via_projection


def test_c07_bilinear_form_rank_and_coopposite_expansion(corpus):
    for name, h in corpus.items():
        if compute_index(h).n == 1:
            continue
        table = decomposition_of(h)
        rep = alternating_form_check(h, table)
        assert rep.global_full_rank and rep.global_rank == h.dim, name
        assert rep.v_dim % 2 == 0 and rep.v_dim_even, name
        if name in ("taft(3)", "taft(5)"):
            assert rep.delta_op_ok and rep.delta_op_witness is None, name


def test_c08_h_minus_even_on_odd_index_members(corpus):
    seen = 0
    for name, h in corpus.items():
        n = compute_index(h).n
        if n % 2 == 0:
            continue
        seen += 1
        dim_plus, dim_minus = h_plus_minus(h)
        assert dim_minus % 2 == 0, name
        assert dim_plus + dim_minus == h.dim, name
    assert seen == len(corpus)  # every corpus member has odd index


def test_c09_taft3_coradical_bundle(t3):
    c = coradical(t3)
    assert c.dim == 3
    assert coradical_is_subcoalgebra(t3, c)
    restrict_operator(t3.s_power_matrix(6), c)  # S^6-invariance
    res = coradical_traces(t3, c, 3)
    assert res.trace_on_c == 3 and res.inequality_ok        # 3 >= p = 3
    assert res.trace_on_c + res.trace_on_quotient == 9      # additivity
    assert res.additivity_ok
    assert res.pointed


def test_c10_semisimplicity_indicators_agree(corpus):
    for name, h in corpus.items():
        pair = integral_pair(h)
        eps_of_integral = h.pair(h.counit, pair.integral)
        lambda_of_one = h.pair(pair.dual_integral, h.unit)
        trace_s2 = h.s_power_matrix(2).trace()
        flags = (bool(eps_of_integral), bool(lambda_of_one), bool(trace_s2))
        assert flags in {(True, True, True), (False, False, False)}, name
        assert flags[0] == name.startswith("k[Z"), name  # groups split


def test_c11_json_report_is_byte_identical_across_runs(tmp_path, capsys):
    from hopf_forge.cli import main
    src = tmp_path / "t3.json"
    assert main(["zoo", "taft", "--n", "3", "--out", str(src)]) == 0
    runs = []
    for tag in ("a", "b"):
        out = tmp_path / f"report-{tag}.json"
        assert main(["report", str(src), "--json", "--out", str(out)]) == 0
        runs.append(out.read_bytes())
    capsys.readouterr()
    assert runs[0] == runs[1] and runs[0]
    assert json.loads(runs[0])["all_ok"] is True
