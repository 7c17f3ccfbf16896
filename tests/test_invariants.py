"""Index, eigenspace decomposition, normal form, alternating form, trace
congruences, coradical filtration, and the aggregated check report.

The Taft family doubles as an oracle: the action of S^2 and of right
translation by g on the monomial basis is known in closed form, so the
decomposition can be checked against explicitly constructed eigenvectors
rather than against the library's own refinement."""

import pytest

from hopf_forge import (CHECK_TAGS, BadParameters, EigenTable,
                        HopfPresentation, IndexData, IndexEven, IndexOne,
                        Lemma24Result, Mat, NonCommuting, NonSplitting,
                        NotARootPower, NotInvariant, OffPatternBlock,
                        PreconditionFailed,
                        SpectrumNotPlusMinusOne, Subspace,
                        alternating_form_check, build_report, build_taft,
                        check_dim_symmetry, compute_index, coradical,
                        coradical_is_subcoalgebra, coradical_traces, cyc,
                        eigen_decomposition, find_grouplikes, h_plus_minus,
                        index_bound, integral_pair, lemma24_check,
                        normal_form, omega_for_index, projection_traces,
                        root_of_unity, trace_s2p_report, x_exponent)
from hopf_forge import invariants
from hopf_forge.invariants import NormalForm, selects


def table_of(h, power=1):
    return eigen_decomposition(
        h, omega_for_index(h, compute_index(h).n, power))


# -- index and omega ---------------------------------------------------------------


def test_index_of_corpus(corpus, sw):
    expect = {
        "k[Z3]": IndexData(1, 1, 1), "k[Z5]": IndexData(1, 1, 1),
        "k[Z15]": IndexData(1, 1, 1), "k[Z3xZ3]": IndexData(1, 1, 1),
        "taft(3)": IndexData(3, 3, 3), "taft(5)": IndexData(5, 5, 5),
        "dual(taft(3))": IndexData(3, 3, 3),
    }
    for name, h in corpus.items():
        want = expect.get(name, IndexData(3, 3, 3))  # tensor keeps index 3
        assert compute_index(h) == want, name
    assert compute_index(sw) == IndexData(2, 1, 2)


def test_index_bound(t3):
    assert index_bound(t3) == 4 * 9 * 3


def test_omega_for_index(t3, t3z5, z3, z5):
    assert omega_for_index(t3, 3) == root_of_unity(3, 1)
    assert omega_for_index(t3, 3, power=2) == root_of_unity(3, 2)
    assert omega_for_index(t3z5, 3) == root_of_unity(15, 5)
    assert omega_for_index(t3z5, 5) == root_of_unity(15, 3)
    assert omega_for_index(z3, 1) == cyc(1, 1)
    assert omega_for_index(z3, 2) == cyc(1, -1)  # -1 is rational
    with pytest.raises(BadParameters):
        omega_for_index(t3, 3, power=3)
    with pytest.raises(NonSplitting):
        omega_for_index(z5, 3)  # no cube root of unity over Q


def test_x_exponent_taft(t3, t5):
    assert x_exponent(t3, root_of_unity(3, 1), 3) == 2
    assert x_exponent(t3, root_of_unity(3, 2), 3) == 1
    assert x_exponent(t5, root_of_unity(5, 1), 5) == 4


def test_x_exponent_agrees_with_alpha_of_g(t3z5):
    from hopf_forge import distinguished_character, distinguished_grouplike
    h = t3z5
    n = compute_index(h).n
    omega = omega_for_index(h, n)
    x = x_exponent(h, omega, n)
    alpha = distinguished_character(h)
    g = distinguished_grouplike(h)
    assert omega ** x == h.pair(alpha, g)


def alpha_trivial_fixture():
    """Commutative multiplication (alpha = counit) with a crafted
    comultiplication whose distinguished grouplike is nontrivial.  Not a
    Hopf algebra; it exists to drive guard branches the genuine corpus
    cannot reach (a real Hopf algebra that is unimodular with g != 1 is
    beyond desk scale)."""
    one, zero = cyc(1, 1), cyc(1, 0)
    return HopfPresentation(
        name="alpha-trivial", dim=3, order=1,
        mult_entries=[(i, j, (i + j) % 3, one)
                      for i in range(3) for j in range(3)],
        comult_entries=[(0, 0, 0, one), (0, 1, 0, one),
                        (1, 2, 1, one), (2, 1, 2, one)],
        unit=(one, zero, zero), counit=(one, one, one))


def test_x_exponent_rejects_non_root_value():
    h = alpha_trivial_fixture()
    # alpha(g) = eps((1,1,0)) = 2, which is no power of -1
    with pytest.raises(NotARootPower):
        x_exponent(h, cyc(1, -1), 2)


# -- eigenspace decomposition --------------------------------------------------------


def test_taft_fourier_eigenvector_oracle(t3, t5):
    # on monomials: S^2(g^i x^j) = w^(-j) g^i x^j and
    # (g^i x^j) g = w^j g^(i+1) x^j, so f = sum_i w^(-it) e_(i n + j) is a
    # joint eigenvector: S^2 f = w^(-j) f and f.g = w^(j+t) f
    for h, n in ((t3, 3), (t5, 5)):
        table = table_of(h)
        from hopf_forge import distinguished_grouplike
        s2 = h.s_power_matrix(2)
        rg = h.right_mult_matrix(distinguished_grouplike(h))
        omega = table.omega
        zero = cyc(h.order, 0)
        for j in range(n):
            for t in range(n):
                f = [zero] * h.dim
                for i in range(n):
                    f[i * n + j] = root_of_unity(h.order, (-i * t) % h.order)
                assert tuple(s2.apply(f)) == tuple(
                    c * omega ** ((n - j) % n) for c in f)
                assert tuple(rg.apply(f)) == tuple(
                    c * omega ** ((j + t) % n) for c in f)
                assert table.spaces[(0, (n - j) % n, (j + t) % n)].contains(f)
        assert sum(table.dims.values()) == h.dim
        assert all(table.dims[(0, i, j)] == 1
                   for i in range(n) for j in range(n))
        assert all(table.dims[(1, i, j)] == 0
                   for i in range(n) for j in range(n))


def test_pattern_partner_formula(t3):
    table = table_of(t3)
    x, n = table.x_exp, table.n
    for (a, i, j) in table.labels():
        assert table.pattern_partner((a, i, j)) == \
            ((-a) % 2, (-x - i) % n, (x - j) % n)
        # the partner relation is an involution
        assert table.pattern_partner(table.pattern_partner((a, i, j))) == \
            (a, i, j)


def test_eigen_projections_resolve_identity(t3):
    # the projection onto H_key is E_key = sum of P[:, c] Pinv[c] over the
    # key's columns c; the E_key sum to P Pinv, and E_a E_b is
    # P_a (Pinv_a P_b) Pinv_b, so P Pinv = I and Pinv P = I say exactly
    # that they resolve the identity, are idempotent and are orthogonal
    table = table_of(t3)
    p, labels = table.eigen_basis()
    pinv = table.eigen_basis_inverse()
    ident = Mat.identity(t3.order, t3.dim)
    assert p @ pinv == ident
    assert pinv @ p == ident
    for c, key in enumerate(labels):
        assert table.spaces[key].contains(p.col(c))
    assert len(set(labels)) > 1


def test_eigen_decomposition_guards(z15, sw, t3):
    with pytest.raises(IndexOne):
        table_of(z15)
    with pytest.raises(IndexEven):
        eigen_decomposition(sw, cyc(1, -1))
    # doctored antipode: S^2 no longer commutes with translation by g
    diag = [[cyc(3, 0)] * 9 for _ in range(9)]
    for i in range(9):
        diag[i][i] = root_of_unity(3, 1) if i == 1 else cyc(3, 1)
    doctored = HopfPresentation(
        name="doctored", dim=9, order=3,
        mult_entries=[(i, j, k, c) for i in range(9) for j in range(9)
                      for k, c in t3.mult[i][j].items()],
        comult_entries=[(i, j, k, c) for i in range(9)
                        for (j, k), c in t3.comult[i].items()],
        unit=t3.unit, counit=t3.counit, antipode=Mat(3, diag))
    with pytest.raises(NonCommuting):
        eigen_decomposition(doctored, root_of_unity(3, 1))


def test_dim_symmetry_and_perturbation_witness(t3, t5):
    for h in (t3, t5):
        table = table_of(h)
        ok, witness = check_dim_symmetry(table)
        assert ok and witness is None
    table = table_of(t3)
    dims = dict(table.dims)
    dims[(0, 0, 1)] += 1  # partner (0, 1, 1) keeps dimension 1
    broken = EigenTable(omega=table.omega, n=table.n, x_exp=table.x_exp,
                        spaces=table.spaces, dims=dims)
    ok, witness = check_dim_symmetry(broken)
    assert not ok
    assert witness == ((0, 0, 1), (0, 1, 1), 2, 1)


# -- normal form -----------------------------------------------------------------


def test_normal_form_taft(t3):
    table = table_of(t3)
    nf = normal_form(t3, table)
    assert nf.x_vec == (0, 1, 2)  # x = 2, so -x = 1 mod 3
    # blockwise reconstruction returns Delta(Lambda) exactly
    flat = [cyc(3, 0)] * 81
    lam = integral_pair(t3).integral.coords
    for (j, k), c in t3.comult_pairs(lam).items():
        flat[j * 9 + k] = c
    assert nf.reconstruction(t3) == tuple(flat)
    # nonzero blocks appear only on the pattern, and there are some
    assert nf.components
    for key in nf.components:
        assert table.dims[key] > 0


def test_normal_form_off_pattern_detected(t3):
    table = table_of(t3)
    spaces = dict(table.spaces)
    spaces[(0, 0, 0)], spaces[(0, 0, 1)] = spaces[(0, 0, 1)], spaces[(0, 0, 0)]
    mislabeled = EigenTable(omega=table.omega, n=table.n, x_exp=table.x_exp,
                            spaces=spaces, dims=table.dims)
    with pytest.raises(OffPatternBlock):
        normal_form(t3, mislabeled)


def test_projection_traces_match_dimensions(t3):
    table = table_of(t3)
    traces = projection_traces(t3, table)
    for key, (direct, via_formula) in traces.items():
        assert direct == table.dims[key]
        assert via_formula == table.dims[key]


def test_eq3_checks_catch_a_shifted_eigen_basis_inverse(t3):
    # the eq3 stages read Pinv; a wrong entry there must not slip through
    table = table_of(t3)
    p, labels = table.eigen_basis()
    pinv = table.eigen_basis_inverse()

    def shifted(r, c):
        rows = [list(row) for row in pinv.data]
        rows[r][c] = rows[r][c] + 1
        return EigenTable(omega=table.omega, n=table.n, x_exp=table.x_exp,
                          spaces=table.spaces, dims=table.dims,
                          _cache={"basis": (p, labels), "basis_inv":
                                  Mat(t3.order, rows, cols=t3.dim)})

    for r in range(t3.dim):
        for c in range(t3.dim):
            with pytest.raises(OffPatternBlock):
                normal_form(t3, shifted(r, c))
    # (Pinv P)[0][0] moves by P[0][0], and with it both traces of the block
    assert p.data[0][0]
    direct, via_formula = projection_traces(t3, shifted(0, 0))[labels[0]]
    assert direct != table.dims[labels[0]]
    assert via_formula != table.dims[labels[0]]


# -- lemma 2.4 -------------------------------------------------------------------


def test_lemma24_on_taft(t3, t5):
    for h in (t3, t5):
        table = table_of(h)
        res = lemma24_check(h, table, 1)
        assert res.difference_ok and res.difference_witness is None
        assert res.j_independence_ok is True


def test_lemma24_wrong_d_gives_witness(t3):
    table = table_of(t3)
    res = lemma24_check(t3, table, 2)
    assert not res.difference_ok
    assert res.difference_witness == (0, 0)


def test_lemma24_j_independence_reports_first_witness(t3):
    table = table_of(t3)
    dims = dict(table.dims)
    dims[(0, 0, 1)] += 1
    dims[(1, 2, 1)] += 1
    broken = EigenTable(omega=table.omega, n=table.n, x_exp=table.x_exp,
                        spaces=table.spaces, dims=dims)
    res = lemma24_check(t3, broken, 1)
    assert res.j_independence_ok is False
    assert res.j_independence_witness == (0, 0, 1)


def test_lemma24_requires_nontrivial_grouplike(t3, z15):
    table = table_of(t3)
    with pytest.raises(PreconditionFailed):
        lemma24_check(z15, table, 1)


def test_lemma24_skips_j_independence_for_trivial_alpha(t3):
    # g != 1 with alpha = counit cannot happen in the desk-scale zoo
    # (it needs a unimodular algebra with nontrivial modular grouplike,
    # e.g. a Drinfeld double); the branch is driven with crafted data
    h = alpha_trivial_fixture()
    table = table_of(t3)
    res = lemma24_check(h, table, 1)
    assert res.difference_ok
    assert res.j_independence_ok is None
    assert res.j_independence_witness is None


# -- alternating form ---------------------------------------------------------------


def test_alternating_form_on_taft(t3, t5):
    for h, n, x in ((t3, 3, 2), (t5, 5, 4)):
        table = table_of(h)
        rep = alternating_form_check(h, table)
        assert rep.ell == (x * (n + 1) // 2) % n
        assert (2 * rep.ell - x) % n == 0
        assert rep.global_full_rank and rep.global_rank == h.dim
        assert rep.v_dim == 0 and rep.v_dim_even
        assert rep.alternating_ok and rep.nondegenerate_on_v
        assert rep.delta_op_ok and rep.delta_op_witness is None


def _v_block_setup(cprime_entries):
    """Synthetic eigen data with a two-dimensional self-paired block
    (1, -l, l).  Every zoo algebra has dim V = 0, so the alternating and
    nondegeneracy branches are driven with crafted coordinates attached
    to a real rank-2 presentation (k[Z2] over Q(zeta_3))."""
    from hopf_forge import build_cyclic_group_algebra
    h = build_cyclic_group_algebra(2, cyclotomic_order=3)
    vkey = (1, 2, 1)  # n = 3, x = 2, l = 1
    table = EigenTable(omega=root_of_unity(3, 1), n=3, x_exp=2,
                       spaces={vkey: None}, dims={vkey: 2})
    ident = Mat.identity(3, 2)
    cprime = Mat(3, [[cyc(3, a) for a in row] for row in cprime_entries])
    nf = NormalForm(x_vec=(0, 1, 2), components={}, labels=(vkey, vkey),
                    p_mat=ident, p_inv=ident, cprime=cprime)
    return h, table, nf


def test_alternating_v_block_accepts_symplectic_form():
    h, table, nf = _v_block_setup([[0, 2], [-2, 0]])
    rep = alternating_form_check(h, table, nf=nf)
    assert rep.v_dim == 2 and rep.v_dim_even
    assert rep.alternating_ok and rep.nondegenerate_on_v
    assert rep.delta_op_ok  # transpose = -block holds for this label


def test_alternating_v_block_rejects_symmetric_form():
    h, table, nf = _v_block_setup([[0, 2], [2, 0]])
    rep = alternating_form_check(h, table, nf=nf)
    assert not rep.alternating_ok
    assert not rep.delta_op_ok
    assert rep.delta_op_witness == ((1, 2, 1), (1, 2, 1))


def test_alternating_v_block_rejects_diagonal_entry():
    h, table, nf = _v_block_setup([[1, 0], [0, -1]])
    rep = alternating_form_check(h, table, nf=nf)
    assert not rep.alternating_ok


def test_alternating_v_block_flags_degenerate_form():
    h, table, nf = _v_block_setup([[0, 0], [0, 0]])
    rep = alternating_form_check(h, table, nf=nf)
    assert rep.alternating_ok and rep.v_dim == 2
    assert not rep.nondegenerate_on_v


# -- parity, congruence, trace -----------------------------------------------------


def test_h_plus_minus(t3, t5, sw, z15):
    assert h_plus_minus(t3, 3) == (9, 0)
    assert h_plus_minus(t5, 5) == (25, 0)
    assert h_plus_minus(sw, 2) == (4, 0)
    assert h_plus_minus(z15, 1) == (15, 0)
    with pytest.raises(SpectrumNotPlusMinusOne):
        h_plus_minus(t3, 1)  # S^2 has eigenvalues beyond +-1


def test_trace_congruence_on_taft(t3, t5):
    for h, p in ((t3, 3), (t5, 5)):
        tc = trace_s2p_report(h, p, p)
        assert tc.trace == p * p
        assert tc.d == 1
        assert tc.routes_agree and tc.p2_divisible and tc.d_odd
        assert tc.congruence_ok          # 1 = p*p mod 4 for odd p
        assert tc.h_minus_formula_ok     # dim H_- = p(p - p)/2 = 0
        assert (tc.dim_h_plus, tc.dim_h_minus) == (p * p, 0)


def test_trace_congruence_preconditions(t3, z15, t3z5):
    with pytest.raises(PreconditionFailed):
        trace_s2p_report(z15, 3, 5)     # semisimple
    with pytest.raises(PreconditionFailed):
        trace_s2p_report(t3, 3, 5)      # dim 9 != 15
    with pytest.raises(PreconditionFailed):
        trace_s2p_report(t3, 2, 3)      # p must be odd
    with pytest.raises(PreconditionFailed):
        trace_s2p_report(t3, 9, 1)      # not primes
    with pytest.raises(PreconditionFailed):
        trace_s2p_report(t3z5, 3, 15)  # 15 is not prime


# -- coradical -------------------------------------------------------------------


def test_coradical_of_taft_is_group_span(t3, t5):
    for h, n in ((t3, 3), (t5, 5)):
        c = coradical(h)
        assert c.dim == n
        expect = Subspace.from_vectors(
            h.order, h.dim, [h.basis_element(i * n) for i in range(n)])
        assert c == expect
        assert coradical_is_subcoalgebra(h, c)


def test_coradical_dimensions_across_corpus(corpus, sw):
    expect = {"k[Z3]": 3, "k[Z5]": 5, "k[Z15]": 15, "k[Z3xZ3]": 9,
              "taft(3)": 3, "taft(5)": 5, "dual(taft(3))": 3,
              "tensor(taft(3), k[Z5])": 15}
    for name, h in corpus.items():
        c = coradical(h)
        assert c.dim == expect[name], name
        assert coradical_is_subcoalgebra(h, c), name
    assert coradical(sw).dim == 2


def test_coradical_traces_taft3(t3):
    c = coradical(t3)
    res = coradical_traces(t3, c, 3)
    assert res.trace_on_c == 3
    assert res.trace_on_quotient == 6
    assert res.additivity_ok
    assert res.pointed
    assert res.inequality_ok


def test_coradical_pointedness_matches_grouplikes(t5, sw, z3z3):
    for h in (t5, sw, z3z3):
        c = coradical(h)
        assert c.dim == len(find_grouplikes(h))


def test_coradical_traces_on_other_invariant_subspaces(sw):
    # on sweedler's basis (1, x, g, gx), S^2 fixes 1 and g and negates x
    # and gx; the trace on a subspace and on the quotient by it are read
    # by two separate restrictions, and must add up to Tr(S^2) = 0
    one, zero = cyc(1, 1), cyc(1, 0)
    for vectors, on_c in (([[one, zero, zero, zero], [zero, zero, one, zero]],
                           2),
                          ([[zero, one, zero, zero]], -1),
                          ([[one, zero, one, zero], [zero, one, zero, one]],
                           0)):
        res = coradical_traces(sw, Subspace.from_vectors(1, 4, vectors), 1)
        assert (res.trace_on_c, res.trace_on_quotient) == (on_c, -on_c)
        assert res.additivity_ok


def test_coradical_traces_rejects_non_invariant_subspace(sw):
    one, zero = cyc(1, 1), cyc(1, 0)
    bogus = Subspace.from_vectors(1, 4, [[one, one, zero, zero]])
    with pytest.raises(NotInvariant, match=r"not S\^\(2\*1\)-invariant"):
        coradical_traces(sw, bogus, 1)  # S^2(1 + x) = 1 - x leaves the span


# -- the aggregated report ----------------------------------------------------------


def test_readme_library_tour_values():
    h = build_taft(3)
    assert repr(compute_index(h)) == \
        "IndexData(n=3, s4_order=3, g_order=3)"
    assert build_report(h).all_ok is True


def test_report_taft3_values_and_statuses(t3):
    rep = build_report(t3)
    assert rep.all_ok
    assert [tag for tag, _, _ in rep.checks] == list(CHECK_TAGS)
    assert all(status == "pass" for _, status, _ in rep.checks)
    assert rep.index == IndexData(3, 3, 3)
    assert rep.x_exp == 2
    assert rep.trace_s2p == 9 and rep.d == 1
    assert rep.congruence_mod4_ok
    assert (rep.dim_h_plus, rep.dim_h_minus) == (9, 0)
    assert rep.coradical_dim == 3 and rep.pointed
    assert rep.grouplike_count == 3
    assert not rep.semisimple and not rep.cosemisimple and not rep.unimodular
    assert rep.dims[(0, 0, 0)] == 1 and rep.dims[(1, 0, 0)] == 0


def test_report_taft5_all_pass(t5):
    rep = build_report(t5)
    assert rep.all_ok
    assert all(status == "pass" for _, status, _ in rep.checks)
    assert rep.trace_s2p == 25 and rep.d == 1 and rep.x_exp == 4


def test_report_omega_power_changes_x(t3):
    rep = build_report(t3, omega_power=2)
    assert rep.all_ok and rep.x_exp == 1


def test_report_skip_statuses_semisimple(z15):
    rep = build_report(z15)
    assert rep.all_ok
    status = {tag: s for tag, s, _ in rep.checks}
    assert status["thm1.2:trace-variants"] == "pass"
    assert status["eq1:s4-formula"] == "pass"
    assert status["eq2:eigen-partition"] == "skipped:IndexOne"
    assert status["lem3.1:global-form-rank"] == "skipped:IndexOne"
    assert status["cor3.2:h-minus-even"] == "pass"
    assert status["thm2.2:trace-p2d"] == "skipped:Semisimple"
    assert status["thm3.3:congruence-mod4"] == "skipped:Semisimple"
    assert status["thm3.4:coradical-dim-geq-p"] == "skipped:IndexOne"
    assert status["thm3.4:trace-additivity"] == "pass"


def test_report_skip_statuses_even_index(sw):
    rep = build_report(sw)
    assert rep.all_ok
    status = {tag: s for tag, s, _ in rep.checks}
    assert status["eq2:eigen-partition"] == "skipped:IndexEven"
    assert status["thm2.2:trace-p2d"] == "skipped:NotPQ"
    assert status["cor3.2:h-minus-even"] == "pass"
    assert status["thm3.4:coradical-dim-geq-p"] == "pass"


def test_report_selected_filters_checks(t3):
    rep = build_report(t3, selected=["thm3.4", "eq1:s4-formula"])
    tags = [tag for tag, _, _ in rep.checks]
    assert tags == ["eq1:s4-formula", "thm3.4:coradical-dim-geq-p",
                    "thm3.4:trace-additivity",
                    "thm3.4:trace-on-coradical-geq-p"]
    assert rep.all_ok


def test_report_is_deterministic(t3):
    assert build_report(t3).to_document() == build_report(t3).to_document()


def test_report_tensor_product_values(t3z5):
    rep = build_report(t3z5)
    assert rep.all_ok
    assert rep.index == IndexData(3, 3, 3)
    assert rep.dim == 45 and rep.order == 15
    assert (rep.dim_h_plus, rep.dim_h_minus) == (45, 0)
    assert rep.coradical_dim == 15 and rep.pointed
    assert rep.grouplike_count == 15
    status = {tag: s for tag, s, _ in rep.checks}
    detail = {tag: d for tag, _, d in rep.checks}
    assert status["thm2.2:trace-p2d"] == "skipped:NotPQ"  # 45 has 3 factors
    assert status["lem2.4:dim-difference"] == "pass"
    assert detail["lem2.4:dim-difference"] == "d = 5"
    assert status["lem3.1:global-form-rank"] == "pass"
    assert detail["lem3.1:global-form-rank"] == "rank 45 of 45"
    assert status["thm3.4:trace-on-coradical-geq-p"] == "pass"


@pytest.mark.parametrize("name", ["t3", "sw", "z15"])
def test_report_selection_matches_filtered_full_report(name, request):
    # a selected report is the full one filtered by the selector: a check
    # gated on its group must run whenever any one tag of the group is
    # asked for, by whole tag or by the part before the colon
    h = request.getfixturevalue(name)
    full = build_report(h).checks
    selectors = set(CHECK_TAGS) | {tag.split(":")[0] for tag in CHECK_TAGS}
    for s in sorted(selectors):
        expect = [check for check in full if selects(s, check[0])]
        assert expect, s
        assert build_report(h, selected=[s]).checks == expect, s


def _statuses(rep):
    return {tag: (status, detail) for tag, status, detail in rep.checks}


def test_report_off_pattern_block_skips_dependent_checks(t3, monkeypatch):
    message = ("Delta(Lambda) on taft(3) has a nonzero block "
               "(0, 0, 0) (x) (0, 0, 0)")

    def off_pattern(h, t):
        raise OffPatternBlock(message)

    monkeypatch.setattr(invariants, "normal_form", off_pattern)
    rep = build_report(t3)
    assert [tag for tag, _, _ in rep.checks] == list(CHECK_TAGS)
    status = _statuses(rep)
    assert status["eq3:normal-form-pattern"] == ("fail", message)
    for tag in ("eq3:reconstruction", "eq3:projection-traces",
                "lem3.1:global-form-rank", "lem3.1:alternating-even",
                "lem3.1:delta-op-expansion"):
        assert status[tag] == ("skipped:OffPatternBlock", ""), tag
    assert status["lem2.4:dim-difference"] == ("pass", "d = 1")
    assert not rep.all_ok


def test_report_trivial_grouplike_skips_lemma24(t3, monkeypatch):
    message = "distinguished grouplike of taft(3) is trivial"

    def g_trivial(h, t, d):
        raise PreconditionFailed(message)

    monkeypatch.setattr(invariants, "lemma24_check", g_trivial)
    rep = build_report(t3, selected=["lem2.4", "eq3:normal-form-pattern"])
    assert rep.checks == [
        ("lem2.4:dim-difference", "skipped:GTrivial", message),
        ("lem2.4:j-independence", "skipped:GTrivial", message),
        ("eq3:normal-form-pattern", "pass", "")]


def test_report_trivial_alpha_skips_j_independence(t3, monkeypatch):
    monkeypatch.setattr(invariants, "lemma24_check",
                        lambda h, t, d: Lemma24Result(d, True, None,
                                                      None, None))
    rep = build_report(t3, selected=["lem2.4"])
    assert rep.checks == [
        ("lem2.4:dim-difference", "pass", "d = 1"),
        ("lem2.4:j-independence", "skipped:AlphaTrivial", "")]
    assert rep.all_ok
