"""Index, eigenspace decomposition, normal form, alternating form, trace
congruences, coradical filtration, and the aggregated check report.

The Taft family doubles as an oracle: the action of S^2 and of right
translation by g on the monomial basis is known in closed form, so the
decomposition can be checked against explicitly constructed eigenvectors
rather than against the library's own refinement."""

import pytest

from hopf_forge import (CHECK_TAGS, AxiomFailure, BadParameters, EigenTable,
                        HopfPresentation, IndexData, IndexEven, IndexOne,
                        Lemma24Result, Mat, NonSplitting, NotInvariant,
                        NotInvertible, OffPatternBlock, PreconditionFailed, Subspace,
                        alternating_form_check, build_report, build_taft,
                        build_cyclic_group_algebra, build_tensor,
                        check_dim_symmetry,
                        compute_index, coradical, coradical_is_subcoalgebra,
                        coradical_traces, cyc, dual, eigen_decomposition,
                        eigenspace, find_grouplikes, h_plus_minus,
                        integral_coproduct, integral_pair, lemma24_check,
                        lift_order, normal_form, omega_for_index,
                        projection_traces, root_of_unity, trace_s2p_report,
                        x_exponent)
from hopf_forge import invariants
from hopf_forge.invariants import InvariantReport, NormalForm, selects
from hopf_forge.cli import (document_to_presentation, main,
                            presentation_to_document)
from conftest import basis_element, outcome, taken_as_certified


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


def test_index_bound(corpus, sw, t3):
    # both orders divide dim H (Radford, Nichols-Zoeller), which bounds
    # compute_index's search; the order-999 reading of taft(3)'s file,
    # once a power scan toward 4 dim N, is refused by its certification
    for h in list(corpus.values()) + [sw]:
        index = compute_index(h)
        assert h.dim % index.s4_order == 0 and h.dim % index.g_order == 0
    doc = presentation_to_document(t3)
    doc["cyclotomic_order"] = 999
    with pytest.raises(AxiomFailure, match=r"^associativity: "
                       r"\(e1 e1\) e3 != e1 \(e1 e3\)$"):
        compute_index(document_to_presentation(doc))


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
    assert x_exponent(t3, root_of_unity(3, 1)) == 2
    assert x_exponent(t3, root_of_unity(3, 2)) == 1
    assert x_exponent(t5, root_of_unity(5, 1)) == 4


def test_x_exponent_agrees_with_alpha_of_g(t3z5):
    from hopf_forge import distinguished_character, distinguished_grouplike
    h = t3z5
    n = compute_index(h).n
    omega = omega_for_index(h, n)
    x = x_exponent(h, omega)
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
    # alpha(g) = eps((1,1,0)) = 2 on the fixture, no power of -1; the
    # fixture is no bialgebra, and its certification names the axiom
    h = alpha_trivial_fixture()
    with pytest.raises(AxiomFailure, match=r"^coassociativity: "
                       r"coassociativity fails on e0$"):
        x_exponent(h, cyc(1, -1))


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
                space = table.spaces[(0, (n - j) % n, (j + t) % n)]
                assert space.coords_of(f) is not None
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


def test_eigen_projections_resolve_identity(t3, t5, t3z5):
    # the projection onto H_key is E_key = sum of P[:, c] Pinv[c] over the
    # key's columns c; the E_key sum to P Pinv, and E_a E_b is
    # P_a (Pinv_a P_b) Pinv_b, so P Pinv = I and Pinv P = I say exactly
    # that they resolve the identity, are idempotent and are orthogonal
    for h in (t3, t5, t3z5):
        table = table_of(h)
        p, labels, pinv = table.p, table.p_labels, table.p_inv
        ident = Mat.identity(h.order, h.dim)
        assert p @ pinv == ident
        assert pinv @ p == ident
        assert len(labels) == p.cols == h.dim
        for c, key in enumerate(labels):
            assert table.spaces[key].coords_of(p.col(c)) is not None
        assert len(set(labels)) > 1


def test_eigen_decomposition_guards(z15, sw, t3):
    with pytest.raises(IndexOne):
        table_of(z15)
    with pytest.raises(IndexEven):
        eigen_decomposition(sw, cyc(1, -1))
    # doctored antipode: S^2 no longer commutes with translation by g,
    # and the antipode axiom fails
    diag = [[cyc(3, 0)] * 9 for _ in range(9)]
    for i in range(9):
        diag[i][i] = root_of_unity(3, 1) if i == 1 else cyc(3, 1)
    doctored = HopfPresentation(
        name="doctored", dim=9, order=3,
        mult_entries=[(i, j, k, c) for i in range(9) for j in range(9)
                      for k, c in t3.mult[i][j]],
        comult_entries=[(i, j, k, c) for i in range(9)
                        for (j, k), c in t3.comult[i].items()],
        unit=t3.unit, counit=t3.counit, antipode=Mat(3, diag))
    with pytest.raises(AxiomFailure, match=r"^antipode-left: antipode left "
                       r"axiom fails on e1$"):
        eigen_decomposition(doctored, root_of_unity(3, 1))


def test_eigen_decomposition_reports_a_translation_that_does_not_split(t3):
    # taft(3) with e0 e3 shifted by e3 keeps its antipode and index 3, but
    # right translation by g no longer diagonalizes; the product is no
    # longer associative, which its certification reports first
    mult, comult = t3.entries("mult"), t3.entries("comult")
    shifted = HopfPresentation(
        name=t3.name, dim=9, order=3,
        mult_entries=[*mult, (0, 3, 3, cyc(3, 1))], comult_entries=comult,
        unit=t3.unit, counit=t3.counit, antipode=t3.antipode)
    with pytest.raises(AxiomFailure, match=r"^associativity: "
                       r"\(e0 e0\) e3 != e0 \(e0 e3\)$"):
        table_of(shifted)


def test_eigen_split_stops_once_a_translation_eigenspace_is_full(
        monkeypatch, t3z5):
    # n = 3: three translation eigenspaces W_j, then the S^2 labels of
    # each W_j until they fill it; the 9 labels left are {0} unsolved
    h = document_to_presentation(presentation_to_document(t3z5))
    omega = omega_for_index(h, compute_index(h).n)
    calls, original = [], invariants.eigenspace

    def counting(m, c):
        calls.append(c)
        return original(m, c)

    monkeypatch.setattr(invariants, "eigenspace", counting)
    table = eigen_decomposition(h, omega)
    assert len(calls) == 12
    assert sum(table.dims.values()) == h.dim


def test_a_short_eigen_partition_is_a_library_error(monkeypatch, tmp_path,
                                                    capsys):
    # the table's inverse(P) proves that the blocks span H: the first S^2
    # split of a translation eigenspace of taft(3), forced to {0}, leaves
    # P short, and report exits 1 with the error, not a traceback
    path = str(tmp_path / "t3.json")
    assert main(["zoo", "taft", "--n", "3", "--out", path]) == 0
    original, forced = invariants.eigenspace, []

    def short(m, c):
        if m.rows < 9 and not forced:
            forced.append(c)
            return Subspace.from_vectors(m.order, m.cols, ())
        return original(m, c)

    monkeypatch.setattr(invariants, "eigenspace", short)
    with pytest.raises(NotInvertible, match="^non-square matrix$"):
        table_of(build_taft(3))
    assert forced
    forced.clear()
    capsys.readouterr()
    assert main(["report", path]) == 1
    assert forced
    assert capsys.readouterr() == ("", "error: non-square matrix\n")


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
    assert nf.table is table and table.x_exp == 2
    # blockwise reconstruction returns Delta(Lambda) exactly
    flat = [cyc(3, 0)] * 81
    lam = integral_pair(t3).integral
    for (j, k), c in t3.comult_pairs(lam).items():
        flat[j * 9 + k] = c
    assert nf.reconstruction() == tuple(flat)
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
    with pytest.raises(OffPatternBlock) as exc:
        normal_form(t3, mislabeled)
    # the first off-pattern entry of C' in row-major order is named
    assert str(exc.value) == (
        "Delta(Lambda) on taft(3) has a nonzero block (0, 0, 0) (x) "
        "(0, 1, 1); expected partner (0, 1, 2)")


def _flat_delta_lambda(h):
    return tuple(c for row in integral_coproduct(h).data for c in row)


@pytest.mark.parametrize("name", ["t3", "t5", "t3z5"])
def test_normal_form_blocks_are_expanded_on_demand(name, request):
    h = request.getfixturevalue(name)
    table = table_of(h)
    nf = normal_form(h, table)
    assert nf.reconstruction() == _flat_delta_lambda(h)
    parts = nf.components
    # one part per label of a nonzero row of C'
    assert set(parts) == {table.p_labels[r] for r, row
                          in enumerate(nf.cprime.nonzeros()) if row}
    total = [cyc(h.order, 0)] * (h.dim * h.dim)
    for key, part in parts.items():
        m = [[cyc(h.order, 0)] * h.dim for _ in range(h.dim)]
        for (j, k), c in part.items():
            m[j][k] = c
            total[j * h.dim + k] = total[j * h.dim + k] + c
        # the part lies in H_key (x) H_partner: its columns in H_key, its
        # rows in H_partner
        left = table.spaces[key]
        right = table.spaces[table.pattern_partner(key)]
        assert all(left.coords_of([row[k] for row in m]) is not None
                   for k in range(h.dim))
        assert all(right.coords_of(row) is not None for row in m)
    assert tuple(total) == nf.reconstruction()


def test_report_reconstruction_fails_on_a_shifted_cprime(t3, monkeypatch):
    nf = normal_form(t3, table_of(t3))
    r, s = next((r, row[0][0]) for r, row
                in enumerate(nf.cprime.nonzeros()) if row)
    rows = [list(row) for row in nf.cprime.data]
    rows[r][s] = rows[r][s] + 1  # stays on the pairing pattern
    bent = nf._replace(cprime=Mat(t3.order, rows, cols=t3.dim))
    monkeypatch.setattr(invariants, "normal_form", lambda h, t: bent)
    status = _statuses(build_report(t3))
    assert status["eq3:normal-form-pattern"] == ("pass", "")
    assert status["eq3:reconstruction"] == ("fail", "")
    assert bent.reconstruction() != _flat_delta_lambda(t3)


def test_projection_traces_match_dimensions(t3):
    table = table_of(t3)
    traces = projection_traces(t3, table)
    for key, (direct, via_formula) in traces.items():
        assert direct == table.dims[key]
        assert via_formula == table.dims[key]


def test_eq3_checks_catch_a_shifted_eigen_basis_inverse(t3):
    # the eq3 stages read Pinv; a wrong entry there must not slip through
    table = table_of(t3)
    p, labels, pinv = table.p, table.p_labels, table.p_inv

    def shifted(r, c):
        # a new table: the one eigen_decomposition returned is shared
        # through the memo, so it is never mutated
        rows = [list(row) for row in pinv.data]
        rows[r][c] = rows[r][c] + 1
        bent = EigenTable(omega=table.omega, n=table.n, x_exp=table.x_exp,
                          spaces=table.spaces, dims=table.dims)
        bent.p_inv = Mat(t3.order, rows, cols=t3.dim)
        return bent

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
    h = taken_as_certified(alpha_trivial_fixture())
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


def _v_block_setup(cprime_entries, keys=((1, 2, 1), (1, 2, 1))):
    """Synthetic eigen data: basis vector e_c of k^2 gets label keys[c],
    by default both the self-paired block (1, -l, l) (n = 3, x = 2,
    l = 1).  Every zoo algebra has dim V = 0, so the alternating and
    nondegeneracy branches are driven with crafted coordinates attached
    to a fresh rank-2 presentation (k[Z2] over Q(zeta_3)), whose memo
    holds the crafted C' as the table's normal form."""
    h = build_cyclic_group_algebra(2, cyclotomic_order=3)
    rows = Mat.identity(3, 2).data
    spaces = {key: Subspace.from_vectors(
        3, 2, [row for k, row in zip(keys, rows) if k == key]) for key in keys}
    table = EigenTable(omega=root_of_unity(3, 1), n=3, x_exp=2,
                       spaces=spaces,
                       dims={key: sub.dim for key, sub in spaces.items()})
    assert table.p == Mat.identity(3, 2) and table.p_labels == keys
    cprime = Mat(3, [[cyc(3, a) for a in row] for row in cprime_entries])
    h._cache[("normal_form", table)] = NormalForm(table=table, cprime=cprime)
    return h, table


def test_alternating_v_block_accepts_symplectic_form():
    h, table = _v_block_setup([[0, 2], [-2, 0]])
    rep = alternating_form_check(h, table)
    assert rep.v_dim == 2 and rep.v_dim_even
    assert rep.alternating_ok and rep.nondegenerate_on_v
    assert rep.delta_op_ok  # transpose = -block holds for this label


def test_alternating_v_block_rejects_symmetric_form():
    h, table = _v_block_setup([[0, 2], [2, 0]])
    rep = alternating_form_check(h, table)
    assert not rep.alternating_ok
    assert not rep.delta_op_ok
    assert rep.delta_op_witness == ((1, 2, 1), (1, 2, 1))


def test_alternating_v_block_rejects_diagonal_entry():
    h, table = _v_block_setup([[1, 0], [0, -1]])
    rep = alternating_form_check(h, table)
    assert not rep.alternating_ok


def test_alternating_v_block_compares_where_only_the_transpose_is_nonzero():
    # C'[0][1] = 0 but C'^T[0][1] = 2 != -1 * 0: the first failure in
    # row-major order sits where C' is zero
    h, table = _v_block_setup([[0, 0], [2, 0]])
    rep = alternating_form_check(h, table)
    assert not rep.delta_op_ok
    assert rep.delta_op_witness == ((1, 2, 1), (1, 2, 1))
    # with distinct labels the witness tells (0, 1) from (1, 0)
    h, table = _v_block_setup([[0, 0], [2, 0]], keys=((1, 2, 1), (1, 2, 2)))
    rep = alternating_form_check(h, table)
    assert rep.delta_op_witness == ((1, 2, 1), (1, 2, 2))


def test_alternating_v_block_flags_degenerate_form():
    h, table = _v_block_setup([[0, 0], [0, 0]])
    rep = alternating_form_check(h, table)
    assert rep.alternating_ok and rep.v_dim == 2
    assert not rep.nondegenerate_on_v


# -- parity, congruence, trace -----------------------------------------------------


def z3_with_quarter_turn():
    """k[Z3] over Q with the stored antipode S = [[0, -1, 0], [1, 0, 0],
    [0, 0, 1]]: S^4 = id and g = 1, so the index is 1, and S^2 = diag(-1,
    -1, 1) has a two-dimensional -1 eigenspace.  S fails the antipode
    axiom, so the presentation is taken as certified."""
    h = build_cyclic_group_algebra(3)
    mult, comult = h.entries("mult"), h.entries("comult")
    s = Mat(1, [[cyc(1, x) for x in row]
                for row in ((0, -1, 0), (1, 0, 0), (0, 0, 1))])
    return taken_as_certified(HopfPresentation(
        name="k[Z3] quarter turn", dim=3, order=1, mult_entries=mult,
        comult_entries=comult, unit=h.unit, counit=h.counit, antipode=s))


def test_h_plus_minus(t3, t5, sw, z15):
    assert h_plus_minus(t3) == (9, 0)
    assert h_plus_minus(t5) == (25, 0)
    assert h_plus_minus(sw) == (4, 0)
    assert h_plus_minus(z15) == (15, 0)
    assert h_plus_minus(z3_with_quarter_turn()) == (1, 2)


def test_report_on_a_nonzero_minus_space():
    h = z3_with_quarter_turn()
    assert compute_index(h).n == 1
    report = build_report(h)
    assert (report.dim_h_plus, report.dim_h_minus) == (1, 2)
    status = {tag: (s, d) for tag, s, d in report.checks}
    assert status["cor3.2:h-minus-even"] == ("pass", "dim H_- = 2")


def test_h_plus_minus_matches_both_kernels(sw, t3, t5, z15, t3d, t3z5):
    for h in (z3_with_quarter_turn(), sw, t3, t5, z15, t3d, t3z5):
        m = h.s_power_matrix(2 * compute_index(h).n)
        plus, minus = (eigenspace(m, cyc(h.order, e)).dim for e in (1, -1))
        assert plus + minus == h.dim, h.name
        assert h_plus_minus(h) == (plus, minus), h.name


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
            h.order, h.dim, [basis_element(h, i * n) for i in range(n)])
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
    assert rep.x_exponent == 2
    assert rep.trace_s2p == 9 and rep.d == 1
    assert rep.congruence_mod4_ok
    assert (rep.dim_h_plus, rep.dim_h_minus) == (9, 0)
    assert rep.coradical_dim == 3 and rep.pointed
    assert rep.grouplike_count == 3
    assert not rep.semisimple and not rep.cosemisimple and not rep.unimodular
    assert rep.eigen_dims[(0, 0, 0)] == 1 and rep.eigen_dims[(1, 0, 0)] == 0


def test_report_taft5_all_pass(t5):
    rep = build_report(t5)
    assert rep.all_ok
    assert all(status == "pass" for _, status, _ in rep.checks)
    assert rep.trace_s2p == 25 and rep.d == 1 and rep.x_exponent == 4


def test_report_omega_power_changes_x(t3):
    rep = build_report(t3, omega_power=2)
    assert rep.all_ok and rep.x_exponent == 1


def test_report_document_keys_are_its_fields(t3, sw):
    # one schema: the document lists the record's fields in order, then
    # all_ok, also when the even index of sweedler leaves eigen_dims None
    for h in (t3, sw):
        rep = build_report(h)
        assert tuple(rep.to_document()) == \
            InvariantReport._fields + ("all_ok",)
    assert rep.eigen_dims is None


def _document_changes(a, b):
    """The keys of report document b whose values differ from a's."""
    return {key for key in a if a[key] != b[key]}


@pytest.mark.parametrize("n", (3, 5, 7))
def test_report_of_a_taft_dual_equals_the_taft_report(n):
    # taft(n) is self-dual, and no report field depends on the basis
    want = build_report(build_taft(n)).to_document()
    got = build_report(dual(build_taft(n))).to_document()
    assert got["all_ok"] and _document_changes(want, got) == {"name"}


@pytest.mark.parametrize("m", (6, 9, 15))
def test_report_is_unchanged_by_a_field_lift(t3, m):
    want = build_report(t3).to_document()
    got = build_report(lift_order(t3, m)).to_document()
    assert _document_changes(want, got) == {"cyclotomic_order"}


@pytest.mark.parametrize("name, p", (("t3", 2), ("t5", 2), ("t5", 3),
                                     ("t5", 4)))
def test_report_omega_power_changes_only_x(name, p, request):
    # alpha(g) = omega^x, so with omega^p in place of omega the exponent
    # x_p solves p * x_p = x_1 (mod n); nothing else moves
    h = request.getfixturevalue(name)
    n = compute_index(h).n
    want = build_report(h).to_document()
    got = build_report(h, omega_power=p).to_document()
    assert _document_changes(want, got) == {"omega_power", "x_exponent"}
    assert p * got["x_exponent"] % n == want["x_exponent"]


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


def test_factor_pq_matches_brute_force():
    # thm2.2 runs only where dim = p q with p <= q odd primes
    primes = [m for m in range(3, 2001) if all(m % r for r in range(2, m))]
    want = {p * q: (p, q) for p in primes for q in primes
            if p <= q and p * q <= 2000}
    for d in range(1, 2001):
        assert invariants._factor_pq(d) == want.get(d), d


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
    assert rep.dim == 45 and rep.cyclotomic_order == 15
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


_KEPT_BY_K_ZM = ("index", "semisimple", "cosemisimple", "unimodular",
                 "pointed", "x_exponent")
_SCALED_BY_K_ZM = ("grouplike_count", "coradical_dim", "dim_h_plus",
                   "dim_h_minus", "trace_s2p_on_coradical",
                   "trace_s2p_on_quotient")


def test_tensoring_with_k_zm_scales_the_report_by_m(t3, z3, t3z5):
    # H (x) k[Z_m] has antipode S (x) id, distinguished grouplike g (x) 1
    # and character alpha (x) eps, grouplikes G(H) x Z_m and coradical
    # H_0 (x) k[Z_m]: the index and flags stay, each S^2 and g eigenspace
    # E becomes E (x) k[Z_m], and dim 9m is no product of two primes
    base = build_report(t3).to_document()
    assert base["trace_s2p"] == 9 and base["d"] == 1
    for m, h in ((3, build_tensor(t3, lift_order(z3, 3))), (5, t3z5)):
        doc = build_report(h).to_document()
        assert [doc[k] for k in _KEPT_BY_K_ZM] == \
            [base[k] for k in _KEPT_BY_K_ZM], m
        assert [doc[k] for k in _SCALED_BY_K_ZM] == \
            [m * base[k] for k in _SCALED_BY_K_ZM], m
        assert doc["eigen_dims"] == {
            label: m * d for label, d in base["eigen_dims"].items()}, m
        assert (doc["trace_s2p"], doc["d"]) == (None, None), m


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


def test_report_rejects_a_selection_that_names_no_check(t3):
    # as the CLI's --check does: no vacuous all_ok for a library caller
    for selected, named in ((["bogus"], "bogus"),
                            (["thm3.4", "bogus"], "bogus"), ([], "[]")):
        with pytest.raises(BadParameters) as exc:
            build_report(t3, selected=selected)
        assert str(exc.value) == f"--check {named}: matches no check tag"


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


def _span(h, *indices):
    return Subspace.from_vectors(h.order, h.dim,
                                 [basis_element(h, i) for i in indices])


def _index_one_trace_report(t3, monkeypatch):
    # the non-semisimple inputs of dimension pq built here are Taft
    # algebras, of index p, so a stand-in index drives this guard
    monkeypatch.setattr(invariants, "compute_index",
                        lambda h: IndexData(n=1, s4_order=1, g_order=1))
    return trace_s2p_report(t3, 3, 3)


@pytest.mark.parametrize("run, expect", (
    (lambda t3, mp: x_exponent(t3, cyc(3, 2)),
     (BadParameters, "omega is not a root of unity of order 3")),
    (lambda t3, mp: x_exponent(t3, cyc(3, 1)),
     (BadParameters, "omega has order 1, not 3")),
    (_index_one_trace_report,
     (PreconditionFailed, "index of taft(3) is 1, not p = 3")),
    # Delta(x) = 1 (x) x + x (x) g in taft(3), basis g^i x^j at 3i + j:
    # span(x) misses the left leg 1, span(1, x) the right leg g
    (lambda t3, mp: coradical_is_subcoalgebra(t3, _span(t3, 1)), False),
    (lambda t3, mp: coradical_is_subcoalgebra(t3, _span(t3, 0, 1)), False),
    (lambda t3, mp: coradical_is_subcoalgebra(t3, _span(t3, 0, 3, 6)), True),
))
def test_guards_name_the_bad_omega_or_index_or_subspace(t3, monkeypatch,
                                                         run, expect):
    assert outcome(run, t3, monkeypatch) == expect
