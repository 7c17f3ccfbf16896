"""Presentation layer: axiom checks, antipode computation, duality,
harpoon actions, and group-like enumeration (with an independent
polynomial-system oracle for completeness)."""

import itertools
import random

import pytest
import sympy as sp

import hopf_forge.hopf as hopf_module
from hopf_forge import (CycNumber, EigenvalueNotInField, HopfPresentation,
                        MalformedTensor, Mat, NoAntipode, OrderMismatch,
                        Subspace, build_group_algebra,
                        build_taft, build_tensor, check_axioms,
                        compute_antipode, cyc, distinguished_character,
                        distinguished_grouplike, dual, find_grouplikes,
                        integral_pair, is_grouplike, lift_order, null_space,
                        root_of_unity)
from conftest import (basis_element, corrupted, harpoon_left, harpoon_right,
                      outcome, rebased_z2, sites, structure)


def test_axioms_hold_on_corpus(corpus, sw):
    for name, h in corpus.items():
        checklist = check_axioms(h)
        assert not checklist.failures(), name
    assert not check_axioms(sw).failures()


def test_axiom_names_are_stable(t3):
    names = [name for name, _, _ in check_axioms(t3).results]
    assert names == ["associativity", "unit", "coassociativity", "counit",
                     "comult-algebra-map", "counit-algebra-map",
                     "antipode-left", "antipode-right"]


def test_recomputed_antipode_matches_stored(corpus, sw):
    for h in (*corpus.values(), sw):
        assert compute_antipode(h) == h.antipode, h.name


def test_corrupted_antipode_fails_axioms(t3):
    bad = [list(row) for row in t3.antipode.data]
    bad[0][1] = bad[0][1] + 1
    h = HopfPresentation(
        name="corrupted", dim=t3.dim, order=t3.order,
        mult_entries=t3.entries("mult"), comult_entries=t3.entries("comult"),
        unit=t3.unit, counit=t3.counit, antipode=Mat(t3.order, bad))
    checklist = check_axioms(h)
    failed = dict((name, ok) for name, ok, _ in checklist.results)
    assert not failed["antipode-left"] or not failed["antipode-right"]


def test_malformed_tensor_rejected():
    one = cyc(1, 1)
    with pytest.raises(MalformedTensor):
        HopfPresentation(name="bad", dim=2, order=1,
                         mult_entries=[(0, 0, 5, one)], comult_entries=[],
                         unit=(one, cyc(1, 0)), counit=(one, one))


def test_duplicate_entries_accumulate():
    one = cyc(1, 1)
    zero = cyc(1, 0)
    h = HopfPresentation(
        name="acc", dim=1, order=1,
        mult_entries=[(0, 0, 0, cyc(1, 2)), (0, 0, 0, cyc(1, -1))],
        comult_entries=[(0, 0, 0, one)], unit=(one,), counit=(one,))
    assert h.mult[0][0] == ((0, 1),)
    assert not check_axioms(h).failures()
    assert zero not in (c for _, c in h.mult[0][0])


def test_mult_cells_are_sorted_zero_free_pairs_with_one_empty_cell():
    cells = [cell for row in build_taft(5).mult for cell in row]
    assert len({id(cell) for cell in cells if not cell}) == 1
    for cell in cells:
        assert type(cell) is tuple
        assert all(type(pair) is tuple and len(pair) == 2 and pair[1]
                   for pair in cell)
        assert [k for k, _ in cell] == sorted({k for k, _ in cell})
    # duplicates add up, k sorts each cell, and a sum that cancels is ()
    one, two = cyc(1, 1), cyc(1, 2)
    h = HopfPresentation(
        name="cells", dim=2, order=1,
        mult_entries=[(0, 1, 1, one), (0, 1, 0, one), (0, 1, 1, one),
                      (1, 1, 0, two), (1, 1, 0, -two)],
        comult_entries=[], unit=(one, cyc(1, 0)), counit=(one, one))
    assert h.mult[0][1] == ((0, one), (1, two))
    assert h.mult[1][1] == () and h.mult[1][1] is h.mult[0][0]


def test_double_dual_recovers_structure(t3, z5, sw):
    for h in (t3, z5, sw):
        dd = dual(dual(h))
        assert structure(dd) == structure(h), h.name


def test_dual_transposes_antipode(t3):
    d = dual(t3)
    assert d.antipode == t3.antipode.transpose()
    assert d.dim == t3.dim and d.order == t3.order


def test_harpoon_counit_acts_as_identity(t3, sw):
    for h in (t3, sw):
        eps = h.counit
        for i in range(h.dim):
            e = basis_element(h, i)
            assert harpoon_left(h, eps, e) == e
            assert harpoon_right(h, e, eps) == e


def test_harpoon_module_actions_compose(t3d, t3):
    # (beta * gamma) -> h == beta -> (gamma -> h): left harpoon makes H a
    # left module over H* (and symmetrically on the right)
    h = t3
    hd = t3d
    for i in (1, 3):
        for j in (2, 4):
            beta = basis_element(hd, i)
            gamma = basis_element(hd, j)
            prod = hd.multiply(beta, gamma)
            for t in (0, 4, 7):
                e = basis_element(h, t)
                lhs = harpoon_left(h, prod, e)
                rhs = harpoon_left(h, beta, harpoon_left(h, gamma, e))
                assert lhs == rhs
                lhs_r = harpoon_right(h, e, prod)
                rhs_r = harpoon_right(h, harpoon_right(h, e, beta), gamma)
                assert lhs_r == rhs_r


def _seeded_element(h, rng, terms=3):
    """A sparse element with small integer and root-of-unity coordinates."""
    coords = [cyc(h.order, 0)] * h.dim
    for i in rng.sample(range(h.dim), min(terms, h.dim)):
        coords[i] = root_of_unity(h.order, rng.randrange(h.order)) \
            * rng.choice((1, -1, 2))
    return tuple(coords)


def _outer(h, u, v):
    """The dense matrix u v^T."""
    return Mat(h.order, [[x * y for y in v] for x in u])


def test_operator_matrices_match_the_elementwise_definitions(corpus, sw):
    # column t of H_l(beta) is beta -> e_t and of H_r(beta) is e_t <- beta;
    # B_beta[a][c] = beta(e_a e_c)
    rng = random.Random(24)
    for h in (*corpus.values(), sw):
        basis = [basis_element(h, t) for t in range(h.dim)]
        products = [[h.multiply(a, c) for c in basis] for a in basis]
        for beta in (h.counit, distinguished_character(h),
                     integral_pair(h).dual_integral,
                     _seeded_element(h, rng, h.dim)):
            h_l = h.harpoon_matrix(beta, "left")
            h_r = h.harpoon_matrix(beta, "right")
            for t, e in enumerate(basis):
                assert h_l.col(t) == harpoon_left(h, beta, e), h.name
                assert h_r.col(t) == harpoon_right(h, e, beta), h.name
            assert h.form_matrix(beta).data == tuple(
                tuple(h.pair(beta, x) for x in row) for row in products)


def test_multiplication_matrices_compose(corpus, sw):
    # the regular representations: L_a L_b = L_(ab) and R_b R_a = R_(ab)
    rng = random.Random(25)
    for h in (*corpus.values(), sw):
        for _ in range(2):
            a, b = _seeded_element(h, rng), _seeded_element(h, rng)
            ab = h.multiply(a, b)
            assert (h.left_mult_matrix(a) @ h.left_mult_matrix(b)
                    == h.left_mult_matrix(ab)), h.name
            assert (h.right_mult_matrix(b) @ h.right_mult_matrix(a)
                    == h.right_mult_matrix(ab)), h.name


def test_integral_g_alpha_and_counit_are_rank_one_identities(corpus, sw):
    # a Lambda = eps(a) Lambda, Lambda a = alpha(a) Lambda,
    # beta lambda = beta(g) lambda, lambda beta = beta(1) lambda and
    # eps(ab) = eps(a) eps(b)
    for h in (*corpus.values(), sw):
        big, small = integral_pair(h)
        g = distinguished_grouplike(h)
        alpha = distinguished_character(h)
        assert h.right_mult_matrix(big) == _outer(h, big, h.counit), h.name
        assert h.left_mult_matrix(big) == _outer(h, big, alpha), h.name
        assert h.harpoon_matrix(small, "left") == _outer(h, g, small), h.name
        assert h.harpoon_matrix(small, "right") == _outer(h, h.unit, small)
        assert h.form_matrix(h.counit) == _outer(h, h.counit, h.counit)


def test_entry_list_is_sorted_zero_free_and_rebuilds_the_tables(corpus, sw):
    # the rebased k[Z2] has a product with two terms
    for h in (*corpus.values(), sw, rebased_z2(3)):
        mult, comult = h.entries("mult"), h.entries("comult")
        for table in (mult, comult):
            keys = [entry[:3] for entry in table]
            assert keys == sorted(set(keys)), h.name
            assert all(c != 0 for *_, c in table), h.name

        def rebuilt(order):
            return HopfPresentation(
                name=h.name, dim=h.dim, order=h.order,
                mult_entries=order(mult), comult_entries=order(comult),
                unit=h.unit, counit=h.counit)

        again = rebuilt(list)
        assert (again.mult, again.comult) == (h.mult, h.comult), h.name
        # the list does not depend on the order the entries were given in
        again = rebuilt(reversed)
        assert again.entries("mult") == mult, h.name
        assert again.entries("comult") == comult, h.name


def test_apply_s_power(t3):
    for i in range(t3.dim):
        e = basis_element(t3, i)
        assert t3.s_power_matrix(0).apply(e) == e
        s1 = t3.s_power_matrix(1).apply(e)
        assert t3.s_power_matrix(2).apply(e) == \
            tuple(t3.antipode.apply(s1))
    # S has order 2n on the Taft family: S^6 = id for n = 3
    assert t3.s_power_matrix(6) == Mat.identity(t3.order, t3.dim)
    assert t3.s_power_matrix(2) != Mat.identity(t3.order, t3.dim)


# -- group-likes -----------------------------------------------------------------


def test_grouplikes_of_group_algebra_are_basis(z5, z3z3):
    for h in (z5, z3z3):
        found = find_grouplikes(h)
        assert len(found) == h.dim
        expect = {basis_element(h, i) for i in range(h.dim)}
        assert set(found) == expect


def test_grouplikes_of_taft_are_powers_of_g(t3, t5):
    for h, n in ((t3, 3), (t5, 5)):
        found = find_grouplikes(h)
        # basis ordering is g^i x^j at index i*n + j; powers of g sit at j=0
        expect = {basis_element(h, i * n) for i in range(n)}
        assert set(found) == expect


def test_grouplikes_form_a_group(corpus):
    # a group holding 1 and g, each the coordinate tuple that
    # find_grouplikes lists
    for h in corpus.values():
        found = find_grouplikes(h)
        assert h.unit in found, h.name
        assert distinguished_grouplike(h) in found, h.name
        for a in found:
            for b in found:
                assert h.multiply(a, b) in found
            assert tuple(h.antipode.apply(a)) in found, "inverse closes"


def test_dual_taft_grouplikes_are_characters(t3d):
    found = find_grouplikes(t3d)
    assert len(found) == 3
    for g in found:
        assert is_grouplike(t3d, g)


def test_grouplikes_listed_by_lowest_terms_coordinates(t3d, t3z5):
    # the report lists grouplikes in this order
    for h in (t3d, t3z5):
        keys = [tuple((f.numerator, f.denominator)
                      for x in g for f in x.coeffs)
                for g in find_grouplikes(h)]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_zero_is_not_grouplike(t3):
    assert not is_grouplike(t3, (cyc(3, 0),) * t3.dim)


def test_grouplike_enumeration_raises_when_field_too_small(z5):
    with pytest.raises(EigenvalueNotInField):
        find_grouplikes(dual(z5))


def test_grouplike_search_splits_only_the_cocommutative_subspace(
        monkeypatch):
    # every grouplike lies in {a : Delta(a) = Delta^op(a)}, which is
    # 5-dimensional for taft(5); the search never works in all of H
    sizes = []
    original = hopf_module.charpoly

    def recording(m):
        sizes.append(m.rows)
        return original(m)

    monkeypatch.setattr(hopf_module, "charpoly", recording)
    assert len(find_grouplikes(build_taft(5))) == 5
    assert sizes and max(sizes) <= 5


def test_grouplike_search_finds_roots_once_per_polynomial(monkeypatch, t3z5):
    # the search meets many characteristic polynomials that agree once
    # their zero roots are divided out, and searches each of those once
    want = find_grouplikes(t3z5)
    polys, searched = [], []
    charpoly, roots_in_field = (hopf_module.charpoly,
                                hopf_module.roots_in_field)

    def recording_charpoly(m):
        polys.append(charpoly(m))
        return polys[-1]

    def recording_roots(p, order):
        searched.append(tuple(p))
        return roots_in_field(p, order)

    monkeypatch.setattr(hopf_module, "charpoly", recording_charpoly)
    monkeypatch.setattr(hopf_module, "roots_in_field", recording_roots)
    assert hopf_module.find_grouplikes.__wrapped__(t3z5) == want
    stripped = {p[next(i for i, x in enumerate(p) if x):] for p in polys}
    assert len(searched) == len(set(searched)) == len(stripped)
    assert len(polys) > len(stripped)


def test_each_fresh_presentation_runs_its_own_root_search(monkeypatch):
    # no root search outlives its presentation's memo entry
    searched = []
    roots_in_field = hopf_module.roots_in_field

    def recording_roots(p, order):
        searched.append(p)
        return roots_in_field(p, order)

    monkeypatch.setattr(hopf_module, "roots_in_field", recording_roots)
    h = build_taft(3)
    assert len(find_grouplikes(h)) == 3
    first = len(searched)
    assert first and find_grouplikes(h) and len(searched) == first
    assert len(find_grouplikes(build_taft(3))) == 3
    assert len(searched) == 2 * first


def test_scalar_states_are_carried_whole(monkeypatch, corpus):
    # a state on which T_k acts as a scalar is carried on whole;
    # splitting it by its characteristic polynomial instead gives the
    # same grouplikes
    verdicts = []
    acts_as_scalar = hopf_module._acts_as_scalar

    def recording(*args):
        verdicts.append(acts_as_scalar(*args))
        return verdicts[-1]

    monkeypatch.setattr(hopf_module, "_acts_as_scalar", recording)
    want = {name: hopf_module.find_grouplikes.__wrapped__(h)
            for name, h in corpus.items()}
    assert any(verdicts) and not all(verdicts)
    monkeypatch.setattr(hopf_module, "_acts_as_scalar", lambda *args: False)
    for name, h in corpus.items():
        assert hopf_module.find_grouplikes.__wrapped__(h) == want[name], name


def test_states_left_after_the_last_operator_are_closed(monkeypatch):
    # on dual(k[Z2]) over Q, T_0 is the identity on the cocommutative
    # subspace and T_1 splits it, so both grouplikes, the characters
    # (1, 1) and (1, -1), become one-dimensional states only after the
    # last operator; those are closed as any other line is
    closed = []
    line_grouplike = hopf_module._line_grouplike

    def recording(h, w):
        closed.append(line_grouplike(h, w))
        return closed[-1]

    monkeypatch.setattr(hopf_module, "_line_grouplike", recording)
    one, minus = cyc(1, 1), cyc(1, -1)
    found = find_grouplikes(dual(build_group_algebra([[0, 1], [1, 0]])))
    assert found == ((one, minus), (one, one))
    assert len(closed) == 2 and set(closed) == set(found)


def _lowest_terms_key(coords):
    return tuple((f.numerator, f.denominator)
                 for x in coords for f in x.coeffs)


@pytest.mark.parametrize("left", ("taft(3)", "dual(taft(3))"))
def test_grouplikes_of_a_tensor_product_are_the_products(t3, t3d, z3, left):
    # G(A (x) B) = {g (x) h}; build_tensor indexes (i1, i2) as
    # i1 * dim2 + i2, so g (x) h has Kronecker coordinates
    a = {"taft(3)": t3, "dual(taft(3))": t3d}[left]
    b = lift_order(z3, 3)
    want = sorted((tuple(x * y for x in g for y in k)
                   for g in find_grouplikes(a) for k in find_grouplikes(b)),
                  key=_lowest_terms_key)
    got = list(find_grouplikes(build_tensor(a, b)))
    assert len(want) == 9 and got == want


@pytest.mark.parametrize("which", ("taft(5)", "taft(3) x k[Z3]"))
def test_grouplike_search_solves_in_the_state_coordinates(
        monkeypatch, t3, t5, z3, which):
    # each state w of dimension d is split by systems in d unknowns; no
    # solve (kernel or rref of spanning vectors) is as wide as H
    h = t5 if which == "taft(5)" else build_tensor(t3, lift_order(z3, 3))
    want = find_grouplikes(h)
    state = [h.dim]     # the search starts from a subspace of H
    solves = []
    charpoly, terms = hopf_module.charpoly, hopf_module.null_space_of_terms

    def recording_charpoly(m):
        state[0] = m.rows
        return charpoly(m)

    def recording_terms(order, cols, eqs):
        solves.append((cols, state[0]))
        return terms(order, cols, eqs)

    def recording_null_space(m):
        solves.append((m.cols, state[0]))
        return null_space(m)

    class RecordingSubspace(Subspace):
        @staticmethod
        def from_vectors(order, ambient_dim, vectors):
            solves.append((ambient_dim, state[0]))
            return Subspace.from_vectors(order, ambient_dim, vectors)

    monkeypatch.setattr(hopf_module, "charpoly", recording_charpoly)
    monkeypatch.setattr(hopf_module, "null_space_of_terms", recording_terms)
    monkeypatch.setattr(hopf_module, "null_space", recording_null_space,
                        raising=False)
    monkeypatch.setattr(hopf_module, "Subspace", RecordingSubspace)
    assert hopf_module.find_grouplikes.__wrapped__(h) == want
    splits = [(cols, d) for cols, d in solves if d < h.dim]
    assert splits and all(cols <= d for cols, d in splits), solves


def test_grouplikes_do_not_depend_on_the_counit(t3):
    # a grouplike is fixed by Delta alone; scaling a candidate by the
    # counit would change the answer here
    counit = (t3.counit[0] * 2,) + t3.counit[1:]
    h = HopfPresentation(
        name="taft(3), eps(e0) doubled", dim=t3.dim, order=t3.order,
        mult_entries=[(i, j, k, c) for i in range(t3.dim)
                      for j in range(t3.dim)
                      for k, c in t3.mult[i][j]],
        comult_entries=[(i, j, k, c) for i in range(t3.dim)
                        for (j, k), c in t3.comult[i].items()],
        unit=t3.unit, counit=counit)
    assert find_grouplikes(h) == find_grouplikes(t3)


def test_grouplike_with_coordinate_outside_roots_of_unity():
    # k[Z2] over Q(zeta_3) on the basis e0 = 1, e1 = (2 + zeta) g: the
    # grouplike g = e1 / (2 + zeta) = ((1 - zeta) / 3) e1 has a coordinate
    # that is no rational multiple of a root of unity
    zeta = root_of_unity(3, 1)
    one, zero, s = cyc(3, 1), cyc(3, 0), zeta + 2
    h = HopfPresentation(
        name="k[Z2] scaled", dim=2, order=3,
        mult_entries=[(0, 0, 0, one), (0, 1, 1, one), (1, 0, 1, one),
                      (1, 1, 0, s * s)],
        comult_entries=[(0, 0, 0, one), (1, 1, 1, s.inverse())],
        unit=(one, zero), counit=(one, s))
    got = set(find_grouplikes(h))
    assert got == {(one, zero), (zero, (1 - zeta) / 3)}


def test_no_grouplikes_without_cocommutative_elements():
    # Delta(e0) = e0 (x) e1, Delta(e1) = e0 (x) e2, Delta(e2) = e1 (x) e2:
    # Delta(a) = Delta^op(a) forces a = 0
    one, zero = cyc(1, 1), cyc(1, 0)
    h = HopfPresentation(
        name="no cocommutative element", dim=3, order=1,
        mult_entries=[(0, 0, 0, one)],
        comult_entries=[(0, 0, 1, one), (1, 0, 2, one), (2, 1, 2, one)],
        unit=(one, zero, zero), counit=(one, zero, zero))
    assert find_grouplikes(h) == ()


def _oracle_grouplike_vectors(h, min_poly_of_w=None):
    """All solutions of Delta(a) = a (x) a, eps(a) = 1 via sympy.solve,
    independent of the library's eigenvalue machinery.  Scalars are
    rewritten as polynomials in an abstract root w."""
    n = h.dim
    a = sp.symbols(f"a0:{n}")
    w = sp.symbols("w")

    def conv(c):
        expr = sp.Integer(0)
        for t, co in enumerate(c.coeffs):
            if co:
                expr += sp.Rational(co.numerator, co.denominator) * w ** t
        return expr

    eqs = []
    for j in range(n):
        for k in range(n):
            lhs = sp.Integer(0)
            for i in range(n):
                c = h.comult[i].get((j, k))
                if c is not None:
                    lhs += a[i] * conv(c)
            eqs.append(sp.expand(lhs - a[j] * a[k]))
    eqs.append(sum(a[i] * conv(h.counit[i]) for i in range(n)) - 1)
    gens = list(a)
    if min_poly_of_w is not None:
        eqs.append(min_poly_of_w(w))
        gens.append(w)
    sols = sp.solve(eqs, gens, dict=True)
    vectors = set()
    for sol in sols:
        vec = tuple(sol.get(ai, sp.Integer(0)) for ai in a)
        assert not any(v.free_symbols - {w} for v in vec), \
            "oracle found a positive-dimensional solution family"
        vectors.add(vec)
    return vectors


def test_grouplike_completeness_oracle_sweedler(sw):
    oracle = _oracle_grouplike_vectors(sw)
    found = find_grouplikes(sw)
    got = {tuple(sp.Rational(c.as_rational()) for c in g)
           for g in found}
    assert got == oracle
    assert len(oracle) == 2


def test_grouplike_completeness_oracle_taft3(t3):
    # auxiliary root w with w^2 + w + 1 = 0 standing in for zeta_3;
    # solutions come in Galois pairs, projected down to the a-vectors
    oracle = _oracle_grouplike_vectors(t3, lambda w: w ** 2 + w + 1)
    found = find_grouplikes(t3)
    got = {tuple(sp.Rational(c.as_rational()) for c in g)
           for g in found}
    assert got == oracle
    assert len(oracle) == 3


# -- no antipode / order lifting -------------------------------------------------


def idempotent_monoid_bialgebra():
    """Monoid bialgebra of {1, m : m^2 = m}: a bialgebra whose identity
    map has no convolution inverse (m is group-like but not invertible)."""
    one = cyc(1, 1)
    return HopfPresentation(
        name="k{1,m}", dim=2, order=1,
        mult_entries=[(0, 0, 0, one), (0, 1, 1, one), (1, 0, 1, one),
                      (1, 1, 1, one)],
        comult_entries=[(0, 0, 0, one), (1, 1, 1, one)],
        unit=(one, cyc(1, 0)), counit=(one, one))


def test_bialgebra_axioms_without_antipode():
    h = idempotent_monoid_bialgebra()
    checklist = check_axioms(h)
    assert not checklist.failures()  # antipode axioms are not claimed when absent
    assert all(name.startswith(("assoc", "unit", "coassoc", "counit",
                                "comult", "counit"))
               for name, _, _ in checklist.results)


def test_no_antipode_detected():
    with pytest.raises(NoAntipode):
        compute_antipode(idempotent_monoid_bialgebra())


def monoid_tables(n):
    """Every associative n x n table with identity 0.

    Products with 0 are fixed, so only the (n-1)^2 other entries vary and
    associativity needs checking only on triples without 0.
    """
    rest = range(1, n)
    free = [(i, j) for i in rest for j in rest]
    for values in itertools.product(range(n), repeat=len(free)):
        t = [list(range(n))] + [[i] + [0] * (n - 1) for i in rest]
        for (i, j), v in zip(free, values):
            t[i][j] = v
        if all(t[t[a][b]][c] == t[a][t[b][c]]
               for a in rest for b in rest for c in rest):
            yield t


def monoid_bialgebra(table):
    """k[M] with every monoid element grouplike."""
    n = len(table)
    one, zero = cyc(1, 1), cyc(1, 0)
    return HopfPresentation(
        name=f"k[M{table}]", dim=n, order=1,
        mult_entries=[(i, j, table[i][j], one)
                      for i in range(n) for j in range(n)],
        comult_entries=[(i, i, i, one) for i in range(n)],
        unit=tuple(one if i == 0 else zero for i in range(n)),
        counit=(one,) * n)


def test_monoid_bialgebra_has_antipode_iff_group():
    tables = [t for n in range(1, 5) for t in monoid_tables(n)]
    assert len(tables) == 1 + 2 + 11 + 156
    groups = 0
    for t in tables:
        n = len(t)
        h = monoid_bialgebra(t)
        inv = [next((j for j in range(n) if t[i][j] == 0 == t[j][i]), None)
               for i in range(n)]
        if None in inv:
            with pytest.raises(NoAntipode):
                compute_antipode(h)
            continue
        groups += 1
        s = compute_antipode(h)
        for i in range(n):
            assert s.col(i) == basis_element(h, inv[i]), t
    # Z1, Z2, Z3 and, with identity 0, three labellings of Z4 and one of V4
    assert groups == 7


def _without_antipode(h):
    mult, comult = h.entries("mult"), h.entries("comult")
    return HopfPresentation(
        name=h.name, dim=h.dim, order=h.order, mult_entries=mult,
        comult_entries=comult, unit=h.unit, counit=h.counit, basis=h.basis)


@pytest.mark.parametrize("dropped, message", [
    ((1, 4, 5), "the integral candidate for S^-1 is singular"),
    ((0, 0, 0), "the integral candidate fails the left antipode axiom on e0"),
    ((0, 7, 7), "the integral candidate fails the right antipode axiom on e1"),
], ids=["singular", "left", "right"])
def test_compute_antipode_names_why_the_candidate_fails(t3, dropped, message):
    # taft(3) with one product entry removed still has a normalized
    # integral pair; the candidate S is then singular or fails an axiom
    mult = [e for e in t3.entries("mult") if e[:3] != dropped]
    assert len(mult) == len(t3.entries("mult")) - 1
    h = HopfPresentation(
        name=t3.name, dim=t3.dim, order=t3.order, mult_entries=mult,
        comult_entries=t3.entries("comult"), unit=t3.unit, counit=t3.counit)
    assert outcome(compute_antipode, h) == (NoAntipode, message)


def s3_table():
    perms = list(itertools.permutations(range(3)))
    return [[perms.index(tuple(p[q[i]] for i in range(3))) for q in perms]
            for p in perms]


def test_antipode_matrix_without_stored_antipode(z3, t3, t3d, t3z5):
    s3 = build_group_algebra(s3_table(), name="k[S3]")
    t3z3 = build_tensor(t3, lift_order(z3, 3))
    for h in (s3, t3d, t3z3, t3z5):
        bare = _without_antipode(h)
        assert bare.antipode is None
        assert bare.antipode_matrix() == h.antipode, h.name
        assert bare.antipode_matrix() is bare.antipode_matrix()


def test_lift_order_preserves_structure(t3):
    lifted = lift_order(t3, 15)
    assert lifted.order == 15
    assert not check_axioms(lifted).failures()
    assert [k for k, _ in lifted.mult[3][1]] == [k for k, _ in t3.mult[3][1]]
    assert len(find_grouplikes(lifted)) == 3
    with pytest.raises(OrderMismatch):
        lift_order(t3, 5)


# -- axioms certified on algebra generators --------------------------------------


def _word_span(h, gens):
    """Span of the unit and the left-normed words s1 (s2 (... s_k)) in
    gens, grown one word at a time from the unit; a word inside the span so
    far is dropped, since its left multiples lie in the span of the kept
    words' multiples."""
    words = [h.unit]
    span = Subspace.from_vectors(h.order, h.dim, words)
    frontier = words
    while frontier:
        new = []
        for s in gens:
            for w in frontier:
                p = h.multiply(basis_element(h, s), w)
                if span.coords_of(p) is None:
                    new.append(p)
                    span = Subspace.from_vectors(h.order, h.dim, words + new)
        words, frontier = words + new, new
    return span


def test_generators_span_and_follow_the_basis_order(z15, t3, t3z5):
    s3 = dual(build_group_algebra(s3_table(), name="k[S3]"))
    # the span starts at the unit: e_0 = 1 is no generator, and in
    # dual(k[S3]) the unit, the sum of the idempotents, covers e_5
    for h, expect in ((z15, (1,)), (t3, (1, 3)), (s3, tuple(range(5))),
                      (idempotent_monoid_bialgebra(), (1,)),
                      (t3z5, (1, 5, 15))):
        gens = hopf_module.algebra_generators(h)
        assert gens == expect, h.name
        assert _word_span(h, gens).dim == h.dim, h.name


def test_check_axioms_inverts_no_scalar(t3, monkeypatch):
    calls = []
    original = CycNumber.inverse

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(CycNumber, "inverse", counting)
    assert not check_axioms(lift_order(t3, 999)).failures()
    assert calls == []


def _oracle_axioms(h):
    """The six bialgebra axioms on every basis triple or pair, in row-major
    order, with check_axioms' detail strings: a plain reference scan."""
    zero, one, r = cyc(h.order, 0), cyc(h.order, 1), range(h.dim)

    def lin(vec, image):
        # sum_i vec[i] image(i), for sparse {key: scalar} vectors
        out = {}
        for i, c in vec.items():
            for key, x in image(i).items():
                out[key] = out.get(key, zero) + c * x
        return {key: x for key, x in out.items() if x}

    def mul(a, b):
        return lin(a, lambda i: lin(b, lambda j: dict(h.mult[i][j])))

    def delta(a):
        return lin(a, lambda i: h.comult[i])

    def eps(a):
        return sum((c * h.counit[i] for i, c in a.items()), zero)

    def tensor_mul(s, t):
        return lin(s, lambda ab: lin(t, lambda cd: {
            (p, q): x * y for p, x in h.mult[ab[0]][cd[0]]
            for q, y in h.mult[ab[1]][cd[1]]}))

    def first(failures):
        return next(failures, None)

    def e(i):
        return {i: one}

    unit = {i: c for i, c in enumerate(h.unit) if c}
    details = {
        "associativity": first(
            f"(e{i} e{j}) e{l} != e{i} (e{j} e{l})"
            for i in r for j in r for l in r
            if mul(mul(e(i), e(j)), e(l)) != mul(e(i), mul(e(j), e(l)))),
        "unit": first(f"unit fails on e{j}" for j in r
                      if mul(unit, e(j)) != e(j) or mul(e(j), unit) != e(j)),
        "coassociativity": first(
            f"coassociativity fails on e{i}" for i in r
            if lin(delta(e(i)), lambda jk: {
                (a, b, jk[1]): c for (a, b), c in h.comult[jk[0]].items()})
            != lin(delta(e(i)), lambda jk: {
                (jk[0], a, b): c for (a, b), c in h.comult[jk[1]].items()})),
        "counit": first(
            f"counit fails on e{i}" for i in r
            if lin(delta(e(i)), lambda jk: {jk[1]: h.counit[jk[0]]}) != e(i)
            or lin(delta(e(i)), lambda jk: {jk[0]: h.counit[jk[1]]}) != e(i)),
        "comult-algebra-map":
            "Delta(1) != 1 (x) 1"
            if delta(unit) != lin(unit, lambda j: {
                (j, k): c for k, c in unit.items()})
            else first(f"Delta not multiplicative on (e{i}, e{j})"
                       for i in r for j in r
                       if delta(mul(e(i), e(j)))
                       != tensor_mul(delta(e(i)), delta(e(j)))),
        "counit-algebra-map":
            "counit(1) != 1" if eps(unit) != 1
            else first(f"counit not multiplicative on (e{i}, e{j})"
                       for i in r for j in r
                       if eps(mul(e(i), e(j))) != eps(e(i)) * eps(e(j))),
    }
    return tuple((name, d is None, d or "") for name, d in details.items())


def test_single_entry_corruptions_match_the_oracle(sw, t3):
    # every sweedler site; for taft(3) a seeded sample per table, most of
    # it outside the unit row 0 and the generator rows (1, 3).  A shifted
    # unit entry fails the unit axiom, so associativity is then scanned on
    # every row.  Every unit and counit entry of both is shifted too.
    cases = [(sw, table, site, shift) for table in ("mult", "comult")
             for site in sites(sw) for shift in (1, -1)]
    cases += [(h, table, (i,), shift) for table in ("unit", "counit")
              for h in (sw, t3) for i in range(h.dim) for shift in (1, -1)]
    rng = random.Random(9)
    inside = [s for s in sites(t3) if s[0] in (0, 1, 3)]
    outside = [s for s in sites(t3) if s[0] not in (0, 1, 3)]
    for table in ("mult", "comult"):
        picked = rng.sample(outside, 24) + rng.sample(inside, 16)
        cases += [(t3, table, site, rng.choice((1, -1))) for site in picked]
    failing = 0
    for h, table, site, shift in cases:
        m = corrupted(h, table, site, shift)
        got = check_axioms(m)
        assert got.results == _oracle_axioms(m), m.name
        failing += bool(got.failures())
    assert _oracle_axioms(t3) == check_axioms(_without_antipode(t3)).results
    # nearly every corruption breaks some axiom
    assert failing > 0.9 * len(cases)


def test_cancelled_sums_match_absent_entries():
    # k[Z3] on f0 = g^2, f1 = 1 + g + g^2, f2 = 1 + g^2, a Hopf algebra.
    # f0 f0 = g = f1 - f2, so Delta(f0 f0) summed as Delta(f1) - Delta(f2)
    # cancels on f0 (x) f0, which Delta(f0) Delta(f0) = g (x) g lacks; the
    # coassociativity sums of f1 cancel on a key the other side lacks too
    def entries(*rows):
        return [(i, j, k, cyc(1, c)) for i, j, k, c in rows]

    h = HopfPresentation(
        name="k[Z3] rebased", dim=3, order=1,
        mult_entries=entries(
            (0, 0, 1, 1), (0, 0, 2, -1), (0, 1, 1, 1), (0, 2, 0, 1),
            (0, 2, 1, 1), (0, 2, 2, -1), (1, 0, 1, 1), (1, 1, 1, 3),
            (1, 2, 1, 2), (2, 0, 0, 1), (2, 0, 1, 1), (2, 0, 2, -1),
            (2, 1, 1, 2), (2, 2, 0, 1), (2, 2, 1, 1)),
        comult_entries=entries(
            (0, 0, 0, 1), (1, 0, 0, 2), (1, 0, 2, -1), (1, 2, 0, -1),
            (1, 2, 2, 2), (1, 1, 1, 1), (1, 1, 2, -1), (1, 2, 1, -1),
            (2, 0, 0, 2), (2, 0, 2, -1), (2, 2, 0, -1), (2, 2, 2, 1)),
        unit=(cyc(1, -1), cyc(1, 0), cyc(1, 1)),
        counit=(cyc(1, 1), cyc(1, 3), cyc(1, 2)))
    assert check_axioms(h).results == _oracle_axioms(h)
    assert not check_axioms(h).failures()


def test_a_failing_unit_certifies_no_row():
    # e1 annihilates everything, so its row passes every row check and
    # its words with the declared unit e0 span H; only row 0 fails, and a
    # unit that fails need not lie in the nucleus or in the subalgebras
    one, zero = cyc(1, 1), cyc(1, 0)

    def fake_unit(mult, delta_e1):
        return HopfPresentation(
            name="fake unit", dim=2, order=1, mult_entries=mult,
            comult_entries=[(0, 0, 0, one)] + delta_e1,
            unit=(one, zero), counit=(one, zero))

    # not associative: e0 e1 = e0 + e1
    nonassoc = fake_unit([(0, 0, 0, one), (0, 1, 0, one), (0, 1, 1, one)],
                         [(1, 1, 0, one), (1, 0, 1, one)])
    # associative, with e0 e0 = -(e0 + e1) and every other product 0
    assoc = fake_unit([(0, 0, 0, -one), (0, 0, 1, -one)],
                      [(1, 0, 1, -one), (1, 1, 0, -one), (1, 1, 1, -one)])
    for h in (nonassoc, assoc):
        assert hopf_module.algebra_generators(h) == (1,)
        assert check_axioms(h).results == _oracle_axioms(h)
    assert check_axioms(nonassoc).failures()[0] == (
        "associativity", "(e0 e0) e1 != e0 (e0 e1)")
    got = {name: detail for name, _, detail in check_axioms(assoc).results}
    assert (got["associativity"], got["unit"]) == ("", "unit fails on e0")
    assert got["comult-algebra-map"] == "Delta not multiplicative on (e0, e0)"
    assert got["counit-algebra-map"] == \
        "counit not multiplicative on (e0, e0)"


def _record_generators(monkeypatch):
    """Record every generator search check_axioms runs: (unit, the
    indices it yielded before it ran out or was left)."""
    seen, original = [], hopf_module._generators

    def recording(order, mult, unit):
        got = []
        seen.append((unit, got))
        for i in original(order, mult, unit):
            got.append(i)
            yield i

    monkeypatch.setattr(hopf_module, "_generators", recording)
    return seen


def _took_the_dual_side(h, seen):
    """Whether the last check_axioms(h) certified on the generators of H*:
    their search starts from the counit and ran out before it reached as
    many generators as H has."""
    gens = hopf_module.algebra_generators(h)
    return any(unit is h.counit and len(got) < len(gens)
               for unit, got in seen)


def test_dual_side_corruptions_match_the_oracle(t3d, monkeypatch):
    # dual(taft(3)) has 7 generators and H* = taft(3) has 2, so H* is the
    # side certified; dual(k[S3]) has 5 against 2.  A mult entry and a
    # comult entry (j, k) with counit(e_j) = counit(e_k) = 0 keep the
    # counit, so H* stays in play; the others fall back to H.
    s3d = dual(build_group_algebra(s3_table(), name="k[S3]"))
    seen = _record_generators(monkeypatch)
    rng = random.Random(30)
    cases = []
    for h, k in ((t3d, 40), (s3d, 70)):
        assert h.counit[0] == 1 and not any(h.counit[1:]), h.name
        cases += [(h, table, (i,), shift) for table in ("unit", "counit")
                  for i in range(h.dim) for shift in (1, -1)]
        keep = [s for s in sites(h) if s[1] and s[2]]
        rest = [s for s in sites(h) if not (s[1] and s[2])]
        for table, picked in (("mult", rng.sample(sites(h), k + 20)),
                              ("comult", rng.sample(keep, k)
                               + rng.sample(rest, 20))):
            cases += [(h, table, site, rng.choice((1, -1)))
                      for site in picked]
    dual_side = {t3d.name: 0, s3d.name: 0}
    for h, table, site, shift in cases:
        m = corrupted(h, table, site, shift)
        seen.clear()
        assert check_axioms(m).results == _oracle_axioms(m), m.name
        dual_side[h.name] += _took_the_dual_side(m, seen)
    for h, dual_gens in ((t3d, [1, 3]), (s3d, [1, 2])):
        bare = _without_antipode(h)
        seen.clear()
        got = check_axioms(bare)
        assert got.results == _oracle_axioms(bare) and not got.failures()
        assert _took_the_dual_side(bare, seen), h.name
        assert [got for unit, got in seen if unit is bare.counit] == \
            [dual_gens], h.name
    # most cases that keep the counit are certified on H*
    assert dual_side[t3d.name] > 100 and dual_side[s3d.name] > 150, dual_side


def test_a_failing_counit_certifies_no_dual_row(monkeypatch):
    # the dual of the non-associative fake unit algebra of the test above,
    # with zero coproduct and zero counit: H* is that algebra, whose
    # generator row e1 passes associativity, and H (zero product, zero
    # unit) needs both indices as generators.  Only the failing counit
    # keeps H* out, so coassociativity scans every row of H
    one, zero = cyc(1, 1), cyc(1, 0)
    h = dual(HopfPresentation(
        name="fake unit", dim=2, order=1,
        mult_entries=[(0, 0, 0, one), (0, 1, 0, one), (0, 1, 1, one)],
        comult_entries=[], unit=(one, zero), counit=(zero, zero)))
    seen = _record_generators(monkeypatch)
    got = check_axioms(h).results
    assert got == _oracle_axioms(h)
    assert hopf_module.algebra_generators(h) == (0, 1)
    assert [unit for unit, _ in seen] == [h.unit]  # H* was never searched
    dual_mult = [[[], []], [[], []]]
    for i, tensor in enumerate(h.comult):
        for (j, k), c in tensor.items():
            dual_mult[j][k].append((i, c))
    assert tuple(hopf_module._generators(1, dual_mult, h.counit)) == (1,)
    details = {name: detail for name, _, detail in got}
    assert details["counit"] == "counit fails on e0"
    assert details["coassociativity"] == "coassociativity fails on e0"


def test_a_failing_counit_map_certifies_no_dual_product(monkeypatch):
    # the dual of k[x]/(x^2) with Delta(1) = 1 (x) 1 + 1 (x) x, Delta(x) = 0
    # and zero counit: H* is that algebra, with the unit and one generator
    # row, x, that passes Delta-multiplicativity, while the row of 1 fails.
    # Here the counit holds but counit(1) = 0, so Delta*(eps) = eps (x) eps
    # fails and Delta-multiplicativity scans every row of H
    one, zero = cyc(1, 1), cyc(1, 0)
    h = dual(HopfPresentation(
        name="k[x]/(x^2)", dim=2, order=1,
        mult_entries=[(0, 0, 0, one), (0, 1, 1, one), (1, 0, 1, one)],
        comult_entries=[(0, 0, 0, one), (0, 0, 1, one)],
        unit=(one, zero), counit=(zero, zero)))
    seen = _record_generators(monkeypatch)
    got = check_axioms(h).results
    assert got == _oracle_axioms(h)
    assert _took_the_dual_side(h, seen)
    details = {name: detail for name, _, detail in got}
    assert (details["counit"], details["coassociativity"]) == ("", "")
    assert details["counit-algebra-map"] == "counit(1) != 1"
    assert details["comult-algebra-map"] == \
        "Delta not multiplicative on (e0, e1)"


def _fresh_scalars(h):
    """h without its antipode, with a new CycNumber object for every
    table, unit and counit entry, as presentations built in code have
    them (a loaded file shares one object per distinct value)."""
    def fresh(c):
        return CycNumber(h.order, c.coeffs)

    return HopfPresentation(
        name=f"{h.name} fresh", dim=h.dim, order=h.order,
        mult_entries=[(i, j, k, fresh(c)) for i, j, k, c in h.entries("mult")],
        comult_entries=[(i, j, k, fresh(c))
                        for i, j, k, c in h.entries("comult")],
        unit=tuple(map(fresh, h.unit)), counit=tuple(map(fresh, h.counit)),
        basis=h.basis)


def test_equal_scalars_in_distinct_objects_match_the_oracle(t3):
    # the axiom scans memoize products by operand identity; equal values
    # in distinct objects must give the same verdicts and witnesses
    h = _fresh_scalars(t3)
    scalars = [c for table in ("mult", "comult")
               for *_, c in h.entries(table)]
    assert len(set(map(id, scalars))) == len(scalars)
    assert len(set(scalars)) < len(scalars) / 10
    assert check_axioms(h).results == _oracle_axioms(h) \
        == check_axioms(_without_antipode(t3)).results
    rng = random.Random(31)
    for table in ("mult", "comult"):
        for site in rng.sample(sites(h), 20):
            m = corrupted(h, table, site, rng.choice((1, -1)))
            assert check_axioms(m).results == _oracle_axioms(m), m.name


def test_rebased_group_algebra_matches_the_oracle():
    for c in (2, 3, -5, 10**6 + 3):
        h = rebased_z2(c)
        assert check_axioms(h).results[:6] == _oracle_axioms(h), c
        assert not check_axioms(h).failures()
    h = rebased_z2(3)
    for table in ("mult", "comult"):
        for site in sites(h):
            for shift in (1, -1):
                m = corrupted(h, table, site, shift)
                assert check_axioms(m).results == _oracle_axioms(m), m.name


def _one_dim(**changes):
    """k = Q(zeta_3) as a one-dimensional presentation, with changes."""
    one = cyc(3, 1)
    fields = dict(name="k", dim=1, order=3, mult_entries=[(0, 0, 0, one)],
                  comult_entries=[(0, 0, 0, one)], unit=(one,),
                  counit=(one,))
    fields.update(changes)
    return HopfPresentation(**fields)



@pytest.mark.parametrize("changes, expect", (
    ({"dim": 0, "mult_entries": [], "comult_entries": [], "unit": (),
      "counit": ()}, (MalformedTensor, "dimension must be >= 1")),
    ({"unit": ()}, (MalformedTensor, "unit/counit length must equal dim")),
    ({"counit": (cyc(3, 1),) * 2},
     (MalformedTensor, "unit/counit length must equal dim")),
    ({"antipode": Mat.identity(3, 2)},
     (MalformedTensor, "antipode must be dim x dim")),
    ({"antipode": Mat.identity(1, 1)},
     (OrderMismatch, "antipode scalar order differs")),
    ({"basis": ("a", "b")},
     (MalformedTensor, "basis label count must equal dim")),
    ({"mult_entries": [(0, 0, 0, 1)]},
     (MalformedTensor, "structure constant 1 is not a scalar")),
    ({"counit": (cyc(1, 1),)},
     (OrderMismatch, "scalar order 1 != presentation order 3")),
    ({"antipode": Mat.identity(3, 1), "basis": ("1",)}, 1),
))
def test_the_constructor_names_each_malformed_field(changes, expect):
    assert outcome(lambda: _one_dim(**changes).dim) == expect
