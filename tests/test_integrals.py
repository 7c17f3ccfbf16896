"""Integrals, distinguished elements, trace formulas, and the fourth-power
antipode identity.  Integral existence is cross-checked with a stacked
kernel oracle built directly from the defining equations."""

import collections
import itertools
import random

import pytest

import hopf_forge.integrals as integrals_module
from hopf_forge import (AxiomFailure, DegeneratePairing, HopfForgeError,
                        HopfPresentation, IntegralSpaceNotOneDim, Mat,
                        build_group_algebra, build_taft, build_tensor,
                        character_inverse, check_axioms, cyc,
                        distinguished_character, distinguished_grouplike,
                        dual, dual_right_integral, integral_pair,
                        integral_subspace, is_cosemisimple, is_semisimple,
                        is_unimodular, left_integral, lift_order, null_space,
                        radford_trace, root_of_unity, trace_form,
                        verify_s4_formula)
from conftest import (basis_element, corrupted, harpoon_left, harpoon_right,
                      random_endomorphism, sites, taken_as_certified)


def stacked_integral_kernel(h, side="left"):
    """Oracle: solutions of a v = eps(a) v (or v a = eps(a) v) for every
    basis a, computed as one dense kernel of stacked operator matrices,
    independently of the library's sparse equation assembly."""
    rows = []
    for i in range(h.dim):
        a = basis_element(h, i)
        if side == "left":  # column j holds a e_j
            op = Mat.from_cols(h.order, (h.multiply(a, basis_element(h, j))
                                         for j in range(h.dim)))
        else:
            op = h.right_mult_matrix(a)
        rows += [[x - h.counit[i] if r == c else x for c, x in enumerate(row)]
                 for r, row in enumerate(op.data)]
    return null_space(Mat(h.order, rows))


def test_left_integral_matches_stacked_kernel_oracle(corpus):
    for name, h in corpus.items():
        ker = stacked_integral_kernel(h)
        assert ker.dim == 1, name
        lam = left_integral(h)
        assert ker.coords_of(lam) is not None, name


def test_integral_spaces_equal_the_stacked_kernel_oracle(corpus, sw, t3,
                                                        monkeypatch):
    # the generator-row solve must give the oracle's space whether it is
    # confirmed on every row or falls back to solving all rows
    solves = []
    original = integrals_module.null_space_of_terms

    def counting(*args):
        solves.append(args)
        return original(*args)

    monkeypatch.setattr(integrals_module, "null_space_of_terms", counting)
    rng = random.Random(15)
    cases = list(corpus.values())
    cases += [corrupted(sw, "mult", site, shift)
              for site in sites(sw) for shift in (1, -1)]
    cases += [corrupted(t3, "mult", site, rng.choice((1, -1)))
              for site in rng.sample(sites(t3), 40)]
    paths = collections.Counter()  # (side, number of solves)
    for h in cases:
        for side in ("left", "right"):
            solves.clear()
            assert integral_subspace(h, side) == \
                stacked_integral_kernel(h, side), (h.name, side)
            paths[side, len(solves)] += 1
    # both sides take the shortcut and, on some corruption, the fallback
    assert all(paths[side, k] for side in ("left", "right") for k in (1, 2))


def test_integral_defining_properties(corpus, sw):
    for h in list(corpus.values()) + [sw]:
        lam = left_integral(h)
        assert any(lam)
        right = integral_subspace(h, "right")
        assert right.dim == 1, h.name
        rho = right.basis.data[0]
        for i in range(h.dim):
            a = basis_element(h, i)
            eps = h.counit[i]
            assert h.multiply(a, lam) == tuple(c * eps for c in lam)
            assert h.multiply(rho, a) == tuple(c * eps for c in rho)
        # lambda beta = beta(1) lambda in H* for every basis functional
        lam_fn = dual_right_integral(h)
        one_of = [h.pair((cyc(h.order, 1) if t == i else cyc(h.order, 0)
                          for t in range(h.dim)), h.unit)
                  for i in range(h.dim)]
        for i in range(h.dim):
            conv = []
            for k in range(h.dim):
                acc = cyc(h.order, 0)
                for (j, l), c in h.comult[k].items():
                    if l == i and lam_fn[j]:
                        acc = acc + c * lam_fn[j]
                conv.append(acc)
            expect = tuple(c * one_of[i] for c in lam_fn)
            assert tuple(conv) == expect, h.name


def test_taft_integral_support(t3, t5):
    for h, n in ((t3, 3), (t5, 5)):
        lam = left_integral(h)
        support = {i for i, c in enumerate(lam) if c}
        assert support == {i * n + (n - 1) for i in range(n)}


def test_pair_is_normalized(corpus):
    for h in corpus.values():
        pair = integral_pair(h)
        assert h.pair(pair.dual_integral, pair.integral) == 1


def test_unimodularity_and_semisimplicity_table(corpus, sw):
    expect = {
        "k[Z3]": (True, True, True),
        "k[Z5]": (True, True, True),
        "k[Z15]": (True, True, True),
        "k[Z3xZ3]": (True, True, True),
        "taft(3)": (False, False, False),
        "taft(5)": (False, False, False),
        "dual(taft(3))": (False, False, False),
    }
    for name, h in corpus.items():
        uni, semi, cosemi = expect.get(
            name, (False, False, False))  # the tensor product inherits all
        assert is_unimodular(h) == uni, name
        assert is_semisimple(h) == semi, name
        assert is_cosemisimple(h) == cosemi, name
    assert not (is_unimodular(sw) or is_semisimple(sw) or is_cosemisimple(sw))


def test_larson_radford_trace_criterion(corpus, sw):
    # semisimple and cosemisimple at once is equivalent to Tr(S^2) != 0
    for h in list(corpus.values()) + [sw]:
        tr = h.s_power_matrix(2).trace()
        assert (is_semisimple(h) and is_cosemisimple(h)) == bool(tr), h.name


def test_trace_formula_variants_match_matrix_trace(z3, t3, t3d, sw):
    for h in (z3, t3, t3d, sw):
        for variant in (1, 2, 3):
            assert trace_form(h, variant) == \
                Mat.identity(h.order, h.dim), (h.name, variant)
        rng = random.Random(hash(h.name) % (2 ** 31))
        for _ in range(10):
            f = random_endomorphism(h, rng)
            expect = f.trace()
            for variant in (1, 2, 3):
                assert radford_trace(h, f, variant) == expect


def test_trace_formula_on_structural_operators(t3, t5):
    for h in (t3, t5):
        ident = Mat.identity(h.order, h.dim)
        for variant in (1, 2, 3):
            assert radford_trace(h, ident, variant) == h.dim
            assert radford_trace(h, h.s_power_matrix(2), variant) == 0


def _literal_trace(h, f, variant):
    """Formula `variant` of the integrals module docstring, term by term
    over Delta(Lambda), with products in H and lambda as a functional."""
    pair = integral_pair(h)
    s = h.antipode_matrix()
    acc = cyc(h.order, 0)
    for (j, k), c in h.comult_pairs(pair.integral).items():
        first, second = basis_element(h, j), basis_element(h, k)
        if variant == 1:
            x = h.multiply(s.apply(second), f.apply(first))
        elif variant == 2:
            x = h.multiply(s.apply(f.apply(second)), first)
        else:
            x = h.multiply(f.apply(s.apply(second)), first)
        acc = acc + c * h.pair(pair.dual_integral, x)
    return acc


def test_trace_form_is_the_literal_functional_off_the_identity(t3):
    # one shifted antipode entry moves every G_v off the identity, so the
    # matrix form is compared with the formulas where they are not Tr
    rows = [list(row) for row in t3.antipode_matrix().data]
    rows[1][3] = rows[1][3] + 1
    bent = HopfPresentation(
        name="bent", dim=t3.dim, order=t3.order,
        mult_entries=[(i, j, k, c) for i in range(t3.dim)
                      for j in range(t3.dim)
                      for k, c in t3.mult[i][j]],
        comult_entries=[(i, j, k, c) for i in range(t3.dim)
                        for (j, k), c in t3.comult[i].items()],
        unit=t3.unit, counit=t3.counit,
        antipode=Mat(t3.order, rows, cols=t3.dim))
    ident = Mat.identity(bent.order, bent.dim)
    rng = random.Random(7)
    for variant in (1, 2, 3):
        assert trace_form(bent, variant) != ident
        for _ in range(4):
            f = random_endomorphism(bent, rng)
            assert radford_trace(bent, f, variant) == \
                _literal_trace(bent, f, variant)


def test_trace_formula_rejects_unknown_variant(t3):
    with pytest.raises(ValueError):
        radford_trace(t3, Mat.identity(t3.order, t3.dim), 4)


def test_s4_formula_on_corpus(corpus, sw):
    for h in corpus.values():
        assert verify_s4_formula(h), h.name
    assert verify_s4_formula(sw)


def _s4_element_by_element(h):
    """Oracle: S^4(e) = g ((alpha -> e <- alpha^-1) g^-1) checked on each
    basis element with the harpoons and products of H."""
    g = distinguished_grouplike(h)
    alpha = distinguished_character(h)
    alpha_inv = character_inverse(h, alpha)
    ginv = h.antipode_matrix().apply(g)
    s4 = h.s_power_matrix(4)
    for t in range(h.dim):
        e = basis_element(h, t)
        x = harpoon_right(h, harpoon_left(h, alpha, e), alpha_inv)
        if h.multiply(g, h.multiply(x, ginv)) != s4.apply(e):
            return False
    return True


def _bent_antipode(h, i, j, shift):
    """h with coordinate i of the stored S(e_j) shifted by shift."""
    rows = [list(row) for row in h.antipode_matrix().data]
    rows[i][j] = rows[i][j] + shift
    return HopfPresentation(
        name=f"{h.name} S[{i}][{j}]{shift:+d}", dim=h.dim, order=h.order,
        mult_entries=[(a, b, k, c) for a in range(h.dim)
                      for b in range(h.dim)
                      for k, c in h.mult[a][b]],
        comult_entries=[(a, b, k, c) for a in range(h.dim)
                        for (b, k), c in h.comult[a].items()],
        unit=h.unit, counit=h.counit,
        antipode=Mat(h.order, rows, cols=h.dim))


def test_s4_formula_fails_on_a_bent_antipode(t3):
    # g and alpha come from mult and comult alone, so a wrong stored S
    # moves S^4 and S(g) but not the twist; adding e_1 to S(e_1) breaks
    # the formula, and the matrix identity agrees with the element by
    # element check on every bent antipode.  A bent S fails the antipode
    # axiom, so each bent presentation is taken as certified
    bent = _bent_antipode(t3, 1, 1, 1)
    with pytest.raises(AxiomFailure, match=r"^antipode-left: "):
        verify_s4_formula(bent)
    assert not verify_s4_formula(taken_as_certified(bent))
    rng = random.Random(4)
    verdicts = set()
    for i, j in rng.sample(list(itertools.product(range(t3.dim),
                                                  repeat=2)), 12):
        bent = taken_as_certified(
            _bent_antipode(t3, i, j, rng.choice((1, -1))))
        verdicts.add(verify_s4_formula(bent))
        assert verify_s4_formula(bent) == _s4_element_by_element(bent)
    assert False in verdicts


class _NotProportional(Exception):
    """The dense oracle found a vector off the line of its reference."""


def _ratios_oracle(ref, vectors, label):
    """Dense proportionality: vectors[i] = c_i ref, read at the first
    nonzero of ref; raises _NotProportional(label(i)) at the first miss."""
    p = next(i for i, x in enumerate(ref) if x)
    out = []
    for i, v in enumerate(vectors):
        c = v[p] / ref[p]
        if tuple(v) != tuple(x * c for x in ref):
            raise _NotProportional(label(i))
        out.append(c)
    return tuple(out)


def _character_oracle(h):
    lam = integral_pair(h).integral
    return _ratios_oracle(lam, [h.multiply(lam, basis_element(h, j))
                                for j in range(h.dim)],
                          lambda j: f"Lambda e_{j} on {h.name}")


def _grouplike_oracle(h):
    lam = integral_pair(h).dual_integral
    vectors = []
    for i in range(h.dim):  # (beta_i lambda)_k
        vectors.append([sum((c * lam[j] for (a, j), c in h.comult[k].items()
                             if a == i), cyc(h.order, 0))
                        for k in range(h.dim)])
    return _ratios_oracle(lam, vectors,
                          lambda i: f"beta_{i} lambda on {h.name}")


def test_one_trace_variant_decides_all_three(corpus, sw, t3):
    # G1 = C S^T B, G2^T = S^T B C and G3^T = B C S^T rotate one product
    # of square matrices, so they are I together or not at all
    rng = random.Random(12)
    cases = list(corpus.values()) + [sw, _bent_antipode(t3, 1, 3, 1),
                                     _bent_antipode(t3, 1, 1, 1)]
    cases += [_bent_antipode(t3, i, j, rng.choice((1, -1)))
              for i, j in rng.sample(list(itertools.product(range(t3.dim),
                                                            repeat=2)), 12)]
    seen = set()
    for h in cases:
        ident = Mat.identity(h.order, h.dim)
        at_identity = {trace_form(h, v) == ident for v in (1, 2, 3)}
        assert len(at_identity) == 1, h.name
        seen |= at_identity
    assert seen == {True, False}


def _outcome_of(f, h):
    try:
        return f(h)
    except _NotProportional as exc:
        return str(exc)


def test_distinguished_character_names_the_first_failing_e_j(sw):
    # e_1 e_2 gains a term, so Lambda e_2 leaves the integral line; the
    # product is no longer associative, and certification names the
    # first failing triple
    bent = corrupted(sw, "mult", (1, 2, 0), 1)
    integral_pair(bent)  # the pair itself still exists
    with pytest.raises(AxiomFailure, match=r"^associativity: "
                       r"\(e1 e1\) e2 != e1 \(e1 e2\)$"):
        distinguished_character(bent)


def test_distinguished_elements_match_the_dense_oracle(sw, t3):
    # where the dense oracle finds no distinguished element, the mutant
    # fails an axiom, and the library raises its first failure
    raised = collections.Counter()
    cases = [corrupted(sw, table, site, shift) for table in ("mult", "comult")
             for site in sites(sw) for shift in (1, -1)]
    rng = random.Random(21)
    cases += [corrupted(t3, table, site, 1) for table in ("mult", "comult")
              for site in rng.sample(sites(t3), 60)]
    for h in cases:
        try:
            integral_pair(h)
        except HopfForgeError:
            continue
        failures = check_axioms(h).failures()
        for f, oracle in ((distinguished_character, _character_oracle),
                          (distinguished_grouplike, _grouplike_oracle)):
            want = _outcome_of(oracle, h)
            if failures:
                name, detail = failures[0]
                with pytest.raises(AxiomFailure) as exc:
                    f(h)
                assert str(exc.value) == f"{name}: {detail}", h.name
            else:
                assert f(h) == want, (h.name, f.__name__)
            raised[f.__name__] += isinstance(want, str)
    assert raised["distinguished_character"] and \
        raised["distinguished_grouplike"]


def _s3_algebra():
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(a[b[t]] for t in range(3))] for b in perms]
             for a in perms]
    return build_group_algebra(table, name="k[S3]")


def test_is_unimodular_is_the_equality_of_the_integral_spaces(corpus, sw, t3,
                                                             z3):
    algebras = list(corpus.values()) + [
        sw, build_taft(3, root_power=2), build_taft(4), _s3_algebra(),
        build_tensor(t3, lift_order(z3, 3))]
    seen = set()
    for h in algebras + [dual(h) for h in algebras]:
        left, right = integral_subspace(h, "left"), integral_subspace(h, "right")
        assert is_unimodular(h) == (left == right), h.name
        seen.add(is_unimodular(h))
    assert seen == {True, False}


def test_distinguished_elements_of_taft(t3, t5):
    for h, n in ((t3, 3), (t5, 5)):
        g = distinguished_grouplike(h)
        assert g == basis_element(h, n)  # g^1 x^0 sits at index n
        alpha = distinguished_character(h)
        # alpha is an algebra map ...
        for i in range(h.dim):
            for j in range(h.dim):
                ab = h.multiply(basis_element(h, i), basis_element(h, j))
                assert h.pair(alpha, ab) == alpha[i] * alpha[j]
        # ... with alpha(g) a primitive root: alpha(g) = omega^{-1}
        assert h.pair(alpha, g) == root_of_unity(h.order, h.order - 1)


def test_distinguished_elements_trivial_iff_unimodular(z3, z15, z3z3):
    # g and alpha are coordinate tuples, so they equal the unit and counit
    for h in (z3, z15, z3z3):
        assert distinguished_grouplike(h) == h.unit == basis_element(h, 0)
        assert distinguished_character(h) == h.counit


def test_dual_transport_of_distinguished_elements(t3, t3d):
    # with left Lambda and right lambda, dualizing swaps sides, so the
    # distinguished data transports with a convolution inverse:
    #   g(H*) = alpha(H)^{-1} = alpha o S,  alpha(H*) = g(H)^{-1} = S(g)
    alpha = distinguished_character(t3)
    alpha_inv = character_inverse(t3, alpha)
    g_dual = distinguished_grouplike(t3d)
    assert g_dual == alpha_inv
    g = distinguished_grouplike(t3)
    alpha_dual = distinguished_character(t3d)
    assert alpha_dual == tuple(t3.antipode.apply(g))


def test_character_inverse_is_convolution_inverse(t3, t3z5):
    for h in (t3, t3z5):
        alpha = distinguished_character(h)
        inv = character_inverse(h, alpha)
        for k in range(h.dim):
            acc = cyc(h.order, 0)
            for (j, l), c in h.comult[k].items():
                acc = acc + c * alpha[j] * inv[l]
            assert acc == h.counit[k]


# -- guards on non-Hopf input ----------------------------------------------------


def _presentation(name, dim, mult, comult, unit, counit):
    return HopfPresentation(name=name, dim=dim, order=1, mult_entries=mult,
                            comult_entries=comult, unit=unit, counit=counit)


def test_integral_space_dimension_guards():
    one, zero = cyc(1, 1), cyc(1, 0)
    # k x k with counit (1, 1): no nonzero left integral at all
    with pytest.raises(IntegralSpaceNotOneDim):
        integral_pair(_presentation(
            "kxk", 2,
            [(0, 0, 0, one), (1, 1, 1, one)],
            [(0, 0, 0, one), (1, 1, 1, one)],
            (one, one), (one, one)))
    # unital algebra with two-dimensional annihilator: too many integrals
    with pytest.raises(IntegralSpaceNotOneDim):
        integral_pair(_presentation(
            "zero3", 3,
            [(0, 0, 0, one), (0, 1, 1, one), (1, 0, 1, one),
             (0, 2, 2, one), (2, 0, 2, one)],
            [(0, 0, 0, one), (1, 0, 1, one), (1, 1, 0, one),
             (2, 0, 2, one), (2, 2, 0, one)],
            (one, zero, zero), (one, zero, zero)))


def test_degenerate_pairing_guard():
    one, zero = cyc(1, 1), cyc(1, 0)
    # group algebra multiplication (Lambda = (1, 1)) with a comultiplication
    # that pins the dual integral to (1, -1): lambda(Lambda) = 0
    with pytest.raises(DegeneratePairing):
        integral_pair(_presentation(
            "degenerate", 2,
            [(0, 0, 0, one), (0, 1, 1, one), (1, 0, 1, one), (1, 1, 0, one)],
            [(0, 0, 0, one), (0, 0, 1, one), (0, 1, 1, one), (1, 1, 0, one)],
            (one, zero), (one, one)))


def test_dual_right_integral_builds_no_dual(monkeypatch):
    h = build_taft(3)
    via_dual = integral_subspace(dual(h), "right").basis.data[0]
    built = []
    original = HopfPresentation.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("name"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(HopfPresentation, "__init__", counting)
    assert dual_right_integral(h) == via_dual
    assert built == []
