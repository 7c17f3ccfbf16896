"""Integrals, distinguished elements, trace formulas, and the fourth-power
antipode identity.  Integral existence is cross-checked with a stacked
kernel oracle built directly from the defining equations."""

import collections
import random

import pytest

import hopf_forge.integrals as integrals_module
from hopf_forge import (DegeneratePairing, Functional, HopfPresentation,
                        IntegralSpaceNotOneDim, Mat,
                        build_taft, character_inverse, cyc,
                        distinguished_character, distinguished_grouplike,
                        dual, dual_right_integral,
                        integral_pair, integral_subspace, is_cosemisimple,
                        is_semisimple, is_unimodular, left_integral,
                        null_space,
                        radford_trace, root_of_unity, trace_form,
                        verify_s4_formula)
from conftest import corrupted, random_endomorphism, sites


def stacked_integral_kernel(h, side="left"):
    """Oracle: solutions of a v = eps(a) v (or v a = eps(a) v) for every
    basis a, computed as one dense kernel of stacked operator matrices,
    independently of the library's sparse equation assembly."""
    rows = []
    for i in range(h.dim):
        a = h.basis_element(i)
        if side == "left":  # column j holds a e_j
            op = Mat.from_cols(h.order, (h.multiply(a, h.basis_element(j))
                                         for j in range(h.dim)))
        else:
            op = h.right_mult_matrix(a)
        rows += (op - Mat.identity(h.order, h.dim).scale(h.counit[i])).data
    return null_space(Mat(h.order, rows))


def test_left_integral_matches_stacked_kernel_oracle(corpus):
    for name, h in corpus.items():
        ker = stacked_integral_kernel(h)
        assert ker.dim == 1, name
        lam = left_integral(h)
        assert ker.contains(lam.coords), name


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
        assert any(lam.coords)
        right = integral_subspace(h, "right")
        assert right.dim == 1, h.name
        rho = right.basis.data[0]
        for i in range(h.dim):
            a = h.basis_element(i)
            eps = h.counit[i]
            assert h.multiply(a, lam.coords) == \
                tuple(c * eps for c in lam.coords)
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
                    if l == i and lam_fn.coords[j]:
                        acc = acc + c * lam_fn.coords[j]
                conv.append(acc)
            expect = tuple(c * one_of[i] for c in lam_fn.coords)
            assert tuple(conv) == expect, h.name


def test_taft_integral_support(t3, t5):
    for h, n in ((t3, 3), (t5, 5)):
        lam = left_integral(h)
        support = {i for i, c in enumerate(lam.coords) if c}
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
    for (j, k), c in h.comult_pairs(pair.integral.coords).items():
        first, second = h.basis_element(j), h.basis_element(k)
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
                      for k, c in t3.mult[i][j].items()],
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


def test_distinguished_elements_of_taft(t3, t5):
    for h, n in ((t3, 3), (t5, 5)):
        g = distinguished_grouplike(h)
        assert g.coords == h.basis_element(n)  # g^1 x^0 sits at index n
        alpha = distinguished_character(h)
        # alpha is an algebra map ...
        for i in range(h.dim):
            for j in range(h.dim):
                ab = h.multiply(h.basis_element(i), h.basis_element(j))
                assert h.pair(alpha, ab) == \
                    alpha.coords[i] * alpha.coords[j]
        # ... with alpha(g) a primitive root: alpha(g) = omega^{-1}
        assert h.pair(alpha, g.coords) == root_of_unity(h.order, h.order - 1)


def test_distinguished_elements_trivial_iff_unimodular(z15, z3z3):
    for h in (z15, z3z3):
        assert distinguished_grouplike(h).coords == \
            h.basis_element(0)
        assert distinguished_character(h).coords == \
            tuple(h.counit)


def test_dual_transport_of_distinguished_elements(t3, t3d):
    # with left Lambda and right lambda, dualizing swaps sides, so the
    # distinguished data transports with a convolution inverse:
    #   g(H*) = alpha(H)^{-1} = alpha o S,  alpha(H*) = g(H)^{-1} = S(g)
    alpha = distinguished_character(t3)
    alpha_inv = character_inverse(t3, alpha)
    g_dual = distinguished_grouplike(t3d)
    assert g_dual.coords == alpha_inv.coords
    g = distinguished_grouplike(t3)
    alpha_dual = distinguished_character(t3d)
    assert alpha_dual.coords == tuple(t3.antipode.apply(g.coords))


def test_character_inverse_is_convolution_inverse(t3, t3z5):
    for h in (t3, t3z5):
        alpha = distinguished_character(h)
        inv = character_inverse(h, alpha)
        for k in range(h.dim):
            acc = cyc(h.order, 0)
            for (j, l), c in h.comult[k].items():
                acc = acc + c * alpha.coords[j] * inv.coords[l]
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
    assert dual_right_integral(h).coords == via_dual
    assert built == []


def test_functional_container_protocol(t3):
    lam = dual_right_integral(t3)
    assert isinstance(lam, Functional)
    assert len(lam) == t3.dim
    assert tuple(lam) == lam.coords
