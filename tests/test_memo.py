"""Each derived quantity is computed once per presentation.

Derived quantities are memoised on the presentation they belong to, so
repeated calls return the very same object and a full report enumerates
the grouplikes only once.
"""

import inspect
import sys

import pytest

import hopf_forge.hopf as hopf_module
import hopf_forge.integrals as integrals_module
import hopf_forge.invariants as invariants_module
from hopf_forge import (AxiomFailure, CycNumber, HopfPresentation,
                        IntegralSpaceNotOneDim, build_report, build_taft,
                        compute_index, coradical, cyc,
                        distinguished_grouplike, find_grouplikes,
                        integral_pair)
from hopf_forge.integrals import (distinguished_character,
                                  dual_right_integral, integral_subspace)
from hopf_forge.cli import document_to_presentation, presentation_to_document


def _count_charpoly(monkeypatch):
    calls = []
    original = hopf_module.charpoly

    def counting(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(hopf_module, "charpoly", counting)
    return calls


def test_report_enumerates_grouplikes_once(monkeypatch):
    calls = _count_charpoly(monkeypatch)
    find_grouplikes(build_taft(3))
    one_search = len(calls)
    assert one_search > 0
    calls.clear()
    build_report(build_taft(3))
    assert len(calls) == one_search


def test_repeated_calls_return_the_same_object():
    h = build_taft(3)
    assert integral_pair(h) is integral_pair(h)
    assert find_grouplikes(h) is find_grouplikes(h)
    assert coradical(h) is coradical(h)
    assert integral_subspace(h, "right") is integral_subspace(h, "right")
    assert dual_right_integral(h) is dual_right_integral(h)


def test_default_and_explicit_pair_share_an_entry():
    # the pair is read from the presentation, so a quantity asked for
    # before and after integral_pair(h) is memoised under one key
    h = build_taft(3)
    g = distinguished_grouplike(h)
    alpha = distinguished_character(h)
    index = compute_index(h)
    integral_pair(h)
    assert distinguished_grouplike(h) is g
    assert distinguished_character(h) is alpha
    assert compute_index(h) is index
    names = [key[0] for key in h._cache]
    for name in ("distinguished_grouplike", "distinguished_character",
                 "compute_index"):
        assert names.count(name) == 1


def test_memo_is_per_presentation():
    a, b = build_taft(3), build_taft(3)
    assert integral_pair(a) is not integral_pair(b)
    assert integral_pair(a) == integral_pair(b)
    assert find_grouplikes(a) == find_grouplikes(b)


@pytest.mark.parametrize("module", [integrals_module, invariants_module])
def test_no_public_function_takes_an_integral_pair(module):
    # the normalized pair is a function of the presentation alone, so a
    # derived quantity reads integral_pair(h) and never takes one
    takers = [name for name, fn in vars(module).items()
              if inspect.isfunction(fn) and not name.startswith("_")
              and fn.__module__ == module.__name__
              and "pair" in inspect.signature(fn).parameters]
    assert takers == []


def _presentation(name, dim, mult, comult, unit, counit):
    return HopfPresentation(name=name, dim=dim, order=1, mult_entries=mult,
                            comult_entries=comult, unit=unit, counit=counit)


def _kxk():
    """The algebra k x k with e0 and e1 grouplike: not a bialgebra, and H*
    has no right integral."""
    one = cyc(1, 1)
    return _presentation(
        "kxk", 2, [(0, 0, 0, one), (1, 1, 1, one)],
        [(0, 0, 0, one), (1, 1, 1, one)], (one, one), (one, one))


def test_dual_right_integral_dimension_messages():
    one, zero = cyc(1, 1), cyc(1, 0)
    kxk = _kxk()
    with pytest.raises(IntegralSpaceNotOneDim,
                       match=r"^right integral space of dual\(kxk\) has "
                             r"dimension 0$"):
        dual_right_integral(kxk)
    zero3 = _presentation(
        "zero3", 3,
        [(0, 0, 0, one), (0, 1, 1, one), (1, 0, 1, one),
         (0, 2, 2, one), (2, 0, 2, one)],
        [(0, 0, 0, one), (1, 0, 1, one), (1, 1, 0, one),
         (2, 0, 2, one), (2, 2, 0, one)],
        (one, zero, zero), (one, zero, zero))
    with pytest.raises(IntegralSpaceNotOneDim,
                       match=r"^right integral space of dual\(zero3\) has "
                             r"dimension 2$"):
        dual_right_integral(zero3)


def test_report_splits_s2n_once(monkeypatch):
    h = build_taft(3)
    s6 = h.s_power_matrix(6)
    calls = []
    original = invariants_module.eigenspace

    def counting(m, c):
        if m is s6:
            calls.append(c)
        return original(m, c)

    monkeypatch.setattr(invariants_module, "eigenspace", counting)
    build_report(h)
    assert len(calls) == 1  # the +1 eigenspace, once


def test_t3z5_report_makes_one_product_per_s_power(monkeypatch, t3z5):
    # S^2 = S S, S^4 = S^2 S^2, S^6 = S^2 S^4, and the index's S^8 = S^4 S^4
    # and S^12 = S^4 S^8: five 45 x 45 products
    from hopf_forge import Mat
    from hopf_forge.cli import (document_to_presentation,
                                presentation_to_document)
    h = document_to_presentation(presentation_to_document(t3z5))
    h.antipode_matrix()
    depth, products = [0], []
    matmul, s_power = Mat.__matmul__, HopfPresentation.s_power_matrix

    def counting(a, b):
        if depth[0]:
            products.append((a.rows, b.cols))
        return matmul(a, b)

    def nested(self, t):
        depth[0] += 1
        try:
            return s_power(self, t)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(Mat, "__matmul__", counting)
    monkeypatch.setattr(HopfPresentation, "s_power_matrix", nested)
    build_report(h)
    assert products == [(45, 45)] * 5
    assert sorted(k[1] for k in h._cache
                  if k[0] == "s_power_matrix") == [1, 2, 4, 6, 8, 12]


# -- the memo contract ---------------------------------------------------------


MEMOIZED = {
    "antipode_matrix", "s_power_matrix", "algebra_generators", "certified",
    "check_axioms",
    "find_grouplikes", "integral_subspace", "dual_right_integral",
    "integral_pair", "distinguished_grouplike", "distinguished_character",
    "integral_form", "integral_coproduct", "trace_form", "compute_index",
    "h_plus_minus", "coradical", "eigen_decomposition", "normal_form"}


def _memoized_bodies():
    """{code object: name} of the body of every memoized function."""
    owners = (hopf_module, integrals_module, invariants_module,
              HopfPresentation)
    return {fn.__wrapped__.__code__: fn.__name__ for owner in owners
            for fn in vars(owner).values() if hasattr(fn, "__wrapped__")}


def _entered(run):
    """run() and the (name, first argument) of each memoized body it
    entered, in call order."""
    bodies, calls = _memoized_bodies(), []

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code in bodies:
            owner = frame.f_locals[frame.f_code.co_varnames[0]]
            calls.append((bodies[frame.f_code], owner))

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, calls


def _fresh(h):
    from hopf_forge.cli import (document_to_presentation,
                                presentation_to_document)
    return document_to_presentation(presentation_to_document(h))


def test_the_memoized_functions_are_the_listed_ones():
    assert set(_memoized_bodies().values()) == MEMOIZED


def test_a_second_report_computes_nothing_on_the_presentation(t3z5):
    h = _fresh(t3z5)
    first, calls = _entered(lambda: build_report(h))
    assert {owner for _, owner in calls} == {h}
    assert {name for name, _ in calls} == MEMOIZED
    keys = list(h._cache)
    second, calls = _entered(lambda: build_report(h))
    assert second == first
    assert list(h._cache) == keys
    assert calls == []


def test_a_computation_that_raises_stores_nothing():
    kxk, t3 = _kxk(), build_taft(3)
    for h, run, error in (
            (kxk, lambda: dual_right_integral(kxk), IntegralSpaceNotOneDim),
            (t3, lambda: t3.s_power_matrix(-1), ValueError)):
        for _ in range(2):  # the body runs, and raises, on every call
            _, calls = _entered(lambda: pytest.raises(error, run))
            assert [owner for _, owner in calls] == [h]
            assert h._cache == {}


def test_a_failed_certificate_checks_the_axioms_once():
    # certified raises, so it stores nothing, but the checklist it reads
    # is stored: three calls on taft(3) read over Q(zeta_999) check once
    doc = presentation_to_document(build_taft(3))
    doc["cyclotomic_order"] = 999
    h = document_to_presentation(doc)

    def certify_three_times():
        for run in (distinguished_grouplike, distinguished_character,
                    compute_index):
            with pytest.raises(AxiomFailure, match=r"^associativity: "):
                run(h)

    _, calls = _entered(certify_three_times)
    assert [owner for name, owner in calls if name == "check_axioms"] == [h]


def test_every_cache_key_names_a_memoized_function(t3z5):
    h = _fresh(t3z5)
    build_report(h)
    assert {key[0] for key in h._cache} <= MEMOIZED
    # the eigen stage's entries are the report's table and its normal form
    omega = invariants_module.omega_for_index(h, compute_index(h).n)
    table = h._cache[("eigen_decomposition", omega)]
    assert invariants_module.eigen_decomposition(h, omega) is table
    assert (invariants_module.normal_form(h, table)
            is h._cache[("normal_form", table)])
    assert not hasattr(table, "_cache")


def test_equal_omegas_share_one_eigen_table(t3z5):
    # the table is keyed by omega's value, not by the object
    h = _fresh(t3z5)
    omega = invariants_module.omega_for_index(h, compute_index(h).n)
    twin = CycNumber(omega.order, omega.coeffs)
    assert twin == omega and twin is not omega
    _, calls = _entered(lambda: (
        invariants_module.eigen_decomposition(h, omega),
        invariants_module.eigen_decomposition(h, twin)))
    assert [name for name, _ in calls].count("eigen_decomposition") == 1
    assert (invariants_module.eigen_decomposition(h, twin)
            is invariants_module.eigen_decomposition(h, omega))
