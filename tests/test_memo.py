"""Each derived quantity is computed once per presentation.

Derived quantities are memoised on the presentation they belong to, so
repeated calls return the very same object and a full report enumerates
the grouplikes only once.
"""

import pytest

import hopf_forge.hopf as hopf_module
from hopf_forge import (HopfPresentation, IntegralSpaceNotOneDim,
                        build_report, build_taft, compute_index, coradical,
                        cyc, distinguished_character,
                        distinguished_grouplike, dual_right_integral,
                        find_grouplikes, integral_pair, integral_subspace)


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
    h = build_taft(3)
    pair = integral_pair(h)
    assert distinguished_grouplike(h) is distinguished_grouplike(h, pair)
    assert distinguished_character(h) is distinguished_character(h, pair)
    assert compute_index(h) is compute_index(h, pair)


def test_memo_is_per_presentation():
    a, b = build_taft(3), build_taft(3)
    assert integral_pair(a) is not integral_pair(b)
    assert integral_pair(a).presentation is a
    assert find_grouplikes(a) == find_grouplikes(b)


def _presentation(name, dim, mult, comult, unit, counit):
    return HopfPresentation(name=name, dim=dim, order=1, mult_entries=mult,
                            comult_entries=comult, unit=unit, counit=counit)


def test_dual_right_integral_dimension_messages():
    one, zero = cyc(1, 1), cyc(1, 0)
    kxk = _presentation(
        "kxk", 2, [(0, 0, 0, one), (1, 1, 1, one)],
        [(0, 0, 0, one), (1, 1, 1, one)], (one, one), (one, one))
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
