"""Exact cyclotomic scalar arithmetic: field axioms, known polynomial
tables, Galois action, order lifting, and the JSON scalar codec."""

import json
import random
from fractions import Fraction

import pytest
import sympy

from hopf_forge import (BoundExceeded, DivisionByZero, OrderMismatch, cyc,
                        cyclotomic_poly, galois_conjugate, lift_scalar,
                        root_of_unity, scalar_from_json, scalar_to_json)
from hopf_forge.cyclofield import _divisors

ORDERS = (1, 2, 3, 4, 5, 12, 15)


def random_scalar(order, rng):
    z = root_of_unity(order, 1)
    acc = cyc(order, 0)
    for t in range(len(cyc(order, 0).coeffs)):
        acc = acc + (z ** t) * Fraction(rng.randint(-5, 5),
                                        rng.randint(1, 4))
    return acc


@pytest.mark.parametrize("order", ORDERS)
def test_field_axioms(order):
    rng = random.Random(1000 + order)
    one = cyc(order, 1)
    for _ in range(100):
        a = random_scalar(order, rng)
        b = random_scalar(order, rng)
        c = random_scalar(order, rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0
        if a:
            assert a * a.inverse() == one
            assert (one / a) * a == one


def test_cyclotomic_poly_table():
    # ascending coefficients, monic
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    assert cyclotomic_poly(15) == (1, -1, 0, 1, -1, 1, 0, -1, 1)


def test_product_of_cyclotomics_is_x_to_n_minus_one():
    # prod over d | n of Phi_d = x^n - 1
    for n in (6, 10, 12, 15):
        prod = [Fraction(1)]
        for d in range(1, n + 1):
            if n % d == 0:
                phi = cyclotomic_poly(d)
                out = [Fraction(0)] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        out[i + j] += a * b
                prod = out
        expect = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
        assert prod == expect


@pytest.mark.parametrize("order", ORDERS)
def test_root_of_unity_power_law(order):
    z = root_of_unity(order, 1)
    acc = cyc(order, 1)
    for k in range(order):
        assert acc == root_of_unity(order, k)
        assert (acc == 1) == (k == 0), f"zeta^{k} must differ from 1"
        acc = acc * z
    assert acc == 1  # zeta^order = 1
    assert z ** (-1) == root_of_unity(order, order - 1)


@pytest.mark.parametrize("order", (3, 5, 12, 15))
def test_galois_conjugation_is_field_homomorphism(order):
    rng = random.Random(order)
    units = [u for u in range(1, order) if _gcd(u, order) == 1]
    for u in units:
        assert galois_conjugate(root_of_unity(order, 1), u) == \
            root_of_unity(order, u)
        for _ in range(10):
            a = random_scalar(order, rng)
            b = random_scalar(order, rng)
            assert galois_conjugate(a + b, u) == \
                galois_conjugate(a, u) + galois_conjugate(b, u)
            assert galois_conjugate(a * b, u) == \
                galois_conjugate(a, u) * galois_conjugate(b, u)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def test_lift_scalar_embeds_field():
    rng = random.Random(7)
    for _ in range(20):
        a = random_scalar(3, rng)
        b = random_scalar(3, rng)
        la, lb = lift_scalar(a, 15), lift_scalar(b, 15)
        assert la.order == 15
        assert lift_scalar(a + b, 15) == la + lb
        assert lift_scalar(a * b, 15) == la * lb
    assert lift_scalar(root_of_unity(3, 1), 15) == root_of_unity(15, 5)
    assert lift_scalar(cyc(1, Fraction(2, 3)), 15) == cyc(15, Fraction(2, 3))


def test_lift_scalar_rejects_non_multiple():
    with pytest.raises(OrderMismatch):
        lift_scalar(root_of_unity(3, 1), 5)


def test_scalar_json_round_trip():
    rng = random.Random(11)
    for order in ORDERS:
        for _ in range(25):
            a = random_scalar(order, rng)
            doc = scalar_to_json(a)
            assert scalar_from_json(doc, order) == a
            # canonical form is itself stable under a second round trip
            assert scalar_to_json(scalar_from_json(doc, order)) == doc
    assert scalar_to_json(cyc(5, 3)) == 3  # integers stay bare
    assert scalar_from_json(2, 4) == cyc(4, 2)


def test_scalar_json_rejects_booleans():
    for doc in (True, {"num": [True], "den": True}, {"num": [1], "den": True},
                {"num": [True], "den": 1}, {"num": [1, False], "den": 2}):
        with pytest.raises(OrderMismatch):
            scalar_from_json(doc, 3)


def test_scalar_json_is_deterministic_text():
    a = (root_of_unity(12, 7) * Fraction(3, 2)) + Fraction(1, 6)
    s1 = json.dumps(scalar_to_json(a), sort_keys=True)
    s2 = json.dumps(scalar_to_json(
        (root_of_unity(12, 7) * Fraction(3, 2)) + Fraction(1, 6)),
        sort_keys=True)
    assert s1 == s2


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        cyc(3, 0).inverse()


def test_order_mismatch_on_mixed_arithmetic():
    with pytest.raises(OrderMismatch):
        cyc(3, 1) + cyc(5, 1)


def test_order_bound():
    with pytest.raises(BoundExceeded):
        cyclotomic_poly(0)
    with pytest.raises(BoundExceeded):
        cyclotomic_poly(100000)


def test_divisors_match_brute_force():
    for n in range(1, 2001):
        assert _divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


@pytest.mark.parametrize("n", (
    999_983 * 1_000_003,
    999_979 * 999_983 * 2 ** 5,
    1_000_003 ** 2 * 3 * 7,
    # a prime above 10^12: trial division cannot split it
    1_000_000_000_039,
))
def test_divisors_match_sympy(n):
    assert _divisors(n) == sympy.divisors(n)
