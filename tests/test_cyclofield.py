"""Exact cyclotomic scalar arithmetic: field axioms, known polynomial
tables, Galois action, order lifting, and the JSON scalar codec."""

import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
import sympy

from hopf_forge import (BoundExceeded, CycNumber, DivisionByZero,
                        OrderMismatch, cyc, cyclotomic_poly, galois_conjugate,
                        lift_scalar, root_of_unity, scalar_from_json,
                        scalar_to_json)
from hopf_forge.cyclofield import coordinate_key
from conftest import outcome

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


def test_constructor_pads_short_coordinates_and_rejects_long_ones():
    # Q(zeta_3) has degree 2: shorter lists are zero-padded, as
    # scalar_from_json pads, and a third coordinate is refused
    assert CycNumber(3, [1]) == 1 and CycNumber(3, [1]).num == (1, 0)
    assert CycNumber(3, []) is cyc(3, 0)
    assert CycNumber(3, [Fraction(1, 2)]) == scalar_from_json(
        {"num": [1], "den": 2}, 3)
    with pytest.raises(OrderMismatch):
        CycNumber(3, [1, 2, 5])
    # (1 + 2 zeta)^2 = 1 + 4 zeta + 4 zeta^2 = -3 in Q(zeta_3)
    assert CycNumber(3, [1, 2]) ** 2 == -3


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        cyc(3, 0).inverse()


def test_order_mismatch_on_mixed_arithmetic():
    with pytest.raises(OrderMismatch):
        cyc(3, 1) + cyc(5, 1)


def test_cyc_takes_only_exact_values():
    # an int or a Fraction is read exactly; a float would enter as its
    # binary value, so it is refused, as the arithmetic operators refuse it
    assert cyc(1, Fraction(1, 10)) == Fraction(1, 10)
    for value in (0.1, 0.5, "1/3", None):
        with pytest.raises(TypeError):
            cyc(3, value)
    with pytest.raises(TypeError):
        cyc(1, 1) + 0.5


@pytest.mark.parametrize("order", ORDERS)
def test_powers_match_repeated_products(order):
    rng = random.Random(order)
    a = random_scalar(order, rng)
    while not a:
        a = random_scalar(order, rng)
    acc = cyc(order, 1)
    for n in range(9):
        assert a ** n == acc and a ** -n == acc.inverse()
        acc = acc * a
    assert cyc(order, 0) ** 0 == 1 and cyc(order, 0) ** 3 == 0


def test_repr_shows_the_json_form():
    assert repr(cyc(3, 5)) == "CycNumber(3, 5)"
    assert repr(CycNumber(3, [1, Fraction(-2, 3)])) == \
        "CycNumber(3, {'num': [3, -2], 'den': 3})"


def test_order_bound():
    with pytest.raises(BoundExceeded):
        cyclotomic_poly(0)
    with pytest.raises(BoundExceeded):
        cyclotomic_poly(100000)


# -- integer representation against an independent sympy oracle ----------------

ORACLE_ORDERS = ORDERS + (105,)


def oracle_value(a):
    """a as a sympy polynomial over QQ, read from its integer fields."""
    x = sympy.Symbol("x")
    return sympy.Poly([sympy.Rational(n, a.den) for n in reversed(a.num)],
                      x, domain=sympy.QQ)


def oracle_coeffs(p, order):
    """Power-basis coordinates of p mod Phi_order, as Fractions."""
    phi = sympy.Poly(sympy.cyclotomic_poly(order, p.gen), p.gen,
                     domain=sympy.QQ)
    r = p.rem(phi).all_coeffs()[::-1]
    degree = phi.degree()
    r = r + [0] * (degree - len(r))
    return tuple(Fraction(int(q.p), int(q.q)) for q in map(sympy.Rational, r))


def substitute(p, u, order):
    """p(x^u), exponents taken mod order since x^order = 1 mod Phi_order."""
    x = p.gen
    return sympy.Poly(sum((c * x ** (t * u % order) for (t,), c in p.terms()),
                          sympy.Integer(0)), x, domain=sympy.QQ)


def assert_canonical(a):
    assert type(a.den) is int and all(type(n) is int for n in a.num)
    assert a.den > 0 and math.gcd(a.den, *a.num) == 1
    if not any(a.num):
        assert a.den == 1
    assert CycNumber(a.order, a.coeffs) == a
    assert a.coeffs == tuple(Fraction(n, a.den) for n in a.num)


def sparse_scalar(order, rng):
    """A seeded value with some zero coordinates and varied denominators;
    every fifth one is rational, one in ten is zero."""
    degree = len(cyclotomic_poly(order)) - 1
    kind = rng.randrange(10)
    coeffs = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 9)))
              if rng.random() < 0.7 else Fraction(0) for _ in range(degree)]
    if kind < 2:
        coeffs[1:] = [Fraction(0)] * (degree - 1)
    if kind == 0:
        coeffs[0] = Fraction(0)
    return CycNumber(order, tuple(coeffs))


@pytest.mark.parametrize("order", ORACLE_ORDERS)
def test_arithmetic_matches_sympy_oracle(order):
    rng = random.Random(2000 + order)
    units = [u for u in range(1, order + 1) if math.gcd(u, order) == 1]
    for _ in range(10 if order > 100 else 40):
        a, b = sparse_scalar(order, rng), sparse_scalar(order, rng)
        pa, pb = oracle_value(a), oracle_value(b)
        for got, want in ((a + b, pa + pb), (a - b, pa - pb),
                          (a * b, pa * pb), (-a, -pa)):
            assert_canonical(got)
            assert got.coeffs == oracle_coeffs(want, order)
        if a:
            inv = a.inverse()
            assert_canonical(inv)
            assert oracle_coeffs(pa * oracle_value(inv), order) == \
                (1,) + (0,) * (len(a.num) - 1)
        u = rng.choice(units)
        conj = galois_conjugate(a, u)
        assert_canonical(conj)
        assert conj.coeffs == oracle_coeffs(substitute(pa, u, order), order)
        for step in (2, 3):
            lifted = lift_scalar(a, step * order)
            assert_canonical(lifted)
            assert lifted.coeffs == oracle_coeffs(
                substitute(pa, step, step * order), step * order)


@pytest.mark.parametrize("order", ORACLE_ORDERS)
def test_rational_values_hash_and_read_as_fractions(order):
    rng = random.Random(3000 + order)
    for _ in range(30):
        r = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
        a = cyc(order, r)
        assert_canonical(a)
        assert hash(a) == hash(r) and a == r and r == a
        assert type(a.as_rational()) is Fraction and a.as_rational() == r
        b = sparse_scalar(order, rng)
        for rational in (b - b, b * 0, cyc(order, r.numerator)):
            assert_canonical(rational)
            assert type(rational.as_rational()) is Fraction
            assert hash(rational) == hash(rational.as_rational())
        if b:
            assert b * b.inverse() == 1 and hash(b * b.inverse()) == hash(1)


def test_coordinate_key_is_lowest_terms_order():
    # the listing order of grouplikes and of roots_in_field candidates
    rng = random.Random(4000)
    for order in (3, 5, 15):
        values = [sparse_scalar(order, rng) for _ in range(60)]
        values += [root_of_unity(order, k) * Fraction(-k, 6)
                   for k in range(order)]
        for v in values:
            assert coordinate_key(v) == tuple(
                (f.numerator, f.denominator) for f in v.coeffs)


# -- roots of unity by exponent against the general paths -----------------------
#
# Products and inverses that involve +-zeta^k or a rational take shortcuts;
# reference_product and reference_inverse are the general convolution and
# extended Euclidean paths, applied to every value.

from operator import add, mul, sub  # noqa: E402

from hypothesis import given, settings, strategies as st  # noqa: E402

from hopf_forge.cyclofield import (_Field, _field, _make,  # noqa: E402
                                   _poly_mul, _pseudo_divmod, _sum, _trim)


def reference_product(a, b):
    """a * b by schoolbook multiplication of the numerators and integer
    pseudo-division by Phi, sharing no table with the field."""
    _, r, m = _pseudo_divmod(_poly_mul(list(a.num), list(b.num)),
                             list(cyclotomic_poly(a.order)))
    assert m == 1
    return _make(a.order, tuple(r) + (0,) * (len(a.num) - len(r)),
                 a.den * b.den)


def reference_inverse(a):
    """1/a by the integer extended Euclidean algorithm against Phi."""
    r0, s0, t0 = list(_field(a.order).modulus), [], 1
    r1, s1, t1 = _trim(list(a.num)), [1], 1
    while len(r1) > 1:
        q, r, m = _pseudo_divmod(r0, r1)
        qs = _poly_mul(q, s1)
        s = _trim([m * t1 * (s0[i] if i < len(s0) else 0)
                   - t0 * (qs[i] if i < len(qs) else 0)
                   for i in range(max(len(s0), len(qs)))])
        g = math.gcd(*r)
        t = t0 * t1 * g
        h = math.gcd(t, *s)
        r0, s0, t0 = r1, s1, t1
        r1, s1, t1 = [x // g for x in r], [x // h for x in s], t // h
    c = t1 * r1[0]
    if c < 0:
        c, s1 = -c, [-x for x in s1]
    pad = (0,) * (len(a.num) - len(s1))
    return _make(a.order, tuple(a.den * x for x in s1) + pad, c)


@st.composite
def order_and_values(draw, orders=st.integers(1, 30)):
    """An order, two values +-zeta^k / den and one value with at most 12
    nonzero rational coordinates."""
    order = draw(orders)
    degree = _field(order).degree
    units = [root_of_unity(order, draw(st.integers(0, 2 * order)))
             * Fraction(draw(st.sampled_from((1, -1))),
                        draw(st.sampled_from((1, 1, 2, 9))))
             for _ in range(2)]
    coeffs = [Fraction(0)] * degree
    for t, c in draw(st.dictionaries(
            st.integers(0, degree - 1),
            st.fractions(min_value=-9, max_value=9, max_denominator=6),
            max_size=12)).items():
        coeffs[t] = c
    return order, units, CycNumber(order, tuple(coeffs))


@settings(max_examples=200, deadline=None)
@given(order_and_values())
def test_unit_products_and_inverses_match_the_general_paths(case):
    order, (u, v), x = case
    f = _field(order)
    for w in (u, v):
        assert f.unit(w.num) is not None
        assert w.inverse() == reference_inverse(w)
        assert_canonical(w.inverse())
    if order % 2 == 0:
        # -zeta^k = zeta^(k + order/2) is found without a sign
        assert f.unit((-u).num)[1] == 1
    for a, b in ((u, v), (u, x), (x, v), (x, x), (u, -u)):
        got = a * b
        assert_canonical(got)
        assert got == reference_product(a, b) == b * a
    if x:
        assert x.inverse() == reference_inverse(x)
    rational = cyc(order, x.coeffs[0])
    if rational:
        assert rational.inverse() == reference_inverse(rational)
        assert rational.inverse() == 1 / x.coeffs[0]


@settings(max_examples=3, deadline=None)
@given(order_and_values(orders=st.just(999)))
def test_unit_products_and_inverses_at_order_999(case):
    _order, (u, v), x = case
    for a, b in ((u, v), (u, x)):
        assert a * b == reference_product(a, b)
    for w in (u, v):
        assert reference_product(w, w.inverse()) == 1


@pytest.mark.parametrize("order", (1, 2, 15, 30, 999))
def test_inverse_of_zero_still_raises(order):
    with pytest.raises(DivisionByZero):
        cyc(order, 0).inverse()
    with pytest.raises(DivisionByZero):
        (root_of_unity(order, 1) * 0).inverse()


# -- zeros and units: one zero per field, operands returned -------------------


def reference_sum(a, b, op=add):
    """a op b through the general numerator path."""
    return _make(a.order, *_sum(op, a.num, a.den, b.num, b.den))


@settings(max_examples=200, deadline=None)
@given(order_and_values(), st.integers(1, 30))
def test_zeros_and_units_match_the_general_paths(case, other_order):
    order, (u, _v), x = case
    zero = cyc(order, 0)
    assert zero is _field(order).zero
    for y in (u, -u, _make(order, x.num, x.den), zero):
        for s in (0, 1, -1):
            for b in (s, Fraction(s), cyc(order, s)):
                want = reference_product(y, cyc(order, s))
                assert y * b == want == b * y
                if s == 0 or not y:
                    assert y * b is zero and b * y is zero
                elif s == 1:  # either operand when both are 1
                    assert all(p is y or p is b for p in (y * b, b * y))
        for b in (0, Fraction(0), zero):
            assert y + b is y and b + y is y and y - b is y
            assert y - b == reference_sum(y, cyc(order, 0), sub)
            assert b - y == -y == reference_sum(cyc(order, 0), y, sub)
        assert y - y is zero and y + -y is zero and -zero is zero
        assert cyc(order, 0) + 5 == reference_sum(zero, cyc(order, 5))
    if other_order != order:
        for y, w in ((u, cyc(other_order, 0)), (zero, cyc(other_order, 1)),
                     (zero, cyc(other_order, 0))):
            for op in (add, sub, mul):
                with pytest.raises(OrderMismatch):
                    op(y, w)


def test_a_directly_built_zero_is_still_zero():
    # CycNumber(order, coeffs) builds a zero as the field's zero object,
    # which arithmetic treats as zero
    order = 15
    raw = CycNumber(order, (Fraction(0),) * _field(order).degree)
    zeta = root_of_unity(order, 1)
    assert raw is cyc(order, 0) and raw == 0 and not raw
    assert raw * zeta is cyc(order, 0) and zeta * raw is cyc(order, 0)
    assert zeta + raw is zeta and raw + zeta is zeta
    assert (raw - zeta) == -zeta


# -- large orders: the field keeps only the rows of zeta^k for k >= phi(N) ----
#
# Q(zeta_pq) for the twin primes 17, 19 and 29, 31, an even order and
# 999 = 27 * 37, against reference_product and pseudo-division by Phi.

LARGE_ORDERS = (323, 646, 899, 999)


def power_oracle(order, k):
    """The coordinates of zeta^k, as x^k mod Phi_order by pseudo-division."""
    phi = list(cyclotomic_poly(order))
    _, r, _ = _pseudo_divmod([0] * k + [1], phi)
    return tuple(r) + (0,) * (len(phi) - 1 - len(r))


@pytest.mark.parametrize("order", LARGE_ORDERS)
def test_unit_knows_every_signed_root_of_unity_at_large_orders(order):
    f, half = _field(order), order // 2
    for k in range(order):
        z = root_of_unity(order, k)
        assert f.unit(z.num) == (k, 1)
        # -zeta^k is zeta^(k + order/2) when the order is even
        assert f.unit((-z).num) == (((k + half) % order, 1) if order % 2 == 0
                                    else (k, -1))
        assert f.unit((2 * z).num) is None
        # zeta^k (1 + zeta) is no root of unity once the order exceeds 6
        assert f.unit((z + root_of_unity(order, k + 1)).num) is None


@pytest.mark.parametrize("order", LARGE_ORDERS)
def test_roots_of_unity_and_unit_inverses_at_large_orders(order):
    d, rng = _field(order).degree, random.Random(5000 + order)
    for k in (0, 1, d - 1, d, d + 1, order - 1, *rng.sample(range(order), 3)):
        z = root_of_unity(order, k)
        assert z.num == power_oracle(order, k) and z.den == 1
        inverse = power_oracle(order, -k % order)
        for s, den in ((1, 1), (-1, 3)):
            w = z * Fraction(s, den)
            assert w.inverse().num == tuple(s * den * x for x in inverse)
            assert_canonical(w.inverse())
    w = root_of_unity(order, order - 2) * Fraction(-2, 7)
    assert reference_product(w, w.inverse()) == 1


@pytest.mark.parametrize("order", LARGE_ORDERS)
def test_products_match_the_oracle_at_large_orders(order):
    rng = random.Random(6000 + order)
    degree = _field(order).degree
    x, y = (CycNumber(order, [Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
                              for _ in range(degree)]) for _ in range(2))
    got = x * y
    assert_canonical(got)
    assert got == reference_product(x, y)
    for k in (3, order - 4):
        u = -root_of_unity(order, k) / 5
        assert u * x == reference_product(u, x) == x * u


def test_a_field_keeps_only_what_it_cannot_derive():
    # a directly built context, so _field's one zero object per order is
    # left alone; the rows of zeta^k for k < phi(N) would cost megabytes
    for order, bound in ((999, 2.5e6), (899, 1e6)):
        cyclotomic_poly(order)  # the modulus is cached outside the field
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        f = _Field(order)
        retained = tracemalloc.get_traced_memory()[0] - before
        if not tracing:
            tracemalloc.stop()
        assert retained <= bound, (order, retained)
        assert len(f.high_rows) == order - f.degree


@pytest.mark.parametrize("run, expect", (
    # 1 + zeta_3 = -zeta_3^2, so 2 / (1 + zeta_3) = -2 zeta_3
    (lambda w: 2 / (1 + w), -2 * root_of_unity(3, 1)),
    (lambda w: Fraction(1, 2) / w, root_of_unity(3, 2) / 2),
    (lambda w: "2" / w, (TypeError, "unsupported operand type(s) for /: "
                                    "'str' and 'CycNumber'")),
    (lambda w: galois_conjugate(w, 2), root_of_unity(3, 2)),
    (lambda w: galois_conjugate(w, 3),
     (ValueError, "3 not coprime to order 3")),
))
def test_reflected_division_and_the_galois_unit_guard(run, expect):
    assert outcome(run, root_of_unity(3, 1)) == expect
