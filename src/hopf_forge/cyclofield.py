"""Exact arithmetic in the cyclotomic fields Q(zeta_N).

A value is a tuple of integer numerators over one positive integer
denominator: the coordinates in the power basis 1, zeta, ...,
zeta^(phi(N)-1), reduced modulo the N-th cyclotomic polynomial Phi_N.
Phi_N is monic with integer coefficients, so reduction, products and
Galois conjugation stay in the integers.  The representation is
canonical: den > 0, gcd(*num, den) = 1 and zero is (0, ..., 0)/1, so two
values are equal exactly when their orders, numerators and denominators
are equal.  Order 1 gives plain rationals (zeta_1 = 1).  Each field has
one zero object, which every zero value is, and a product by 0 or 1 or
a sum with 0 returns that zero or the other operand without arithmetic.

A product is reduced from the top down by Phi_N's nonzero terms, in
O(phi(N) * nnz(Phi_N)).  Roots of unity go by exponent: zeta^k for
k < phi(N) is the basis vector e_k, and each field keeps only the rows of
zeta^k for phi(N) <= k < N.  +-zeta^a times +-zeta^b is +-zeta^(a+b),
x times +-zeta^k rotates x through the rows, and +-zeta^k / den inverts
to +-den * zeta^(-k).

Scalars of different orders are never coerced; mixing them raises
OrderMismatch.  Plain ints and Fractions, which live in every Q(zeta_N),
are accepted on either side of the arithmetic operators.

JSON form of a scalar is either a bare integer or an object
{"num": [a0, ..., a_(phi(N)-1)], "den": d} meaning (sum a_t zeta^t) / d
with d > 0 and gcd(a0, ..., den) = 1.
"""

from __future__ import annotations

import functools
from fractions import Fraction as Rational
from itertools import zip_longest
from math import gcd, lcm
from operator import add, mul, sub

from .errors import BoundExceeded, DivisionByZero, OrderMismatch

CYCLOTOMIC_ORDER_BOUND = 1000


# -- integer polynomial helpers (ascending coefficient lists) ---------------

def _trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return _trim(out)


def _pseudo_divmod(a, b):
    """Integer pseudo-division of trimmed a by trimmed nonzero b:
    (q, r, m) with m * a == q * b + r, deg r < deg b, and m a power of
    b's leading coefficient (1 when b is monic)."""
    lc, db = b[-1], len(b) - 1
    r, q, m = list(a), [0] * max(len(a) - db, 0), 1
    while len(r) > db:
        c = r[-1]
        if c:
            if lc != 1:
                r, q, m = [x * lc for x in r], [x * lc for x in q], m * lc
            shift = len(r) - 1 - db
            q[shift] += c
            for i, bi in enumerate(b):
                r[shift + i] -= c * bi
        r.pop()
    return _trim(q), _trim(r), m


def _power(mul, x, t: int):
    """x^t (t >= 1) under the associative product mul, by squaring."""
    acc = None
    while t:
        if t & 1:
            acc = x if acc is None else mul(acc, x)
        t >>= 1
        x = mul(x, x) if t else x
    return acc


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(order: int) -> tuple:
    """Coefficients of Phi_order, ascending, as ints (monic).

    Computed by dividing x^order - 1 by the cyclotomic polynomials of all
    proper divisors, found by scanning 1..order-1 (order is at most
    CYCLOTOMIC_ORDER_BOUND).  Orders outside 1..CYCLOTOMIC_ORDER_BOUND
    raise BoundExceeded.
    """
    if order < 1 or order > CYCLOTOMIC_ORDER_BOUND:
        raise BoundExceeded(f"cyclotomic order {order} outside 1..{CYCLOTOMIC_ORDER_BOUND}")
    num = [-1] + [0] * (order - 1) + [1]
    den = [1]
    for d in range(1, order):
        if order % d == 0:
            den = _poly_mul(den, list(cyclotomic_poly(d)))
    q, r, _ = _pseudo_divmod(num, den)
    assert not r, "cyclotomic division must be exact"
    return tuple(q)


class _Field:
    """Per-order context that stores only what it cannot derive: Phi_N's
    nonzero terms below x^d (d = phi(N)), which reduce products, and the
    rows of zeta^k for d <= k < N, which unit_of maps back to k.  zeta^k
    for k < d is the basis vector e_k, built from k and known by its one
    nonzero coordinate; min_zeros lets unit() skip denser values."""

    __slots__ = ("order", "degree", "modulus", "low_terms", "high_rows",
                 "min_zeros", "unit_of", "zero")

    def __init__(self, order):
        self.order = order
        self.modulus = cyclotomic_poly(order)
        d = self.degree = len(self.modulus) - 1
        self.low_terms = tuple((j, c) for j, c in
                               enumerate(self.modulus[:-1]) if c)
        # zeta^k for k in d..order-1: x times zeta^(k-1), from e_(d-1)
        rows, cur = [], [0] * (d - 1) + [1]
        for _ in range(order - d):
            lead = cur.pop()
            cur = [0] + cur
            if lead:
                cur = [a - lead * c for a, c in zip(cur, self.modulus)]
            rows.append(tuple(cur))
        self.high_rows = tuple(rows)
        self.min_zeros = min([row.count(0) for row in rows], default=d)
        # keys are the high_rows tuples themselves, so no row is copied
        self.unit_of = {row: k for k, row in enumerate(rows, d)}
        self.zero = _new(CycNumber)  # _make returns it for every zero
        self.zero.order, self.zero.num, self.zero.den = order, (0,) * d, 1

    def power(self, k, c=1):
        """The coordinates of c * zeta^k."""
        k, d = k % self.order, self.degree
        if k < d:
            return (0,) * k + (c,) + (0,) * (d - 1 - k)
        row = self.high_rows[k - d]
        return row if c == 1 else tuple([c * x for x in row])

    def unit(self, num):
        """(k, s) with num the coordinates of s * zeta^k, s = +-1, or None.
        For even orders -zeta^k is the row of zeta^(k + order/2), k < d
        included, so s = 1; e_k is known by its d - 1 zeros."""
        k = self.unit_of.get(num)
        if k is not None:
            return k, 1
        zeros = num.count(0)
        if zeros == self.degree - 1:  # c * e_k, with c the sum of num
            c = sum(num)
            return (num.index(c), c) if c == 1 or c == -1 else None
        if zeros < self.min_zeros:  # denser than every row
            return None
        k = self.unit_of.get(tuple([-x for x in num]))
        return None if k is None else (k, -1)


@functools.lru_cache(maxsize=None)
def _field(order: int) -> _Field:
    return _Field(order)


def _sum(op, a, ad, b, bd):
    """a/ad op b/bd for op in (add, sub), as (numerators, denominator)."""
    if ad == bd:
        return tuple(map(op, a, b)), ad
    return tuple(map(op, [x * bd for x in a], [y * ad for y in b])), ad * bd


class CycNumber:
    """An element of Q(zeta_order): num / den in canonical power-basis form.

    CycNumber(order, coeffs) is the value with coordinates coeffs, up to
    phi(order) ints or Fractions, zero-padded; it and every arithmetic
    result are built by _make, so a zero is always its field's zero object.
    """

    __slots__ = ("order", "num", "den")

    def __new__(cls, order, coeffs):
        pad = _field(order).degree - len(coeffs)
        if pad < 0:
            raise OrderMismatch(f"{len(coeffs)} coordinates for order {order}")
        den = lcm(*(c.denominator for c in coeffs))
        return _make(order, tuple(c.numerator * (den // c.denominator)
                                  for c in coeffs) + (0,) * pad, den)

    @property
    def coeffs(self):
        """The power-basis coordinates as Fractions."""
        return tuple(Rational(n, self.den) for n in self.num)

    # -- coercion ------------------------------------------------------

    def _coerce(self, other):
        """other as (numerators, denominator), or None if not a scalar."""
        if isinstance(other, CycNumber):
            if other.order != self.order:
                raise OrderMismatch(
                    f"scalar orders differ: {self.order} vs {other.order}")
            return other.num, other.den
        if isinstance(other, (int, Rational)):
            return ((other.numerator,) + (0,) * (len(self.num) - 1),
                    other.denominator)
        return None

    # -- predicates ----------------------------------------------------

    def __bool__(self):
        return any(self.num)

    def is_rational(self):
        return not any(self.num[1:])

    def as_rational(self):
        """The value as a Fraction, or None if it is irrational."""
        return Rational(self.num[0], self.den) if self.is_rational() else None

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        if not any(oc[0]):
            return self
        if not any(self.num) and isinstance(other, CycNumber):
            return other
        return _make(self.order, *_sum(add, self.num, self.den, *oc))

    __radd__ = __add__

    def __sub__(self, other):
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        if not any(oc[0]):
            return self
        return _make(self.order, *_sum(sub, self.num, self.den, *oc))

    def __rsub__(self, other):
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        return _make(self.order, *_sum(sub, *oc, self.num, self.den))

    def __neg__(self):
        return _make(self.order, tuple([-x for x in self.num]), self.den)

    def __mul__(self, other):
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        a, (b, bden) = self.num, oc
        den = self.den * bden
        # scalar fast paths cover most structure constants; a product by 0
        # is the field's zero and one by 1 is the other operand
        if (a[0] == self.den == 1 and not any(a[1:])
                and isinstance(other, CycNumber)):
            return other
        if not any(b[1:]):
            s = b[0]
            if not s:
                return _field(self.order).zero
            if s == bden == 1:
                return self
            return _make(self.order, tuple([x * s for x in a]), den)
        if not any(a[1:]):
            s = a[0]
            if not s:
                return _field(self.order).zero
            return _make(self.order, tuple([x * s for x in b]), den)
        # roots of unity multiply by adding exponents
        f = _field(self.order)
        ua, ub = f.unit(a), f.unit(b)
        if ua and ub:
            return _make(self.order, f.power(ua[0] + ub[0], ua[1] * ub[1]),
                         den)
        if ua or ub:
            (k, s), x = (ua, b) if ua else (ub, a)
            return _make(self.order, _substitute(
                x if s > 0 else [-y for y in x], f, 1, k), den)
        # conv[k] = sum_i a[i] * b[k-i], then x^(d+k) = -x^k (Phi - x^d)
        # from the top down, through Phi's nonzero terms
        d, terms = len(a), f.low_terms
        pad = (0,) * (d - 1)
        a, rb = pad + a + pad, b[::-1]
        conv = [sum(map(mul, a[k:k + d], rb)) for k in range(2 * d - 1)]
        for k in range(d - 2, -1, -1):
            c = conv.pop()
            if c:
                for j, m in terms:
                    conv[k + j] -= c * m
        return _make(self.order, tuple(conv), den)

    __rmul__ = __mul__

    def inverse(self) -> "CycNumber":
        """Multiplicative inverse: s * zeta^k / den inverts to s * den *
        zeta^(-k), and any other value runs the extended Euclidean algorithm
        on the numerator polynomial A and Phi_order, in integers: every
        remainder r is kept primitive, with t * r = s * A (mod Phi) for an
        integer polynomial s and a positive integer t.  A rational takes no
        round, so it swaps numerator and denominator."""
        if not self:
            raise DivisionByZero("inverse of zero")
        order, num, den = self.order, self.num, self.den
        f = _field(order)
        if any(num[1:]) and (u := f.unit(num)) is not None:
            out = _make(order, f.power(-u[0], u[1] * den), 1)
        else:
            r0, s0, t0 = list(f.modulus), [], 1
            r1, s1, t1 = _trim(list(num)), [1], 1
            while len(r1) > 1:
                q, r, m = _pseudo_divmod(r0, r1)
                # m * r0 = q * r1 + r, so t0 * t1 * r = s * A (mod Phi) for
                s = _trim([m * t1 * x - t0 * y for x, y in
                           zip_longest(s0, _poly_mul(q, s1), fillvalue=0)])
                g = gcd(*r)
                assert g, "cyclotomic polynomial must be coprime to nonzero elements"
                t = t0 * t1 * g
                h = gcd(t, *s)
                r0, s0, t0 = r1, s1, t1
                r1, s1, t1 = [x // g for x in r], [x // h for x in s], t // h
            # r1 = [c] and t1 * c = s1 * A, so 1/self = den * s1 / (t1 * c)
            c = t1 * r1[0]
            if c < 0:
                c, s1 = -c, [-x for x in s1]
            pad = (0,) * (len(num) - len(s1))
            out = _make(order, tuple([den * x for x in s1]) + pad, c)
        assert (out * self) == 1
        return out

    def __truediv__(self, other):
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        return self * _make(self.order, *oc).inverse()

    def __rtruediv__(self, other):
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        return _make(self.order, *oc) * self.inverse()

    def __pow__(self, n):
        """self^n by _power; n == 0 gives 1, and a negative n inverts
        first."""
        if not isinstance(n, int):
            return NotImplemented
        if not n:
            return cyc(self.order, 1)
        return _power(mul, self.inverse() if n < 0 else self, abs(n))

    # -- comparison ------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, CycNumber):
            return (self.order == other.order and self.den == other.den
                    and self.num == other.num)
        if isinstance(other, (int, Rational)):
            return (self.den == other.denominator and self.is_rational()
                    and self.num[0] == other.numerator)
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(Rational(self.num[0], self.den))
        return hash((self.order, self.num, self.den))

    def __repr__(self):
        return f"CycNumber({self.order}, {scalar_to_json(self)!r})"


_new = object.__new__


def _make(order, num, den) -> CycNumber:
    """num / den (a tuple of ints, den > 0) in canonical form; every
    value is built here, so equality and hashing are exact
    and each zero is its field's one zero object."""
    if not num[0] and not any(num):
        return _field(order).zero
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num, den = tuple([x // g for x in num]), den // g
    out = _new(CycNumber)
    out.order, out.num, out.den = order, num, den
    return out


def coordinate_key(a: CycNumber) -> tuple:
    """(numerator, denominator) of each power-basis coordinate in lowest
    terms: the order in which search results are listed."""
    den = a.den
    return tuple((n // (g := gcd(n, den)), den // g) for n in a.num)


def cyc(order: int, value) -> CycNumber:
    """A rational value, an int or a Fraction, embedded into Q(zeta_order);
    any other type raises TypeError, so no float is ever read."""
    if not isinstance(value, (int, Rational)):
        raise TypeError(f"cyc takes an int or a Fraction, not "
                        f"{type(value).__name__}")
    return _make(order, (value.numerator,)
                 + (0,) * (_field(order).degree - 1), value.denominator)


def root_of_unity(order: int, k: int) -> CycNumber:
    """zeta_order^k as a canonical element of Q(zeta_order)."""
    return _make(order, _field(order).power(k), 1)


def primitive_root(order: int, n: int, power: int = 1) -> CycNumber | None:
    """zeta_n^power if n divides order, else -1 for n = 2, else None."""
    if order % n == 0:
        return root_of_unity(order, order // n * power)
    return cyc(order, -1) if n == 2 else None


def _substitute(num, f: _Field, u: int, shift: int = 0) -> tuple:
    """Coordinates in f of sum_t num[t] * zeta^(t*u + shift)."""
    d = f.degree
    out = [0] * d
    for t, c in enumerate(num):
        if c:
            e = (t * u + shift) % f.order
            if e < d:
                out[e] += c
                continue
            for s, z in enumerate(f.high_rows[e - d]):
                if z:
                    out[s] += c * z
    return tuple(out)


def galois_conjugate(a: CycNumber, u: int) -> CycNumber:
    """Image of a under zeta |-> zeta^u; u must be coprime to the order."""
    if gcd(u, a.order) != 1:
        raise ValueError(f"{u} not coprime to order {a.order}")
    return _make(a.order, _substitute(a.num, _field(a.order), u), a.den)


def lift_scalar(a: CycNumber, new_order: int) -> CycNumber:
    """Image of a under the embedding zeta_old |-> zeta_new^(new/old).

    new_order must be a multiple of a.order.
    """
    if new_order % a.order:
        raise OrderMismatch(
            f"order {a.order} does not divide target order {new_order}")
    if new_order == a.order:
        return a
    step = new_order // a.order
    return _make(new_order, _substitute(a.num, _field(new_order), step), a.den)


# -- serialization -----------------------------------------------------------

def scalar_to_json(a: CycNumber):
    """Canonical JSON form: bare int for rational integers, else an object
    with a common-denominator integer numerator vector."""
    if a.den == 1 and a.is_rational():
        return a.num[0]
    return {"num": list(a.num), "den": a.den}


def scalar_from_json(obj, order: int) -> CycNumber:
    """Parse a scalar; accepts bare ints and num/den objects with a vector
    of length at most phi(order) (shorter vectors are zero-padded)."""
    if isinstance(obj, bool):
        raise OrderMismatch("boolean is not a scalar")
    if isinstance(obj, int):
        return cyc(order, obj)
    if isinstance(obj, dict) and set(obj) == {"num", "den"}:
        num, den = obj["num"], obj["den"]
        d = _field(order).degree
        # bool subclasses int, so type() is what keeps JSON true/false out
        if (type(den) is not int or den == 0 or not isinstance(num, list)
                or len(num) > d or not all(type(x) is int for x in num)):
            raise OrderMismatch(f"bad scalar object {obj!r} for order {order}")
        sign = 1 if den > 0 else -1
        return _make(order, tuple([sign * x for x in num])
                     + (0,) * (d - len(num)), sign * den)
    raise OrderMismatch(f"unreadable scalar {obj!r}")

