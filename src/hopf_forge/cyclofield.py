"""Exact arithmetic in the cyclotomic fields Q(zeta_N).

A value is a tuple of integer numerators over one positive integer
denominator: the coordinates in the power basis 1, zeta, ...,
zeta^(phi(N)-1), reduced modulo the N-th cyclotomic polynomial Phi_N.
Phi_N is monic with integer coefficients, so reduction, products and
Galois conjugation stay in the integers.  The representation is
canonical: den > 0, gcd(*num, den) = 1 and zero is (0, ..., 0)/1, so two
values are equal exactly when their orders, numerators and denominators
are equal.  Order 1 gives plain rationals (zeta_1 = 1).

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


# Primes below this bound are found by trial division; a cofactor left
# over below its square is then prime.
_TRIAL_DIVISION_BOUND = 10_000


def _divisors(n):
    """Positive divisors of n >= 1, ascending.

    Factors n by trial division, then enumerates.  sympy.factorint is
    imported only for a cofactor that trial division cannot split.
    """
    factors = {}
    d = 2
    while d < _TRIAL_DIVISION_BOUND and d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n >= _TRIAL_DIVISION_BOUND ** 2:
        from sympy import factorint
        factors.update(factorint(n))
    elif n > 1:
        factors[n] = 1
    divs = [1]
    for p, e in factors.items():
        divs = [q * p ** k for q in divs for k in range(e + 1)]
    return sorted(divs)


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(order: int) -> tuple:
    """Coefficients of Phi_order, ascending, as ints (monic).

    Computed by dividing x^order - 1 by the cyclotomic polynomials of all
    proper divisors.  Orders outside 1..CYCLOTOMIC_ORDER_BOUND raise
    BoundExceeded.
    """
    if order < 1 or order > CYCLOTOMIC_ORDER_BOUND:
        raise BoundExceeded(f"cyclotomic order {order} outside 1..{CYCLOTOMIC_ORDER_BOUND}")
    num = [-1] + [0] * (order - 1) + [1]
    den = [1]
    for d in _divisors(order):
        if d < order:
            den = _poly_mul(den, list(cyclotomic_poly(d)))
    q, r, _ = _pseudo_divmod(num, den)
    assert not r, "cyclotomic division must be exact"
    return tuple(q)


class _Field:
    """Per-order context: modulus, zeta power table and reduction columns."""

    __slots__ = ("order", "degree", "modulus", "zeta_rows", "red_cols")

    def __init__(self, order):
        self.order = order
        self.modulus = cyclotomic_poly(order)
        d = self.degree = len(self.modulus) - 1
        # zeta^k for k in 0..order-1, as reduced coefficient tuples
        zrows = []
        cur = [1] + [0] * (d - 1)
        for _ in range(order):
            zrows.append(tuple(cur))
            cur = [0] + cur
            lead = cur.pop()
            if lead:
                cur = [a - lead * b for a, b in zip(cur, self.modulus)]
        self.zeta_rows = tuple(zrows)
        # red_cols[t][e] is coordinate t of x^(d+e) mod Phi, e < d-1:
        # enough to reduce any product of two reduced values
        self.red_cols = tuple(
            tuple(zrows[(d + e) % order][t] for e in range(d - 1))
            for t in range(d))


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

    CycNumber(order, coeffs) builds the value with rational coordinates
    coeffs (ints or Fractions); arithmetic builds results with _make.
    """

    __slots__ = ("order", "num", "den")

    def __init__(self, order, coeffs):
        # the lcm of lowest-terms denominators leaves gcd(*num, den) = 1
        den = lcm(*(c.denominator for c in coeffs))
        self.order = order
        self.num = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        self.den = den

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
        return _make(self.order, *_sum(add, self.num, self.den, *oc))

    __radd__ = __add__

    def __sub__(self, other):
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
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
        # scalar fast paths cover most structure constants
        if not any(b[1:]):
            s = b[0]
            return _make(self.order, tuple([x * s for x in a]), den)
        if not any(a[1:]):
            s = a[0]
            return _make(self.order, tuple([x * s for x in b]), den)
        # conv[k] = sum_i a[i] * b[k-i], then x^(d+e) -> red_cols[.][e]
        d = len(a)
        pad = (0,) * (d - 1)
        a, rb = pad + a + pad, b[::-1]
        conv = [sum(map(mul, a[k:k + d], rb)) for k in range(2 * d - 1)]
        high = conv[d:]
        return _make(self.order, tuple([
            c + sum(map(mul, high, col))
            for c, col in zip(conv, _field(self.order).red_cols)]), den)

    __rmul__ = __mul__

    def inverse(self) -> "CycNumber":
        """Multiplicative inverse by the extended Euclidean algorithm on
        the numerator polynomial A and Phi_order, in integers: every
        remainder r is kept primitive, with t * r = s * A (mod Phi) for an
        integer polynomial s and a positive integer t."""
        if not self:
            raise DivisionByZero("inverse of zero")
        r0, s0, t0 = list(_field(self.order).modulus), [], 1
        r1, s1, t1 = _trim(list(self.num)), [1], 1
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
        pad = (0,) * (len(self.num) - len(s1))
        out = _make(self.order, tuple([self.den * x for x in s1]) + pad, c)
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
        if not isinstance(n, int):
            return NotImplemented
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        acc = cyc(self.order, 1)
        while n:
            if n & 1:
                acc = acc * base
            base = base * base if n > 1 else base
            n >>= 1
        return acc

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
        return f"CycNumber({self.order}, {format_scalar(self)!r})"


_new = object.__new__


def _make(order, num, den) -> CycNumber:
    """num / den (a tuple of ints, den > 0) in canonical form; every
    arithmetic result is built here, so equality and hashing are exact."""
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
    """A rational value embedded into Q(zeta_order)."""
    if not isinstance(value, (int, Rational)):
        value = Rational(value)
    return _make(order, (value.numerator,)
                 + (0,) * (_field(order).degree - 1), value.denominator)


def root_of_unity(order: int, k: int) -> CycNumber:
    """zeta_order^k as a canonical element of Q(zeta_order)."""
    return _make(order, _field(order).zeta_rows[k % order], 1)


def _substitute(num, f: _Field, u: int) -> tuple:
    """Coordinates in f of sum_t num[t] * zeta^(t*u)."""
    out = [0] * f.degree
    for t, c in enumerate(num):
        if c:
            for s, z in enumerate(f.zeta_rows[(t * u) % f.order]):
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


def format_scalar(a: CycNumber) -> str:
    """Short human-readable form; z stands for zeta_order."""
    if not a:
        return "0"
    parts = []
    for t, n in enumerate(a.num):
        if not n:
            continue
        mag = abs(n)
        if t == 0:
            body = str(mag)
        else:
            zt = "z" if t == 1 else f"z^{t}"
            body = zt if mag == 1 else f"{mag}*{zt}"
        parts.append(("-" if n < 0 else "+") + body)
    s = "".join(parts)
    s = s[1:] if s.startswith("+") else s
    if a.den != 1:
        s = f"({s})/{a.den}" if len(parts) > 1 else f"{s}/{a.den}"
    return s
