"""Exact arithmetic in the cyclotomic fields Q(zeta_N).

A value is a vector of Fraction coefficients over the power basis
1, zeta, ..., zeta^(phi(N)-1), reduced modulo the N-th cyclotomic
polynomial Phi_N.  The representation is canonical: two values are equal
exactly when their orders and coefficient tuples are equal.  Order 1
gives plain rationals (zeta_1 = 1).

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
from math import gcd

from .errors import BoundExceeded, DivisionByZero, OrderMismatch

CYCLOTOMIC_ORDER_BOUND = 1000

_R0 = Rational(0)
_R1 = Rational(1)


# -- rational polynomial helpers (ascending coefficient lists) --------------

def _trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _poly_mul(a, b):
    out = [_R0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return _trim(out)


def _poly_divmod(a, b):
    # b must be nonzero; exact over Q
    a = _trim(list(a))
    b = _trim(list(b))
    q = [_R0] * max(len(a) - len(b) + 1, 0)
    inv_lead = _R1 / b[-1]
    while len(a) >= len(b):
        if not a[-1]:
            a.pop()
            continue
        shift = len(a) - len(b)
        c = a[-1] * inv_lead
        q[shift] = c
        for i, bi in enumerate(b):
            a[shift + i] -= c * bi
        a.pop()
        _trim(a)
    return _trim(q), a


def _divisors(n):
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(order: int) -> tuple:
    """Coefficients of Phi_order, ascending, as Fractions (monic).

    Computed by dividing x^order - 1 by the cyclotomic polynomials of all
    proper divisors.  Orders outside 1..CYCLOTOMIC_ORDER_BOUND raise
    BoundExceeded.
    """
    if order < 1 or order > CYCLOTOMIC_ORDER_BOUND:
        raise BoundExceeded(f"cyclotomic order {order} outside 1..{CYCLOTOMIC_ORDER_BOUND}")
    num = [_R0] * (order + 1)
    num[0], num[order] = Rational(-1), _R1
    den = [_R1]
    for d in _divisors(order):
        if d < order:
            den = _poly_mul(den, list(cyclotomic_poly(d)))
    q, r = _poly_divmod(num, den)
    assert not r, "cyclotomic division must be exact"
    return tuple(q)


class _Field:
    """Per-order context: modulus, reduction rows and zeta power table."""

    __slots__ = ("order", "degree", "modulus", "red_rows", "zeta_rows")

    def __init__(self, order):
        self.order = order
        self.modulus = cyclotomic_poly(order)
        self.degree = len(self.modulus) - 1
        d = self.degree
        # x^d mod Phi, then x^(d+1), ..., x^(2d-2): enough to reduce any
        # product of two reduced values.
        top = [-c for c in self.modulus[:d]]
        rows = [tuple(top)]
        cur = list(top)
        for _ in range(d - 2):
            cur = [_R0] + cur
            lead = cur.pop()
            if lead:
                cur = [a + lead * b for a, b in zip(cur, rows[0])]
            rows.append(tuple(cur))
        self.red_rows = tuple(rows)
        # zeta^k for k in 0..order-1, as reduced coefficient tuples
        zrows = []
        cur = [_R1] + [_R0] * (d - 1)
        for _ in range(order):
            zrows.append(tuple(cur))
            cur = [_R0] + cur
            lead = cur.pop()
            if lead:
                cur = [a + lead * b for a, b in zip(cur, rows[0])]
        self.zeta_rows = tuple(zrows)


@functools.lru_cache(maxsize=None)
def _field(order: int) -> _Field:
    return _Field(order)


class CycNumber:
    """An element of Q(zeta_order) in canonical power-basis form."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        self.order = order
        self.coeffs = coeffs

    # -- constructors --------------------------------------------------

    @staticmethod
    def from_rational(order, value) -> "CycNumber":
        f = _field(order)
        return CycNumber(order, (Rational(value),) + (_R0,) * (f.degree - 1))

    def _coerce(self, other):
        if isinstance(other, CycNumber):
            if other.order != self.order:
                raise OrderMismatch(
                    f"scalar orders differ: {self.order} vs {other.order}")
            return other.coeffs
        if isinstance(other, (int, Rational)):
            d = len(self.coeffs)
            return (Rational(other),) + (_R0,) * (d - 1)
        return None

    # -- predicates ----------------------------------------------------

    def __bool__(self):
        return any(self.coeffs)

    def is_rational(self):
        return not any(self.coeffs[1:])

    def as_rational(self):
        """The value as a Fraction, or None if it is irrational."""
        return self.coeffs[0] if self.is_rational() else None

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        return CycNumber(self.order, tuple(a + b for a, b in zip(self.coeffs, oc)))

    __radd__ = __add__

    def __sub__(self, other):
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        return CycNumber(self.order, tuple(a - b for a, b in zip(self.coeffs, oc)))

    def __rsub__(self, other):
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        return CycNumber(self.order, tuple(b - a for a, b in zip(self.coeffs, oc)))

    def __neg__(self):
        return CycNumber(self.order, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        a, b = self.coeffs, oc
        # scalar fast paths cover most structure constants
        if not any(b[1:]):
            s = b[0]
            if not s:
                return CycNumber(self.order, (_R0,) * len(a))
            return CycNumber(self.order, tuple(x * s for x in a))
        if not any(a[1:]):
            s = a[0]
            if not s:
                return CycNumber(self.order, (_R0,) * len(a))
            return CycNumber(self.order, tuple(x * s for x in b))
        d = len(a)
        conv = [_R0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        out = conv[:d]
        rows = _field(self.order).red_rows
        for e in range(d, 2 * d - 1):
            c = conv[e]
            if c:
                row = rows[e - d]
                for t in range(d):
                    if row[t]:
                        out[t] += c * row[t]
        return CycNumber(self.order, tuple(out))

    __rmul__ = __mul__

    def inverse(self) -> "CycNumber":
        """Multiplicative inverse via the extended Euclidean algorithm
        on the coefficient polynomial and Phi_order."""
        if not self:
            raise DivisionByZero("inverse of zero")
        mod = list(_field(self.order).modulus)
        # invariant: r_i = s_i * self  (mod Phi)
        r0, r1 = mod, _trim(list(self.coeffs))
        s0, s1 = [], [_R1]
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            qs1 = _poly_mul(q, s1) if q and s1 else []
            width = max(len(s0), len(qs1))
            s_new = [(s0[i] if i < len(s0) else _R0)
                     - (qs1[i] if i < len(qs1) else _R0)
                     for i in range(width)]
            r0, r1 = r1, r
            s0, s1 = s1, _trim(s_new)
        # r1 is a nonzero constant: gcd(self, Phi) = 1 since Phi irreducible
        assert r1, "cyclotomic polynomial must be coprime to nonzero elements"
        c = _R1 / r1[0]
        d = len(self.coeffs)
        inv = [x * c for x in s1] + [_R0] * (d - len(s1))
        out = CycNumber(self.order, tuple(inv[:d]))
        assert (out * self).as_rational() == 1
        return out

    def __truediv__(self, other):
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        return self * CycNumber(self.order, oc).inverse()

    def __rtruediv__(self, other):
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        return CycNumber(self.order, oc) * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        acc = CycNumber.from_rational(self.order, 1)
        while n:
            if n & 1:
                acc = acc * base
            base = base * base if n > 1 else base
            n >>= 1
        return acc

    # -- comparison ------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, CycNumber):
            return self.order == other.order and self.coeffs == other.coeffs
        if isinstance(other, (int, Rational)):
            return self.is_rational() and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.order, self.coeffs))

    def __repr__(self):
        return f"CycNumber({self.order}, {format_scalar(self)!r})"


def cyc(order: int, value) -> CycNumber:
    """A rational value embedded into Q(zeta_order)."""
    return CycNumber.from_rational(order, value)


def root_of_unity(order: int, k: int) -> CycNumber:
    """zeta_order^k as a canonical element of Q(zeta_order)."""
    f = _field(order)
    return CycNumber(order, f.zeta_rows[k % order])


def galois_conjugate(a: CycNumber, u: int) -> CycNumber:
    """Image of a under zeta |-> zeta^u; u must be coprime to the order."""
    if gcd(u, a.order) != 1:
        raise ValueError(f"{u} not coprime to order {a.order}")
    f = _field(a.order)
    out = [_R0] * f.degree
    for t, c in enumerate(a.coeffs):
        if c:
            row = f.zeta_rows[(t * u) % a.order]
            for s in range(f.degree):
                if row[s]:
                    out[s] += c * row[s]
    return CycNumber(a.order, tuple(out))


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
    f = _field(new_order)
    out = [_R0] * f.degree
    for t, c in enumerate(a.coeffs):
        if c:
            row = f.zeta_rows[(t * step) % new_order]
            for s in range(f.degree):
                if row[s]:
                    out[s] += c * row[s]
    return CycNumber(new_order, tuple(out))


# -- serialization -----------------------------------------------------------

def scalar_to_json(a: CycNumber):
    """Canonical JSON form: bare int for rational integers, else an object
    with a common-denominator integer numerator vector."""
    r = a.as_rational()
    if r is not None and r.denominator == 1:
        return int(r)
    den = 1
    for c in a.coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    num = [int(c * den) for c in a.coeffs]
    return {"num": num, "den": den}


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
        if (not isinstance(den, int) or den == 0 or not isinstance(num, list)
                or len(num) > d or not all(isinstance(x, int) for x in num)):
            raise OrderMismatch(f"bad scalar object {obj!r} for order {order}")
        coeffs = [Rational(x, den) for x in num] + [_R0] * (d - len(num))
        return CycNumber(order, tuple(coeffs))
    raise OrderMismatch(f"unreadable scalar {obj!r}")


def format_scalar(a: CycNumber) -> str:
    """Short human-readable form; z stands for zeta_order."""
    if not a:
        return "0"
    den = 1
    for c in a.coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    parts = []
    for t, c in enumerate(a.coeffs):
        n = int(c * den)
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
    if den != 1:
        s = f"({s})/{den}" if len(parts) > 1 else f"{s}/{den}"
    return s
