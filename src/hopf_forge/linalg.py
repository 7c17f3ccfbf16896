"""Dense exact linear algebra over Q(zeta_N).

Matrices are immutable row-major tuples of CycNumber.  Reduction always
picks the first nonzero pivot in column order, so RREF output (and hence
every Subspace basis) is canonical: the same input yields byte-identical
results on every run.

Operators act on column coordinate vectors: column j of an operator
matrix holds the coordinates of the image of basis vector j.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .cyclofield import CycNumber, cyc
from .errors import NotInvariant, NotInvertible, OrderExceedsBound, OrderMismatch


class Mat:
    __slots__ = ("order", "rows", "cols", "data")

    def __init__(self, order, data, cols=None):
        data = tuple(tuple(row) for row in data)
        self.order = order
        self.rows = len(data)
        self.cols = len(data[0]) if data else (0 if cols is None else cols)
        self.data = data
        for row in data:
            if len(row) != self.cols:
                raise OrderMismatch("ragged matrix rows")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zeros(order, rows, cols):
        z = cyc(order, 0)
        return Mat(order, [[z] * cols for _ in range(rows)], cols=cols)

    @staticmethod
    def identity(order, n):
        z, o = cyc(order, 0), cyc(order, 1)
        return Mat(order, [[o if i == j else z for j in range(n)] for i in range(n)])

    @staticmethod
    def from_cols(order, cols, rows_n=None):
        cols = list(cols)
        rows_n = len(cols[0]) if cols else rows_n
        return Mat(order, [[col[i] for col in cols] for i in range(rows_n)],
                   cols=len(cols))

    # -- access --------------------------------------------------------------

    def row(self, i):
        return self.data[i]

    def col(self, j):
        return tuple(row[j] for row in self.data)

    def _check(self, other):
        if self.order != other.order:
            raise OrderMismatch("matrix orders differ")

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        return Mat(self.order, [[a + b for a, b in zip(r1, r2)]
                                for r1, r2 in zip(self.data, other.data)],
                   cols=self.cols)

    def __sub__(self, other):
        self._check(other)
        return Mat(self.order, [[a - b for a, b in zip(r1, r2)]
                                for r1, r2 in zip(self.data, other.data)],
                   cols=self.cols)

    def __neg__(self):
        return Mat(self.order, [[-a for a in r] for r in self.data], cols=self.cols)

    def scale(self, c):
        return Mat(self.order, [[a * c for a in r] for r in self.data], cols=self.cols)

    def __matmul__(self, other):
        self._check(other)
        if self.cols != other.rows:
            raise OrderMismatch(f"shape mismatch {self.rows}x{self.cols} @ "
                                f"{other.rows}x{other.cols}")
        z = cyc(self.order, 0)
        odata = other.data
        out = []
        for row in self.data:
            acc = [z] * other.cols
            for k, a in enumerate(row):
                if a:
                    orow = odata[k]
                    for j, b in enumerate(orow):
                        if b:
                            acc[j] = acc[j] + a * b
            out.append(acc)
        return Mat(self.order, out, cols=other.cols)

    def apply(self, vec: Sequence[CycNumber]):
        """Matrix times column vector, with zero skipping."""
        if self.cols != len(vec):
            raise OrderMismatch("vector length mismatch")
        z = cyc(self.order, 0)
        acc = [z] * self.rows
        for k, x in enumerate(vec):
            if x:
                for i in range(self.rows):
                    a = self.data[i][k]
                    if a:
                        acc[i] = acc[i] + a * x
        return tuple(acc)

    def transpose(self):
        return Mat(self.order, [self.col(j) for j in range(self.cols)],
                   cols=self.rows)

    def trace(self):
        acc = cyc(self.order, 0)
        for i in range(min(self.rows, self.cols)):
            acc = acc + self.data[i][i]
        return acc

    def is_zero(self):
        return not any(any(row) for row in self.data)

    def pow(self, n: int):
        if self.rows != self.cols:
            raise OrderMismatch("power of a non-square matrix")
        acc = Mat.identity(self.order, self.rows)
        base = self
        while n:
            if n & 1:
                acc = acc @ base
            n >>= 1
            if n:
                base = base @ base
        return acc

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.order == other.order and self.cols == other.cols
                and self.data == other.data)

    def __hash__(self):
        return hash((self.order, self.cols, self.data))

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols}, order {self.order})"


def hstack(a: Mat, b: Mat) -> Mat:
    a._check(b)
    return Mat(a.order, [ra + rb for ra, rb in zip(a.data, b.data)],
               cols=a.cols + b.cols)


def vstack(a: Mat, b: Mat) -> Mat:
    a._check(b)
    if a.cols != b.cols:
        raise OrderMismatch("column count mismatch")
    return Mat(a.order, a.data + b.data, cols=a.cols)


def rref(m: Mat):
    """Reduced row echelon form; returns (Mat, rank, pivot column tuple)."""
    work = [list(row) for row in m.data]
    rows, cols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if work[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = work[r][c].inverse()
        work[r] = [a * inv for a in work[r]]
        prow = work[r]
        for i in range(rows):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], prow)]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return Mat(m.order, work, cols=cols), r, tuple(pivots)


class Subspace:
    """A subspace of k^ambient_dim with a canonical RREF row basis."""

    __slots__ = ("order", "ambient_dim", "basis", "pivots")

    def __init__(self, order, ambient_dim, basis: Mat, pivots):
        self.order = order
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = pivots

    @staticmethod
    def from_vectors(order, ambient_dim, vectors: Iterable[Sequence[CycNumber]]):
        vectors = [list(v) for v in vectors]
        if not vectors:
            return Subspace(order, ambient_dim,
                            Mat(order, [], cols=ambient_dim), ())
        red, rank, pivots = rref(Mat(order, vectors, cols=ambient_dim))
        basis = Mat(order, red.data[:rank], cols=ambient_dim)
        return Subspace(order, ambient_dim, basis, pivots)

    @property
    def dim(self):
        return self.basis.rows

    def contains(self, vec) -> bool:
        return self.coords_of(vec) is not None

    def coords_of(self, vec):
        """Coefficients of vec over the basis rows, or None if outside.

        With an RREF basis the candidate coefficients are just the entries
        of vec at the pivot columns; membership is confirmed by checking
        the residual is zero.
        """
        coeffs = tuple(vec[p] for p in self.pivots)
        residual = list(vec)
        for t, c in enumerate(coeffs):
            if c:
                row = self.basis.data[t]
                for j in range(self.ambient_dim):
                    if row[j]:
                        residual[j] = residual[j] - c * row[j]
        if any(residual):
            return None
        return coeffs

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.ambient_dim})"


def null_space(m: Mat) -> Subspace:
    """Canonical basis of the right kernel {v : m v = 0}."""
    red, rank, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    z, o = cyc(m.order, 0), cyc(m.order, 1)
    vectors = []
    for fc in free:
        v = [z] * m.cols
        v[fc] = o
        for r, pc in enumerate(pivots):
            v[pc] = -red.data[r][fc]
        vectors.append(v)
    return Subspace.from_vectors(m.order, m.cols, vectors)


def eigenspace(m: Mat, c: CycNumber) -> Subspace:
    if m.rows != m.cols:
        raise OrderMismatch("eigenspace of a non-square matrix")
    shift = Mat.identity(m.order, m.rows).scale(c)
    return null_space(m - shift)


def inverse(m: Mat) -> Mat:
    if m.rows != m.cols:
        raise NotInvertible("non-square matrix")
    red, _, pivots = rref(hstack(m, Mat.identity(m.order, m.rows)))
    # the augmented block always has full row rank; m is invertible only
    # when every pivot lands in the left block
    if tuple(pivots[:m.rows]) != tuple(range(m.rows)):
        raise NotInvertible("matrix is singular")
    return Mat(m.order, [row[m.cols:] for row in red.data], cols=m.cols)


def operator_order(m: Mat, bound: int) -> int:
    """Least t >= 1 with m^t = identity; requires m invertible."""
    if m.rows != m.cols:
        raise NotInvertible("non-square matrix")
    ident = Mat.identity(m.order, m.rows)
    _, rank, _ = rref(m)
    if rank < m.rows:
        raise NotInvertible("operator is singular, no finite order")
    acc = m
    for t in range(1, bound + 1):
        if acc == ident:
            return t
        acc = acc @ m
    raise OrderExceedsBound(f"no order found within bound {bound}")


def kronecker(a: Mat, b: Mat) -> Mat:
    """Kronecker product with (i tensor j) |-> i * b.cols + j indexing on
    columns and i * b.rows + j on rows."""
    a._check(b)
    z = cyc(a.order, 0)
    out = [[z] * (a.cols * b.cols) for _ in range(a.rows * b.rows)]
    for i in range(a.rows):
        for j in range(a.cols):
            f = a.data[i][j]
            if f:
                for k in range(b.rows):
                    for l in range(b.cols):
                        g = b.data[k][l]
                        if g:
                            out[i * b.rows + k][j * b.cols + l] = f * g
    return Mat(a.order, out, cols=a.cols * b.cols)


def restrict_operator(m: Mat, sub: Subspace) -> Mat:
    """Matrix of m on sub's basis; raises NotInvariant if m leaves sub."""
    cols = []
    for r in range(sub.dim):
        img = m.apply(sub.basis.data[r])
        coords = sub.coords_of(img)
        if coords is None:
            raise NotInvariant("operator does not preserve the subspace")
        cols.append(coords)
    return Mat.from_cols(m.order, cols, rows_n=sub.dim) if cols else \
        Mat(m.order, [], cols=0)


# -- characteristic polynomial -----------------------------------------------

def _poly_sub(a, b, zero):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else zero) - (b[i] if i < len(b) else zero)
            for i in range(n)]


def _poly_shift_scale(p, c, zero):
    """(t - c) * p for ascending coefficient list p."""
    out = [zero] + list(p)
    for i, x in enumerate(p):
        if x:
            out[i] = out[i] - c * x
    return out


def charpoly(m: Mat):
    """Monic characteristic polynomial det(tI - m), ascending coefficients.

    Uses an exact similarity reduction to Hessenberg form and the standard
    leading-minor recurrence, O(n^3) field operations.
    """
    if m.rows != m.cols:
        raise OrderMismatch("charpoly of a non-square matrix")
    n = m.rows
    zero, one = cyc(m.order, 0), cyc(m.order, 1)
    if n == 0:
        return (one,)
    h = [list(row) for row in m.data]
    for j in range(n - 2):
        pivot = None
        for i in range(j + 1, n):
            if h[i][j]:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != j + 1:
            h[pivot], h[j + 1] = h[j + 1], h[pivot]
            for row in h:
                row[pivot], row[j + 1] = row[j + 1], row[pivot]
        inv = h[j + 1][j].inverse()
        for i in range(j + 2, n):
            if h[i][j]:
                f = h[i][j] * inv
                hi, hj = h[i], h[j + 1]
                for c in range(j, n):
                    hi[c] = hi[c] - f * hj[c]
                for r in range(n):
                    h[r][j + 1] = h[r][j + 1] + f * h[r][i]
    # p_k = charpoly of leading k x k block of the Hessenberg matrix
    polys = [[one]]
    for k in range(1, n + 1):
        p = _poly_shift_scale(polys[k - 1], h[k - 1][k - 1], zero)
        beta = one
        for i in range(k - 2, -1, -1):
            beta = beta * h[i + 1][i]
            if h[i][k - 1] and beta:
                corr = [beta * h[i][k - 1] * c for c in polys[i]]
                p = _poly_sub(p, corr, zero)
        polys.append(p)
    return tuple(polys[n])


# -- root finding over Q(zeta_N) ----------------------------------------------


def _rational_roots(coeffs):
    """All rational roots of a polynomial with Fraction coefficients.

    coeffs is ascending with nonzero constant term and nonzero lead.
    """
    from fractions import Fraction
    from math import gcd

    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    g = 0
    for c in ints:
        g = gcd(g, c)
    if g > 1:
        ints = [c // g for c in ints]
    from sympy import divisors
    roots = []
    for p in divisors(abs(ints[0])):
        for q in divisors(abs(ints[-1])):
            if gcd(p, q) != 1:
                continue
            for r in (Fraction(p, q), Fraction(-p, q)):
                acc = Fraction(0)
                for c in reversed(ints):
                    acc = acc * r + c
                if not acc:
                    roots.append(r)
    return roots


def roots_in_field(coeffs: Sequence[CycNumber], order: int):
    """Roots of a monic-or-not polynomial that lie in Q(zeta_order).

    Only roots of the form r * zeta^t with r rational are searched; over
    the orders this package targets that covers every eigenvalue the
    algorithms may legitimately produce, and anything outside the family
    is reported via the unsplit remainder degree rather than guessed at.

    Returns (roots, remainder_degree) where roots is a list of
    (CycNumber, multiplicity) pairs and remainder_degree is the degree
    left after dividing out all found roots (0 means fully split).
    """
    from fractions import Fraction
    from math import gcd as _gcd

    from .cyclofield import galois_conjugate, root_of_unity

    zero, one = cyc(order, 0), cyc(order, 1)
    poly = [c for c in coeffs]
    while poly and not poly[-1]:
        poly.pop()
    if len(poly) <= 1:
        return [], 0
    roots = []
    # strip zero roots first
    zmult = 0
    while not poly[0]:
        poly.pop(0)
        zmult += 1
    if zmult:
        roots.append((zero, zmult))

    candidates = {}
    for t in range(order):
        zt = root_of_unity(order, t)
        twisted = []
        p = one
        for c in poly:
            twisted.append(c * p)
            p = p * zt
        # norm down to Q by multiplying all galois conjugates
        units = [u for u in range(1, order + 1) if _gcd(u, order) == 1]
        norm = [one]
        for u in units:
            conj = [galois_conjugate(c, u) for c in twisted]
            acc = [zero] * (len(norm) + len(conj) - 1)
            for i, a in enumerate(norm):
                if a:
                    for j, b in enumerate(conj):
                        if b:
                            acc[i + j] = acc[i + j] + a * b
            norm = acc
        rat = []
        for c in norm:
            r = c.as_rational()
            assert r is not None, "galois norm must be rational"
            rat.append(r)
        while rat and not rat[-1]:
            rat.pop()
        for r in _rational_roots(rat):
            cand = zt * r
            key = tuple((f.numerator, f.denominator) for f in cand.coeffs)
            candidates[key] = cand

    for key in sorted(candidates):
        cand = candidates[key]
        mult = 0
        while len(poly) > 1:
            # synthetic division by (s - cand)
            quot = [zero] * (len(poly) - 1)
            acc = poly[-1]
            for i in range(len(poly) - 2, -1, -1):
                quot[i] = acc
                acc = poly[i] + cand * acc
            if acc:
                break
            poly = quot
            mult += 1
        if mult:
            roots.append((cand, mult))
    return roots, len(poly) - 1
