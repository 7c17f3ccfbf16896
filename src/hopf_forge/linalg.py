"""Dense exact linear algebra over Q(zeta_N).

Matrices are immutable row-major tuples of CycNumber.  rref, null_space
and null_space_of_terms share one elimination on sparse {column: value}
rows, which takes pivot columns in order and pivots each on its shortest
candidate row.  The reduced row echelon form of a row space is unique,
so RREF output (and hence every Subspace basis) is canonical:
it does not depend on the pivot rows chosen, on row order or on repeated
rows, and the same input yields byte-identical results on every run.

Operators act on column coordinate vectors: column j of an operator
matrix holds the coordinates of the image of basis vector j.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm

from .cyclofield import (CycNumber, _divisors, coordinate_key, cyc,
                         galois_conjugate, root_of_unity)
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


def _eliminate(order, rows):
    """Reduced row echelon form of {column: value} rows, which hold no
    zero values and are changed in place: (nonzero rows, pivot columns).

    Pivot columns are taken in order, each pivoted on its shortest
    candidate row, the first one on ties.
    """
    z = cyc(order, 0)
    open_rows = [row for row in rows if row]
    done, pivots = [], []
    for c in sorted({c for row in open_rows for c in row}):
        best = min((i for i, row in enumerate(open_rows) if c in row),
                   key=lambda i: len(open_rows[i]), default=None)
        if best is None:
            continue
        prow = open_rows.pop(best)
        inv = prow[c].inverse()
        prow = {k: a * inv for k, a in prow.items()}
        for row in open_rows + done:
            f = row.get(c)
            if f is not None:
                for k, b in prow.items():
                    v = row.get(k, z) - f * b
                    if v:
                        row[k] = v
                    else:
                        del row[k]
        open_rows = [row for row in open_rows if row]
        done.append(prow)
        pivots.append(c)
    return done, tuple(pivots)


def _sparse(row):
    return {c: a for c, a in enumerate(row) if a}


def rref(m: Mat):
    """Reduced row echelon form; returns (Mat, rank, pivot column tuple)."""
    z = cyc(m.order, 0)
    done, pivots = _eliminate(m.order, [_sparse(row) for row in m.data])
    data = [[row.get(c, z) for c in range(m.cols)] for row in done]
    data += [[z] * m.cols] * (m.rows - len(done))
    return Mat(m.order, data, cols=m.cols), len(done), pivots


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
    return _kernel(m.order, m.cols, [_sparse(row) for row in m.data])


def null_space_of_terms(order, cols, terms) -> Subspace:
    """null_space of the equations given as (equation label, column,
    coefficient) terms; terms with the same label and column add up."""
    z = cyc(order, 0)
    rows = {}
    for eq, col, c in terms:
        row = rows.setdefault(eq, {})
        row[col] = row.get(col, z) + c
    return _kernel(order, cols, [{k: a for k, a in row.items() if a}
                                 for row in rows.values()])


def _kernel(order, cols, rows) -> Subspace:
    """Kernel of the {column: value} rows, from their sparse elimination."""
    done, pivots = _eliminate(order, rows)
    pivot_set = set(pivots)
    z, o = cyc(order, 0), cyc(order, 1)
    vectors = []
    for fc in range(cols):
        if fc in pivot_set:
            continue
        v = [z] * cols
        v[fc] = o
        for row, pc in zip(done, pivots):
            v[pc] = -row.get(fc, z)
        vectors.append(v)
    return Subspace.from_vectors(order, cols, vectors)


def eigenspace(m: Mat, c: CycNumber) -> Subspace:
    """{v : m v = c v}, the kernel of m - c with c taken off the
    diagonal only."""
    if m.rows != m.cols:
        raise OrderMismatch("eigenspace of a non-square matrix")
    rows = [_sparse(row[:i] + (row[i] - c,) + row[i + 1:])
            for i, row in enumerate(m.data)]
    return _kernel(m.order, m.cols, rows)


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


def _rational_roots(poly):
    """All rational roots of a polynomial over Q, given as CycNumbers.

    poly is ascending with nonzero constant term and nonzero lead.
    """
    den = lcm(*(c.den for c in poly))
    ints = [c.num[0] * (den // c.den) for c in poly]
    g = gcd(*ints)
    if g > 1:
        ints = [c // g for c in ints]
    # a root a/q in lowest terms makes f = (q s - a) g with g integral
    # (Gauss), so q - a divides f(1) and q + a divides f(-1)
    at_one = sum(ints)
    at_minus_one = sum(ints[0::2]) - sum(ints[1::2])
    lead_divisors = _divisors(abs(ints[-1]))
    roots = []
    for p in _divisors(abs(ints[0])):
        for q in lead_divisors:
            if gcd(p, q) != 1:
                continue
            for a in (p, -p):
                if q != a and at_one % (q - a):
                    continue
                if q != -a and at_minus_one % (q + a):
                    continue
                # q^deg f(a/q), in integers
                acc, q_power = ints[-1], 1
                for c in reversed(ints[:-1]):
                    q_power *= q
                    acc = acc * a + c * q_power
                if not acc:
                    roots.append(Fraction(a, q))
    return roots


def roots_in_field(coeffs: Sequence[CycNumber], order: int):
    """Roots of a monic-or-not polynomial that lie in Q(zeta_order).

    Only roots of the form r * zeta^t with r rational are searched; over
    the orders this package targets that covers every eigenvalue the
    algorithms may legitimately produce, and anything outside the family
    is reported via the unsplit remainder degree rather than guessed at.

    For each twist p(zeta^t s), the candidates r are the rational roots
    of the product of its *distinct* Galois conjugates.  That set is
    Galois-stable, so the product has rational coefficients, and the full
    norm (the product over all phi(order) conjugates) is a power of it,
    so both have the same rational roots.  Twists with the same set of
    conjugates share one product.

    Returns (roots, remainder_degree) where roots is a list of
    (CycNumber, multiplicity) pairs and remainder_degree is the degree
    left after dividing out all found roots (0 means fully split).
    """
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
    if len(poly) == 1:
        return roots, 0

    zeta = [root_of_unity(order, k) for k in range(order)]
    units = [u for u in range(1, order + 1) if gcd(u, order) == 1]
    conjugates = [(u, [galois_conjugate(c, u) for c in poly]) for u in units]
    norm_roots = {}  # set of conjugates -> rational roots of their product
    candidates = {}
    for t in range(order):
        # the conjugate of p(zeta^t s) under zeta |-> zeta^u has
        # coefficients sigma_u(c_i) * zeta^(t*u*i)
        distinct = {}
        for u, conj in conjugates:
            twisted = [c * zeta[t * u * i % order] for i, c in enumerate(conj)]
            distinct.setdefault(tuple(twisted), twisted)
        orbit = frozenset(distinct)
        if orbit not in norm_roots:
            norm = [one]
            for conj in distinct.values():
                acc = [zero] * (len(norm) + len(conj) - 1)
                for i, a in enumerate(norm):
                    if a:
                        for j, b in enumerate(conj):
                            if b:
                                acc[i + j] = acc[i + j] + a * b
                norm = acc
            assert all(c.is_rational() for c in norm), \
                "galois norm must be rational"
            norm_roots[orbit] = _rational_roots(norm)
        for r in norm_roots[orbit]:
            cand = zeta[t] * r
            candidates[coordinate_key(cand)] = cand

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
