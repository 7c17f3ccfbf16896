"""Exact linear algebra over Q(zeta_N) on the nonzeros of each row.

A matrix stores only each row's nonzero (column, entry) pairs, in column
order, and every constructor, product, transpose and elimination builds
those pairs directly; the dense rows are rebuilt only when read, on cold
paths.  rref, null_space and null_space_of_terms share one elimination
on sparse {column: value} rows, which takes pivot columns in order and
pivots each on its shortest candidate row.  The reduced row echelon form
of a row space is unique, so RREF output (and hence every Subspace
basis) is canonical: it does not depend on the pivot rows chosen, on row
order or on repeated rows, and the same input yields byte-identical
results on every run.

Operators act on column coordinate vectors: column j of an operator
matrix holds the coordinates of the image of basis vector j.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, isqrt, lcm

from .cyclofield import (CycNumber, _pseudo_divmod, coordinate_key, cyc,
                         galois_conjugate, root_of_unity)
from .errors import NotInvariant, NotInvertible, OrderMismatch


class Mat:
    """A matrix kept as its rows' nonzero (column, entry) pairs in column
    order; no zero is stored.  Mat(order, rows) lists those of dense
    rows, Mat(order, cols=c, nonzeros=rows) takes pair lists as built,
    and data rebuilds the dense rows on each read."""

    __slots__ = ("order", "rows", "cols", "_nonzeros")

    def __init__(self, order, data=(), cols=None, *, nonzeros=None):
        if nonzeros is None:
            data = [tuple(row) for row in data]
            cols = len(data[0]) if data else (0 if cols is None else cols)
            if any(len(row) != cols for row in data):
                raise OrderMismatch("ragged matrix rows")
            z = cyc(order, 0)
            nonzeros = [[(j, x) for j, x in enumerate(row) if x is not z]
                        for row in data]
        self.order = order
        self._nonzeros = tuple(nonzeros)
        self.rows = len(self._nonzeros)
        self.cols = cols

    def nonzeros(self):
        """Per row, its nonzero (column, entry) pairs in column order."""
        return self._nonzeros

    @property
    def data(self):
        """The dense rows, built on each read (for tests and cold paths)."""
        z = cyc(self.order, 0)
        return tuple(tuple(row.get(j, z) for j in range(self.cols))
                     for row in map(dict, self._nonzeros))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_terms(order, rows, cols, terms):
        """The rows x cols matrix whose entry (r, c) is the sum of the x
        of the (r, c, x) in terms; a sum that cancels is the zero."""
        out = [{} for _ in range(rows)]
        for r, c, x in terms:
            row = out[r]
            row[c] = x if (prev := row.get(c)) is None else prev + x
        return Mat(order, cols=cols, nonzeros=_sorted_rows(order, out))

    @staticmethod
    def identity(order, n):
        one = cyc(order, 1)
        return Mat(order, cols=n, nonzeros=[[(i, one)] for i in range(n)])

    @staticmethod
    def from_cols(order, cols, rows_n=None):
        """The matrix whose column j is the dense vector cols[j]."""
        cols = list(cols)
        return Mat(order, cols, cols=rows_n).transpose()

    # -- access --------------------------------------------------------------

    def col(self, j):
        z = cyc(self.order, 0)
        return tuple(next((x for k, x in row if k == j), z)
                     for row in self._nonzeros)

    # -- arithmetic ------------------------------------------------------

    def __matmul__(self, other):
        if self.order != other.order:
            raise OrderMismatch("matrix orders differ")
        if self.cols != other.rows:
            raise OrderMismatch(f"shape mismatch {self.rows}x{self.cols} @ "
                                f"{other.rows}x{other.cols}")
        right = other.nonzeros()
        out = []
        for row in self._nonzeros:
            acc = {}
            for k, a in row:
                for j, b in right[k]:
                    x = acc.get(j)
                    acc[j] = a * b if x is None else x + a * b
            out.append(acc)
        return Mat(self.order, cols=other.cols,
                   nonzeros=_sorted_rows(self.order, out))

    def apply(self, vec: Sequence[CycNumber]):
        """Matrix times column vector, over the nonzero entries."""
        if self.cols != len(vec):
            raise OrderMismatch("vector length mismatch")
        z = cyc(self.order, 0)
        return tuple(sum((a * vec[k] for k, a in row if vec[k] is not z), z)
                     for row in self._nonzeros)

    def transpose(self):
        out = [[] for _ in range(self.cols)]
        for i, row in enumerate(self._nonzeros):
            for j, x in row:
                out[j].append((i, x))
        return Mat(self.order, cols=self.rows, nonzeros=out)

    def trace(self):
        return sum((x for i, row in enumerate(self._nonzeros)
                    for j, x in row if j == i), cyc(self.order, 0))

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.order == other.order and self.cols == other.cols
                and self._nonzeros == other._nonzeros)

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols}, order {self.order})"


def _sorted_rows(order, rows):
    """{column: value} rows as pair lists in column order, zeros dropped."""
    z = cyc(order, 0)
    return [[(j, row[j]) for j in sorted(row) if row[j] is not z]
            for row in rows]


def product_diagonal(a: Mat, b: Mat) -> list:
    """The diagonal entries (a b)[c][c], each read from the nonzeros of
    row c of a and column c of b."""
    z, cols = cyc(a.order, 0), map(dict, b.transpose().nonzeros())
    return [sum((x * col[k] for k, x in row if k in col), z)
            for row, col in zip(a.nonzeros(), cols)]


def _eliminate(order, rows):
    """Reduced row echelon form of {column: value} rows, which hold no
    zero values and are changed in place: (nonzero rows, pivot columns).

    Pivot columns are taken in order, each pivoted on its shortest
    candidate row, the first one on ties.  An index from each column to
    the rows holding it, kept up to date as entries fill in or cancel,
    names the rows each pivot visits, so rows without the pivot column
    are never scanned.  A pivot equal to 1 scales nothing, and each other
    pivot value is inverted once per call.
    """
    z = cyc(order, 0)
    rows = [row for row in rows if row]
    holders = {}  # column -> indices of the rows holding it
    for i, row in enumerate(rows):
        for c in row:
            holders.setdefault(c, set()).add(i)
    open_rows = set(range(len(rows)))
    done, pivots, inverses = [], [], {}
    for c in sorted(holders):
        ids = holders.pop(c)
        best = min((i for i in ids if i in open_rows),
                   key=lambda i: (len(rows[i]), i), default=None)
        if best is None:
            continue
        open_rows.remove(best)
        ids.remove(best)
        prow = rows[best]
        p = prow[c]
        if p != 1:
            if p not in inverses:
                inverses[p] = p.inverse()
            inv = inverses[p]
            prow = rows[best] = {k: a * inv for k, a in prow.items()}
        terms = [(k, b) for k, b in prow.items() if k != c]
        for i in ids:
            row = rows[i]
            f = row.pop(c)
            for k, b in terms:
                x = row.get(k)
                if x is None:  # a fill-in
                    row[k] = -(f * b)
                    holders[k].add(i)
                elif (v := x - f * b) is not z:
                    row[k] = v
                else:  # a sum that cancels is the canonical zero
                    del row[k]
                    holders[k].remove(i)
        done.append(prow)
        pivots.append(c)
    return done, tuple(pivots)


def rref(m: Mat):
    """Reduced row echelon form; returns (Mat, rank, pivot column tuple)."""
    done, pivots = _eliminate(m.order, [dict(row) for row in m.nonzeros()])
    rows = _sorted_rows(m.order, done)
    rows += [[] for _ in range(m.rows - len(done))]
    return Mat(m.order, cols=m.cols, nonzeros=rows), len(done), pivots


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
        red, rank, pivots = rref(Mat(order, vectors, cols=ambient_dim))
        basis = Mat(order, cols=ambient_dim, nonzeros=red.nonzeros()[:rank])
        return Subspace(order, ambient_dim, basis, pivots)

    @property
    def dim(self):
        return self.basis.rows

    def image_of(self, ker: "Subspace") -> "Subspace":
        """The subspace whose coordinates over this basis W span ker, a
        subspace of k^dim.  With ker in RREF with pivots q_r, ker.basis W
        is in RREF too, with pivots p_(q_r): row r vanishes before column
        p_(q_r), is 1 there and 0 at every other p_(q_s).  So no rref is
        needed for the canonical basis."""
        return Subspace(self.order, self.ambient_dim, ker.basis @ self.basis,
                        tuple(self.pivots[j] for j in ker.pivots))

    def coords_of(self, vec):
        """Coefficients of vec over the basis rows, or None if outside.

        With an RREF basis the candidate coefficients are just the entries
        of vec at the pivot columns; membership is confirmed by checking
        the residual is zero.
        """
        z = cyc(self.order, 0)
        coeffs = tuple(vec[p] for p in self.pivots)
        residual = list(vec)
        for c, row in zip(coeffs, self.basis.nonzeros()):
            if c is not z:
                for j, b in row:
                    residual[j] = residual[j] - c * b
        return None if any(x is not z for x in residual) else coeffs

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.ambient_dim})"


def null_space(m: Mat) -> Subspace:
    """Canonical basis of the right kernel {v : m v = 0}."""
    return _kernel(m.order, m.cols, [dict(row) for row in m.nonzeros()])


def null_space_of_terms(order, cols, terms) -> Subspace:
    """null_space of the equations given as (equation label, column,
    coefficient) terms; terms with the same label and column add up, and
    a sum that cancels is the field's zero object."""
    z = cyc(order, 0)
    rows = {}
    for eq, col, c in terms:
        row = rows.setdefault(eq, {})
        row[col] = row.get(col, z) + c
    return _kernel(order, cols, [{k: a for k, a in row.items() if a is not z}
                                 for row in rows.values()])


def _kernel(order, cols, rows) -> Subspace:
    """Kernel of the {column: value} rows, from their sparse elimination.

    Free column f gives the vector with 1 at f and -R[r][f] at each pivot
    p_r.  When every row R[r] is its pivot alone, these are the unit
    vectors e_f, already the canonical RREF basis; otherwise they are
    reduced once more."""
    done, pivots = _eliminate(order, rows)
    z, o = cyc(order, 0), cyc(order, 1)
    free = sorted(set(range(cols)).difference(pivots))
    if all(len(row) == 1 for row in done):
        return Subspace(order, cols, Mat(order, cols=cols, nonzeros=[
            [(f, o)] for f in free]), tuple(free))
    vectors = [[o if j == f else z for j in range(cols)] for f in free]
    for row, pc in zip(done, pivots):
        for v, f in zip(vectors, free):
            v[pc] = -row.get(f, z)
    return Subspace.from_vectors(order, cols, vectors)


def eigenspace(m: Mat, c: CycNumber) -> Subspace:
    """{v : m v = c v}, the kernel of m - c with c taken off the
    diagonal only."""
    if m.rows != m.cols:
        raise OrderMismatch("eigenspace of a non-square matrix")
    z = cyc(m.order, 0)
    rows = [dict(row) for row in m.nonzeros()]
    for i, row in enumerate(rows):
        if (v := row.get(i, z) - c) is not z:
            row[i] = v
        else:
            row.pop(i, None)
    return _kernel(m.order, m.cols, rows)


def inverse(m: Mat) -> Mat:
    if m.rows != m.cols:
        raise NotInvertible("non-square matrix")
    n, o = m.rows, cyc(m.order, 1)
    # eliminate the sparse rows of [m | I]; they always have full row
    # rank, and m is invertible only when every pivot lands in m's block
    done, pivots = _eliminate(m.order, [dict(row) | {n + i: o} for i, row
                                        in enumerate(m.nonzeros())])
    if pivots[:n] != tuple(range(n)):
        raise NotInvertible("matrix is singular")
    return Mat(m.order, cols=n, nonzeros=_sorted_rows(m.order, [
        {k - n: x for k, x in row.items() if k >= n} for row in done]))


def restrict_operator(m: Mat, sub: Subspace) -> Mat:
    """Matrix of m on sub's basis; raises NotInvariant if m leaves sub."""
    cols = []
    for vec in sub.basis.data:
        coords = sub.coords_of(m.apply(vec))
        if coords is None:
            raise NotInvariant("operator does not preserve the subspace")
        cols.append(coords)
    return Mat.from_cols(m.order, cols, rows_n=sub.dim)


# -- characteristic polynomial -----------------------------------------------

def _poly_sub(a, b, zero):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else zero) - (b[i] if i < len(b) else zero)
            for i in range(n)]


def _poly_shift_scale(p, c, zero):
    """(t - c) * p for ascending coefficient list p."""
    out = [zero] + list(p)
    for i, x in enumerate(p):
        if x is not zero:
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
    h = [list(row) for row in m.data]
    for j in range(n - 2):
        pivot = None
        for i in range(j + 1, n):
            if h[i][j] is not zero:
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
            if h[i][j] is not zero:
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
            if h[i][k - 1] is not zero and beta is not zero:
                corr = [beta * h[i][k - 1] * c for c in polys[i]]
                p = _poly_sub(p, corr, zero)
        polys.append(p)
    return tuple(polys[n])


# -- root finding over Q(zeta_N) ----------------------------------------------


def _is_prime(m: int) -> bool:
    return m >= 2 and all(m % r for r in range(2, isqrt(m) + 1))


def _at(f, x, m):
    """f(x) mod m for integer coefficients f, ascending."""
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % m
    return acc


def _primitive(f):
    g = gcd(*f) or 1
    return [c // g for c in f]


def _rational_roots(poly):
    """Each distinct rational root of a polynomial over Q once, as a
    Fraction, found without factoring any integer.

    poly holds rational CycNumbers, ascending, with nonzero constant term
    and nonzero lead.  Let f be its squarefree integer part, f / gcd(f, f')
    by primitive pseudo-remainders, and M = max(|f_0|, |f_d|).  A root a/q
    in lowest terms has |a| <= |f_0| and 0 < q <= |f_d| (Gauss), and
    reduces to a simple root mod p, p the least prime not dividing f_d at
    which every root of f mod p is simple (there are finitely many bad
    primes, since f is squarefree).  Each root mod p is Newton-lifted to a
    modulus p^(2^k) > 2 M^2; the first remainder <= M of the extended
    Euclidean algorithm on that modulus and the lift reads a/q back, which
    is kept only if f(a/q) = 0 exactly.
    """
    den = lcm(*(c.den for c in poly))
    f = [c.num[0] * (den // c.den) for c in poly]
    a, b = f, [i * c for i, c in enumerate(f)][1:]
    while b:
        a, b = b, _primitive(_pseudo_divmod(a, b)[1])
    if len(a) > 1:
        # m f = q a exactly, so q is f / a up to a constant
        f = _pseudo_divmod(f, a)[0]
    f = _primitive(f)
    df, p = [i * c for i, c in enumerate(f)][1:], 2
    while True:
        if _is_prime(p) and f[-1] % p:
            simple = [x for x in range(p) if not _at(f, x, p)]
            if all(_at(df, x, p) for x in simple):
                break
        p += 1
    bound, d = max(abs(f[0]), abs(f[-1])), len(f) - 1
    roots = []
    for x in simple:
        m = p
        while m <= 2 * bound * bound:
            m *= m
            x = (x - _at(f, x, m) * pow(_at(df, x, m), -1, m)) % m
        # r = s x (mod m) holds for every (r, s) pair of the remainders
        r0, r, s0, s = m, x, 0, 1
        while r > bound:
            t = r0 // r
            r0, r, s0, s = r, r0 - t * r, s, s0 - t * s
        if not sum(c * r ** i * s ** (d - i) for i, c in enumerate(f)):
            roots.append(Fraction(r, s))
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
