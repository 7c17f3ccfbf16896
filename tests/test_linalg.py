"""Exact linear algebra: RREF/rank/kernel invariants, characteristic
polynomials against a brute-force oracle, operator orders, and root
finding over Q(zeta_N)."""

import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from hopf_forge import (CycNumber, Mat, NotInvariant, NotInvertible,
                        OrderMismatch, Subspace, charpoly,
                        cyc, eigenspace, inverse,
                        null_space, restrict_operator,
                        roots_in_field, root_of_unity, rref)
from hopf_forge.linalg import _rational_roots
from conftest import outcome


def rand_mat(order, rows, cols, rng, density=0.7):
    z = cyc(order, 0)
    data = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            if rng.random() < density:
                c = cyc(order, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                if rng.random() < 0.3:
                    c = c * root_of_unity(order, rng.randrange(order))
                row.append(c)
            else:
                row.append(z)
        data.append(row)
    return Mat(order, data, cols=cols)


def edge_mats(order):
    """Fixed elimination edge cases: a row that cancels to nothing in the
    middle of the elimination (2 r1 - r2), zero and repeated rows, a
    kernel spanned by unit vectors (already its RREF) and one that is
    not."""
    z, one, zeta = cyc(order, 0), cyc(order, 1), root_of_unity(order, 1)
    two = one + one
    r1, r2 = [one, one, z, two], [z, one, zeta, z]
    cancel = [a * 2 - b for a, b in zip(r1, r2)]
    zero_row = [z] * 4
    return [
        Mat(order, [r1, r2, cancel], cols=4),
        Mat(order, [cancel, r1, r2], cols=4),
        Mat(order, [zero_row, r1, r1, zero_row, r2, r1], cols=4),
        Mat(order, [zero_row, zero_row], cols=4),
        Mat(order, [[zeta, z, z, z], [z, z, two, z], [z, z, two, z]],
            cols=4),  # kernel span(e1, e3)
        Mat(order, [[one, two, z], [z, z, zeta]], cols=3),  # (-2, 1, 0)
    ]


@pytest.mark.parametrize("order", (1, 3, 5))
def test_rank_nullity(order, monkeypatch):
    reduced = []  # kernels whose free-column vectors needed a second rref
    from_vectors = Subspace.from_vectors

    def counting(*args):
        reduced.append(args)
        return from_vectors(*args)

    monkeypatch.setattr(Subspace, "from_vectors", staticmethod(counting))
    rng = random.Random(order * 31)
    mats = [rand_mat(order, rng.randint(1, 6), rng.randint(1, 6), rng)
            for _ in range(15)]
    for m in mats + edge_mats(order):
        cols = m.cols
        red, rank, pivots = rref(m)
        ker = null_space(m)
        assert rank + ker.dim == cols
        assert len(pivots) == rank
        for r in range(ker.dim):
            img = m.apply(ker.basis.data[r])
            assert not any(img), "kernel vector must map to zero"
        # rref is idempotent, and a kernel basis is its own RREF
        red2, rank2, pivots2 = rref(red)
        assert red2 == red and rank2 == rank and pivots2 == pivots
        assert rref(ker.basis)[::2] == (ker.basis, ker.pivots)
    # the unit-vector kernel skips the second rref, the other takes it
    *_, units, other = edge_mats(order)
    reduced.clear()
    assert null_space(units).pivots == (1, 3) and not reduced
    assert null_space(other).dim == 1 and len(reduced) == 1


def degenerate_mat(order, rows, cols, rng):
    """A sparse random matrix with a zero row, a repeated row and a row
    that is a combination of two others, in shuffled order."""
    data = [list(r) for r in rand_mat(order, rows, cols, rng, 0.3).data]
    a, b = cyc(order, rng.randint(1, 3)), cyc(order, Fraction(-1, 2))
    data.append([cyc(order, 0)] * cols)
    data.append(list(rng.choice(data)))
    r1, r2 = rng.choice(data), rng.choice(data)
    data.append([a * x + b * y for x, y in zip(r1, r2)])
    rng.shuffle(data)
    return Mat(order, data, cols=cols)


def to_sympy(m):
    return sympy.Matrix(m.rows, m.cols, [sympy.Rational(c.as_rational())
                                         for row in m.data for c in row])


_SHAPES = ((1, 4), (2, 7), (3, 9), (4, 4), (6, 6), (9, 3), (12, 4), (7, 1))


def test_rref_matches_sympy_over_q():
    rng = random.Random(1957)
    for rows, cols in _SHAPES * 3:
        m = degenerate_mat(1, rows, cols, rng)
        red, rank, pivots = rref(m)
        oracle, oracle_pivots = to_sympy(m).rref()
        assert pivots == oracle_pivots and rank == len(oracle_pivots)
        assert to_sympy(red) == oracle


@pytest.mark.parametrize("order", (3, 15))
def test_rref_ignores_row_order_and_repeats(order):
    rng = random.Random(order * 101)
    mats = (degenerate_mat(order, rows, cols, rng) for rows, cols in _SHAPES)
    for m in itertools.chain(mats, edge_mats(order)):
        cols = m.cols
        red, rank, pivots = rref(m)
        shuffled = list(m.data)
        rng.shuffle(shuffled)
        repeated = shuffled + [rng.choice(m.data) for _ in range(3)]
        for other in (shuffled, repeated):
            red2, rank2, pivots2 = rref(Mat(order, other, cols=cols))
            assert (rank2, pivots2) == (rank, pivots)
            assert red2.data[:rank] == red.data[:rank]
            assert not any(any(row) for row in red2.data[rank:])
        assert red.rows == m.rows


def brute_charpoly(m):
    """det(tI - m) via the Leibniz permutation expansion (oracle)."""
    n = m.rows
    zero, one = cyc(m.order, 0), cyc(m.order, 1)

    def pmul(p, q):
        out = [zero] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            if a:
                for j, b in enumerate(q):
                    if b:
                        out[i + j] = out[i + j] + a * b
        return out

    total = [zero] * (n + 1)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if not seen[i]:
                ln, j = 0, i
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
                    ln += 1
                if ln % 2 == 0:
                    sign = -sign
        term = [one if sign > 0 else -one]
        for i in range(n):
            entry = -m.data[i][perm[i]]
            diag = one if perm[i] == i else zero
            term = pmul(term, [entry, diag])
        for d, c in enumerate(term):
            total[d] = total[d] + c
    return tuple(total)


@pytest.mark.parametrize("order", (1, 3, 4))
def test_charpoly_matches_permanent_expansion(order):
    rng = random.Random(order * 17)
    for n in (1, 2, 3, 4):
        for _ in range(4):
            m = rand_mat(order, n, n, rng)
            assert tuple(charpoly(m)) == brute_charpoly(m)


def test_charpoly_of_companion_matrix():
    # companion matrix of x^3 - 2x + 5
    z = cyc(1, 0)
    m = Mat(1, [[z, z, cyc(1, -5)],
                [cyc(1, 1), z, cyc(1, 2)],
                [z, cyc(1, 1), z]])
    assert tuple(charpoly(m)) == (cyc(1, 5), cyc(1, -2), z, cyc(1, 1))


def test_rank_one_cyclotomic_example():
    # [[1, z], [z^2, 1]] with z = zeta_3: determinant 1 - z^3 = 0
    z1 = root_of_unity(3, 1)
    m = Mat(3, [[cyc(3, 1), z1], [root_of_unity(3, 2), cyc(3, 1)]])
    _, rank, _ = rref(m)
    assert rank == 1
    ker = null_space(m)
    assert ker.dim == 1
    # kernel generated by (z, -1): check proportionality to the RREF basis
    v = ker.basis.data[0]
    target = (z1, cyc(3, -1))
    ratio = target[0] / v[0]
    assert tuple(c * ratio for c in v) == target


def test_inverse_and_not_invertible():
    rng = random.Random(5)
    for _ in range(8):
        n = rng.randint(1, 5)
        m = rand_mat(3, n, n, rng)
        # force invertibility: strictly dominant diagonal by unitriangular trick
        data = [list(r) for r in m.data]
        for i in range(n):
            for j in range(i + 1):
                data[i][j] = cyc(3, 1) if i == j else cyc(3, 0)
        m = Mat(3, data)
        assert inverse(m) @ m == Mat.identity(3, n)
    sing = Mat(1, [[cyc(1, 1), cyc(1, 2)], [cyc(1, 2), cyc(1, 4)]])
    with pytest.raises(NotInvertible):
        inverse(sing)


def test_eigenspace_of_diagonal():
    z = cyc(12, 0)
    d = [root_of_unity(12, 3), root_of_unity(12, 3), cyc(12, 2)]
    m = Mat(12, [[d[i] if i == j else z for j in range(3)] for i in range(3)])
    assert eigenspace(m, root_of_unity(12, 3)).dim == 2
    assert eigenspace(m, cyc(12, 2)).dim == 1
    assert eigenspace(m, cyc(12, 7)).dim == 0


@pytest.mark.parametrize("order", (1, 3, 15))
def test_eigenspace_is_null_space_of_the_dense_shift(order):
    # oracle: m - c I built densely, then the plain null_space
    rng = random.Random(order * 101)

    def shifted(m, c):
        return Mat(order, [[x - c if r == j else x for j, x in enumerate(row)]
                           for r, row in enumerate(m.data)], cols=m.cols)

    def scalar():
        return rand_mat(order, 1, 1, rng, density=1.0).data[0][0]

    for _ in range(6):
        n = rng.randint(1, 6)
        # b is singular (its last row is a combination of the others, or
        # zero), so c is an eigenvalue of m = b + c I and 0 one of b
        rows = [list(r) for r in rand_mat(order, n - 1, n, rng).data]
        a, b = scalar(), scalar()
        rows.append([a * x + b * y for x, y in
                     zip(rows[0], rows[-1])] if rows else [cyc(order, 0)])
        sing = Mat(order, rows, cols=n)
        c = scalar()
        m = shifted(sing, -c)
        off = scalar()
        while null_space(shifted(m, off)).dim:
            off = off + 1
        cases = [(m, c), (sing, cyc(order, 0)), (m, off), (m, cyc(order, 0))]
        assert null_space(shifted(m, c)).dim >= 1
        assert null_space(sing).dim >= 1
        for mat, value in cases:
            got, want = eigenspace(mat, value), null_space(shifted(mat, value))
            assert got == want and got.pivots == want.pivots
    # fixed shifts: diag(c, 1, c) - c leaves the unit vectors e0, e2 (their
    # own RREF); in the other, m - c has a row that cancels against the
    # first and a kernel vector (-1, 1, 0) that is not a unit vector
    z, one = cyc(order, 0), cyc(order, 1)
    c = root_of_unity(order, 1) + 2  # neither 0 nor 1
    diag = Mat(order, [[c, z, z], [z, one, z], [z, z, c]])
    mixed = Mat(order, [[c + 1, one, z], [one + 1, c + 2, z], [z, z, c]])
    for mat, dim in ((diag, 2), (mixed, 2)):
        got, want = eigenspace(mat, c), null_space(shifted(mat, c))
        assert got == want and got.pivots == want.pivots and got.dim == dim


def test_subspace_membership_and_coordinates():
    rng = random.Random(9)
    vecs = [rand_mat(5, 1, 6, rng).data[0] for _ in range(3)]
    sub = Subspace.from_vectors(5, 6, vecs)
    for v in vecs:
        coords = sub.coords_of(v)
        assert coords is not None
        rebuilt = [cyc(5, 0)] * 6
        for t, c in enumerate(coords):
            for j in range(6):
                rebuilt[j] = rebuilt[j] + c * sub.basis.data[t][j]
        assert tuple(rebuilt) == tuple(v)
    # a vector of the span is zero if it is zero at every pivot, so a unit
    # vector off the pivots lies outside it
    j = next(j for j in range(6) if j not in sub.pivots)
    outside = [cyc(5, 1) if t == j else cyc(5, 0) for t in range(6)]
    assert sub.coords_of(outside) is None


def test_restrict_operator():
    z, o = cyc(1, 0), cyc(1, 1)
    # shift-like operator preserving span{e0, e1}
    m = Mat(1, [[o, cyc(1, 2), z], [z, o, z], [z, z, cyc(1, 3)]])
    sub = Subspace.from_vectors(1, 3, [[o, z, z], [z, o, z]])
    r = restrict_operator(m, sub)
    assert r.data[0][1] == 2 and r.data[0][0] == 1
    bad = Subspace.from_vectors(1, 3, [[o, z, z], [z, o, o]])
    with pytest.raises(NotInvariant):
        restrict_operator(m, bad)


# -- roots_in_field ------------------------------------------------------------


def poly_from_roots(order, roots, extra=()):
    """Ascending coefficients of prod (x - r) times an extra factor."""
    coeffs = [cyc(order, 1)]
    for r in roots:
        nxt = [cyc(order, 0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] = nxt[i + 1] + c
            nxt[i] = nxt[i] - c * r
        coeffs = nxt
    for f in (extra,) if extra else ():
        out = [cyc(order, 0)] * (len(coeffs) + len(f) - 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(f):
                out[i + j] = out[i + j] + a * b
        coeffs = out
    return coeffs


def test_elimination_inverts_each_pivot_value_once(monkeypatch):
    # unit upper triangular above the diagonal, so the pivots are the
    # diagonal: three distinct values other than 1, one of them thrice
    z, one, two = root_of_unity(15, 1), cyc(15, 1), cyc(15, 2)
    diag = [two, two, z, one, z * 3, z, two, one]
    n = len(diag)
    m = Mat(15, [[diag[i] if i == j else (z + j if j > i else cyc(15, 0))
                  for j in range(n)] for i in range(n)])
    inverted = []
    inverse = CycNumber.inverse

    def counting(self):
        inverted.append(self)
        return inverse(self)

    monkeypatch.setattr(CycNumber, "inverse", counting)
    red, rank, pivots = rref(m)
    assert rank == n and red == Mat.identity(15, n)
    assert len(inverted) == 3 and set(inverted) == {two, z, z * 3}


def test_roots_in_field_complete_split():
    z5 = root_of_unity(5, 1)
    roots = [cyc(5, 2), z5, cyc(5, Fraction(-3, 2)), cyc(5, 0)]
    coeffs = poly_from_roots(5, roots)
    found, remainder = roots_in_field(coeffs, 5)
    assert remainder == 0
    assert sorted_multiset(found) == sorted_multiset(
        [(r, 1) for r in roots])


def test_roots_in_field_multiplicity():
    z3 = root_of_unity(3, 1)
    coeffs = poly_from_roots(3, [z3, z3, cyc(3, 1)])
    found, remainder = roots_in_field(coeffs, 3)
    assert remainder == 0
    assert dict((format_key(r), m) for r, m in found) == {
        format_key(z3): 2, format_key(cyc(3, 1)): 1}


def test_roots_in_field_honest_remainder():
    # x^2 - 2 has no roots of the form r * zeta_3^t
    coeffs = [cyc(3, -2), cyc(3, 0), cyc(3, 1)]
    found, remainder = roots_in_field(coeffs, 3)
    assert found == [] and remainder == 2
    # x^2 + x + 1 splits over Q(zeta_3) but not over Q
    coeffs1 = [cyc(1, 1), cyc(1, 1), cyc(1, 1)]
    found1, rem1 = roots_in_field(coeffs1, 1)
    assert found1 == [] and rem1 == 2
    coeffs3 = [cyc(3, 1), cyc(3, 1), cyc(3, 1)]
    found3, rem3 = roots_in_field(coeffs3, 3)
    assert rem3 == 0
    assert {format_key(r) for r, _ in found3} == {
        format_key(root_of_unity(3, 1)), format_key(root_of_unity(3, 2))}


def test_roots_in_field_scaled_roots_of_unity():
    # roots r * zeta^t with r rational and t nonzero are found
    z15 = root_of_unity(15, 7)
    target = z15 * Fraction(5, 3)
    coeffs = poly_from_roots(15, [target])
    found, remainder = roots_in_field(coeffs, 15)
    assert remainder == 0 and found == [(target, 1)]
    # all eight Galois conjugates of this polynomial are distinct
    other = root_of_unity(15, 1) * 2
    coeffs = poly_from_roots(15, [target, other])
    found, remainder = roots_in_field(coeffs, 15)
    assert remainder == 0
    assert sorted_multiset(found) == sorted_multiset(
        [(target, 1), (other, 1)])


def test_roots_in_field_lists_roots_by_lowest_terms_coordinates():
    roots = [root_of_unity(15, k) * Fraction(a, b)
             for k, a, b in ((7, -5, 3), (1, 2, 1), (4, -1, 2), (11, 5, 6))]
    found, remainder = roots_in_field(poly_from_roots(15, roots), 15)
    assert remainder == 0 and len(found) == len(roots)
    keys = [tuple((f.numerator, f.denominator) for f in r.coeffs)
            for r, _ in found]
    assert keys == sorted(keys)


def test_roots_in_field_constant_after_zero_roots(monkeypatch):
    import hopf_forge.linalg as linalg
    calls = []
    real = linalg.galois_conjugate

    def counting(a, u):
        calls.append(u)
        return real(a, u)

    monkeypatch.setattr(linalg, "galois_conjugate", counting)
    # s over Q(zeta_15): nothing is left to norm once the zero root is out
    found, remainder = roots_in_field([cyc(15, 0), cyc(15, 1)], 15)
    assert found == [(cyc(15, 0), 1)] and remainder == 0
    assert calls == []


def test_roots_in_field_zero_and_repeated_rational_roots():
    # s^42 (s - 1)^3 over Q(zeta_15)
    coeffs = [cyc(15, 0)] * 42 + poly_from_roots(15, [cyc(15, 1)] * 3)
    found, remainder = roots_in_field(coeffs, 15)
    assert remainder == 0
    assert found == [(cyc(15, 0), 42), (cyc(15, 1), 3)]


# -- rational roots against sympy ----------------------------------------------

# primes that trial division below 10^4 cannot reach, and the two
# factors of the 54-digit constant of the rebased k[Z2]
BIG_PRIMES = (999_979, 999_983, 1_000_003, 1_000_000_000_039,
              int(sympy.nextprime(10 ** 24)), int(sympy.nextprime(7 * 10 ** 29)))


def integer_poly(roots, extra):
    """Ascending integer coefficients of extra * prod (q x - a) over the
    roots a/q."""
    coeffs = list(extra)
    for r in roots:
        out = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            out[i + 1] += r.denominator * c
            out[i] -= r.numerator * c
        coeffs = out
    return coeffs


def oracle_rational_roots(coeffs):
    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Integer(c) for c in reversed(coeffs)], x)
    return {Fraction(int(r.p), int(r.q))
            for r in sympy.roots(poly, filter="Q")}


def as_field_poly(order, coeffs, scale):
    return [cyc(order, Fraction(c, scale)) for c in coeffs]


@st.composite
def planted_polynomials(draw):
    """(order, integer coefficients, denominator scale): rational roots
    built from small and large prime factors, some repeated, times a
    factor of degree 1 to 3 that may have no rational root at all."""
    factor = st.one_of(st.integers(1, 12), st.sampled_from(BIG_PRIMES))
    part = st.builds(lambda *fs: math.prod(fs), factor,
                     *[st.one_of(st.just(1), factor)] * 2)
    root = st.builds(lambda a, q, sign: Fraction(sign * a, q), part, part,
                     st.sampled_from((1, -1)))
    roots = draw(st.lists(root, max_size=4))
    roots += draw(st.lists(st.sampled_from(roots), max_size=3)) if roots else []
    extra = [draw(st.integers(-20, 20).filter(bool))]
    extra += draw(st.lists(st.integers(-20, 20), max_size=2))
    extra.append(draw(st.integers(-20, 20).filter(bool)))
    if len(extra) == 2 and not roots and draw(st.booleans()):
        extra = [-2, 0, 1]  # x^2 - 2: no rational root
    return (draw(st.sampled_from((1, 3, 5, 15))), integer_poly(roots, extra),
            draw(st.integers(1, 6)))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(planted_polynomials())
def test_rational_roots_match_sympy(case):
    order, coeffs, scale = case
    got = _rational_roots(as_field_poly(order, coeffs, scale))
    assert len(got) == len(set(got))
    assert set(got) == oracle_rational_roots(coeffs)


@pytest.mark.parametrize("roots, extra", (
    ([Fraction(1, BIG_PRIMES[-2] * BIG_PRIMES[-1]),
      Fraction(-BIG_PRIMES[-2], BIG_PRIMES[-1])], [5, 0, 0, 1]),
    ([Fraction(999_983 * 1_000_003), Fraction(-1, 999_983 * 1_000_003)],
     [5, 0, 0, 1]),
    ([Fraction(1_000_003 ** 2, 999_979 * 999_983)] * 3, [5, 0, 0, 1]),
    # (x - 1) ... (x - 20) (x^3 - 5)
    ([Fraction(k) for k in range(1, 21)], [-5, 0, 0, 1]),
))
def test_rational_roots_of_named_polynomials(roots, extra):
    got = _rational_roots(as_field_poly(15, integer_poly(roots, extra), 7))
    assert sorted(got) == sorted(set(roots))


def format_key(c):
    return c.coeffs


def sorted_multiset(pairs):
    return sorted(((format_key(r), m) for r, m in pairs))


# -- the nonzero view of a matrix ---------------------------------------------


def dense_nonzeros(m):
    return [[(j, x) for j, x in enumerate(row) if x] for row in m.data]


def assert_view_matches_dense_scan(m):
    view = m.nonzeros()
    assert [list(row) for row in view] == dense_nonzeros(m)
    # the listed entries are the matrix's own objects
    assert all(x is m.data[i][j]
               for i, row in enumerate(view) for j, x in row)


def test_every_matrix_of_a_corpus_report_lists_its_nonzeros(monkeypatch,
                                                            corpus):
    # fresh presentations, so every memoised matrix is built again here
    from hopf_forge import build_report
    from hopf_forge.cli import (document_to_presentation,
                                presentation_to_document)
    built, products = [], []
    init, matmul = Mat.__init__, Mat.__matmul__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    def multiplying(a, b):
        product = matmul(a, b)
        assert product._nonzeros is not None  # listed when it is built
        products.append(product)
        return product

    monkeypatch.setattr(Mat, "__init__", recording)
    monkeypatch.setattr(Mat, "__matmul__", multiplying)
    for h in corpus.values():
        build_report(document_to_presentation(presentation_to_document(h)))
    monkeypatch.undo()
    assert products and len(products) < len(built)
    for m in built:
        assert_view_matches_dense_scan(m)


def test_a_directly_built_zero_is_left_out_of_the_view():
    order = 15
    raw = CycNumber(order, (Fraction(0),) * 8)
    z, one, zeta = cyc(order, 0), cyc(order, 1), root_of_unity(order, 1)
    assert raw is z and not raw
    m = Mat(order, [[raw, zeta, z], [one, raw, raw], [z, z, zeta]])
    assert m.nonzeros() == ([(1, zeta)], [(0, one)], [(2, zeta)])
    dense = Mat(order, [[x if x else z for x in row] for row in m.data])
    for got in (m @ m, m @ dense, dense @ m):
        assert got == dense @ dense
        assert_view_matches_dense_scan(got)
    assert m.apply((raw, one, zeta)) == dense.apply((z, one, zeta))
    assert rref(m)[0] == rref(dense)[0]
    assert null_space(m) == null_space(dense)
    assert eigenspace(m, zeta) == eigenspace(dense, zeta)


@st.composite
def dense_operands(draw):
    """(order, a, b, a2, v): dense rows of a (r x m), b (m x c), a2 equal
    to a but maybe at one entry, and a vector of length m, over
    Q(zeta_order).  Each row is zero-heavy (one entry in four drawn) or
    dense (every entry drawn, zero now and then)."""
    order = draw(st.sampled_from((1, 3, 15)))
    z = cyc(order, 0)

    def entry():
        return (cyc(order, draw(st.integers(-3, 3)))
                * root_of_unity(order, draw(st.integers(0, order - 1))))

    def rows(n, cols):
        out = []
        for _ in range(n):
            dense = draw(st.booleans())
            out.append([entry() if dense or not draw(st.integers(0, 3))
                        else z for _ in range(cols)])
        return out

    r, m, c = (draw(st.integers(0, 5)) for _ in range(3))
    a, b, v = rows(r, m), rows(m, c), rows(1, m)[0]
    a2 = [list(row) for row in a]
    if r and m and draw(st.booleans()):
        a2[draw(st.integers(0, r - 1))][draw(st.integers(0, m - 1))] = entry()
    return order, a, b, a2, v


@settings(max_examples=150, deadline=None, derandomize=True)
@given(dense_operands())
def test_sparse_rows_match_a_schoolbook_dense_oracle(case):
    order, a, b, a2, v = case
    z = cyc(order, 0)
    r, m, c = len(a), len(v), len(b[0]) if b else 0
    ma, mb = Mat(order, a, cols=m), Mat(order, b, cols=c)
    for got, rows in ((ma, a), (mb, b)):
        assert got.data == tuple(map(tuple, rows))
        assert got.nonzeros() == tuple([(j, x) for j, x in enumerate(row)
                                        if x] for row in rows)
    assert (ma.rows, ma.cols, mb.rows, mb.cols) == (r, m, m, c)
    assert (ma == Mat(order, a2, cols=m)) == (a == a2)
    product = [[sum((a[i][k] * b[k][j] for k in range(m)), z)
                for j in range(c)] for i in range(r)]
    assert (ma @ mb).data == tuple(map(tuple, product))
    assert ma @ mb == Mat(order, product, cols=c)
    assert ma.apply(v) == tuple(sum((row[k] * v[k] for k in range(m)), z)
                                for row in a)
    columns = tuple(tuple(row[j] for row in a) for j in range(m))
    assert ma.transpose().data == columns
    assert ma.transpose() == Mat(order, columns, cols=r)
    assert tuple(ma.col(j) for j in range(m)) == columns
    assert ma.trace() == sum((a[i][i] for i in range(min(r, m))), z)


@pytest.mark.parametrize("run, expect", (
    (lambda one: Mat(1, [[one], []]), (OrderMismatch, "ragged matrix rows")),
    (lambda one: Mat.identity(1, 2) @ Mat.identity(3, 2),
     (OrderMismatch, "matrix orders differ")),
    (lambda one: Mat.identity(1, 2) @ Mat.identity(1, 3),
     (OrderMismatch, "shape mismatch 2x2 @ 3x3")),
    (lambda one: Mat.identity(1, 2).apply([one]),
     (OrderMismatch, "vector length mismatch")),
    (lambda one: eigenspace(Mat(1, [[one, one]]), one),
     (OrderMismatch, "eigenspace of a non-square matrix")),
    (lambda one: charpoly(Mat(1, [[one, one]])),
     (OrderMismatch, "charpoly of a non-square matrix")),
    # coefficients run from the constant up: -1 + x + 0 x^2 is x - 1
    (lambda one: roots_in_field([-one, one, 0 * one], 1),
     ([(cyc(1, 1), 1)], 0)),
))
def test_guards_name_the_bad_shape_or_drop_the_zero_lead(run, expect):
    assert outcome(run, cyc(1, 1)) == expect
