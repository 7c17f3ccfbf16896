"""Exact linear algebra: RREF/rank/kernel invariants, characteristic
polynomials against a brute-force oracle, operator orders, Kronecker
products, and root finding over Q(zeta_N)."""

import itertools
import random
from fractions import Fraction

import pytest

from hopf_forge import (Mat, NotInvariant, NotInvertible, Subspace, charpoly,
                        cyc, eigenspace, hstack, inverse, kronecker,
                        null_space, operator_order, restrict_operator,
                        roots_in_field, root_of_unity, rref, vstack)


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


@pytest.mark.parametrize("order", (1, 3, 5))
def test_rank_nullity(order):
    rng = random.Random(order * 31)
    for _ in range(15):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = rand_mat(order, rows, cols, rng)
        red, rank, pivots = rref(m)
        ker = null_space(m)
        assert rank + ker.dim == cols
        assert len(pivots) == rank
        for r in range(ker.dim):
            img = m.apply(ker.basis.data[r])
            assert not any(img), "kernel vector must map to zero"
        # rref is idempotent
        red2, rank2, pivots2 = rref(red)
        assert red2 == red and rank2 == rank and pivots2 == pivots


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


def test_operator_order():
    # permutation of a 3-cycle has order 3
    z, o = cyc(1, 0), cyc(1, 1)
    p = Mat(1, [[z, z, o], [o, z, z], [z, o, z]])
    assert operator_order(p, 10) == 3
    # diag(zeta_12, zeta_12^4) has order lcm(12, 3) = 12
    m = Mat(12, [[root_of_unity(12, 1), cyc(12, 0)],
                 [cyc(12, 0), root_of_unity(12, 4)]])
    assert operator_order(m, 20) == 12


def test_kronecker_mixed_product():
    rng = random.Random(23)
    a = rand_mat(3, 2, 3, rng)
    c = rand_mat(3, 3, 2, rng)
    b = rand_mat(3, 2, 2, rng)
    d = rand_mat(3, 2, 2, rng)
    assert kronecker(a, b) @ kronecker(c, d) == kronecker(a @ c, b @ d)
    # identity (x) identity = identity
    assert kronecker(Mat.identity(3, 2), Mat.identity(3, 3)) == \
        Mat.identity(3, 6)


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
    outside = [cyc(5, 1)] * 6
    if not sub.contains(outside):
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


def test_stacking_shapes():
    a = Mat.identity(1, 2)
    b = Mat.zeros(1, 2, 3)
    assert hstack(a, b).cols == 5
    assert vstack(a, Mat.zeros(1, 3, 2)).rows == 5


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


def format_key(c):
    return c.coeffs


def sorted_multiset(pairs):
    return sorted(((format_key(r), m) for r, m in pairs))
