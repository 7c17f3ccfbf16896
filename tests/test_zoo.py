"""Builders: group algebras, Taft family, duals, tensor products.

Every builder output must satisfy all bialgebra/antipode axioms and have
one-dimensional integral spaces; builders must reject malformed input
loudly rather than emit a broken presentation."""

import itertools

import pytest

from hopf_forge import (BadParameters, Mat, NotAGroup, OrderMismatch,
                        build_cyclic_group_algebra, build_group_algebra,
                        build_taft, build_tensor, check_axioms, cyc,
                        cyclic_table, direct_product_table, dual,
                        find_grouplikes, integral_pair, lift_order,
                        sweedler)
from hopf_forge.cyclofield import root_of_unity
from hopf_forge.zoo import _generators, _validate_group
from conftest import basis_element, structure


def order_of(m, bound=100):
    """Least t >= 1 with m^t = I, t <= bound."""
    ident, acc = Mat.identity(m.order, m.rows), m
    for t in range(1, bound + 1):
        if acc == ident:
            return t
        acc = acc @ m
    raise AssertionError(f"no order within {bound}")


def assert_well_formed(h):
    report = check_axioms(h)
    assert not report.failures(), h.name
    pair = integral_pair(h)
    assert h.pair(pair.dual_integral, pair.integral) == cyc(h.order, 1)


def test_every_builder_output_is_well_formed():
    outputs = [
        build_cyclic_group_algebra(1),
        build_cyclic_group_algebra(2),
        build_cyclic_group_algebra(6, cyclotomic_order=3),
        build_group_algebra(
            direct_product_table(cyclic_table(2), cyclic_table(4))),
        build_taft(2), build_taft(3), build_taft(4), build_taft(5),
        build_taft(3, root_power=2),
        build_taft(2, cyclotomic_order=3),
        build_taft(3, cyclotomic_order=12),
        build_taft(7, root_power=3),
        build_taft(4, root_power=3, cyclotomic_order=8),
        sweedler(),
        dual(build_taft(4)),
        dual(build_cyclic_group_algebra(4, cyclotomic_order=4)),
        build_tensor(build_taft(3), build_taft(3)),
    ]
    for h in outputs:
        assert_well_formed(h)


def test_cyclic_and_product_tables():
    assert cyclic_table(4) == tuple(
        tuple((i + j) % 4 for j in range(4)) for i in range(4))
    t = direct_product_table(cyclic_table(2), cyclic_table(3))
    # index (a, b) -> a*3 + b, componentwise product
    for a1 in range(2):
        for b1 in range(3):
            for a2 in range(2):
                for b2 in range(3):
                    lhs = t[a1 * 3 + b1][a2 * 3 + b2]
                    assert lhs == ((a1 + a2) % 2) * 3 + (b1 + b2) % 3
    with pytest.raises(BadParameters):
        cyclic_table(0)


def test_group_algebra_structure():
    h = build_cyclic_group_algebra(6)
    assert h.dim == 6 and h.order == 1
    # every basis vector is grouplike and S permutes them to inverses
    assert len(find_grouplikes(h)) == 6
    for i in range(6):
        col = h.antipode.col(i)
        assert col == tuple(basis_element(h, (-i) % 6))
    assert order_of(h.s_power_matrix(2)) == 1


def test_group_validation_rejects_non_groups():
    with pytest.raises(NotAGroup):
        build_group_algebra([[0, 1], [1]])          # ragged
    with pytest.raises(NotAGroup):
        build_group_algebra([[1, 1], [1, 1]])        # no identity
    with pytest.raises(NotAGroup):
        build_group_algebra([[0, 1], [1, 1]])        # 1 has no inverse
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]        # loop, not a group
    with pytest.raises(NotAGroup, match="associativity"):
        build_group_algebra(loop)


def _is_group_by_full_scan(table):
    n = len(table)
    identities = [e for e in range(n)
                  if all(table[e][j] == j == table[j][e] for j in range(n))]
    return (bool(identities) and all(identities[0] in row for row in table)
            and all(table[table[i][j]][k] == table[i][table[j][k]]
                    for i in range(n) for j in range(n) for k in range(n)))


def _reduced_latin_squares(n, rows=None):
    rows = rows or [tuple(range(n))]
    if len(rows) == n:
        yield tuple(rows)
        return
    for p in itertools.permutations(range(n)):
        if p[0] == len(rows) and all(p[j] != r[j] for r in rows
                                     for j in range(n)):
            yield from _reduced_latin_squares(n, rows + [p])


def _verdict(table):
    try:
        _validate_group(table)
    except NotAGroup:
        return False
    return True


def test_group_validation_matches_the_full_scan():
    # every 3 x 3 table with 0 as identity, Latin or not, and every reduced
    # Latin square of order 5 (56, of which 6 are groups)
    tables = [((0, 1, 2), (1, a, b), (2, c, d))
              for a, b, c, d in itertools.product(range(3), repeat=4)]
    squares = list(_reduced_latin_squares(5))
    assert len(squares) == 56
    verdicts = [(_verdict(t), _is_group_by_full_scan(t))
                for t in tables + squares]
    assert all(got == want for got, want in verdicts)
    assert sum(got for got, _ in verdicts[len(tables):]) == 6


def test_group_validation_is_quadratic_per_generator():
    lookups = [0]

    class Counting(tuple):
        def __getitem__(self, i):
            lookups[0] += 1
            return tuple.__getitem__(self, i)

    n = 60
    table = Counting(Counting(row) for row in cyclic_table(n))
    gens = _generators(table, 0)
    assert gens == [1]
    lookups[0] = 0
    assert _validate_group(table) == 0
    # a scan of all n^3 triples makes 6 n^3 lookups
    assert lookups[0] <= 4 * n * n * len(gens)


def test_taft_structure_constants():
    n = 3
    h = build_taft(n)
    omega = root_of_unity(n, 1)
    one = cyc(n, 1)
    g, x = n, 1  # basis g^i x^j at index i*n + j
    assert h.dim == n * n
    assert h.mult[x][g] == ((n + 1, omega),)      # x g = omega g x
    assert h.mult[g][x] == ((n + 1, one),)
    assert h.comult[x] == {(0, x): one, (x, g): one}  # 1(x)x + x(x)g
    assert h.comult[g] == {(g, g): one}                # g(x)g
    g_last = (n - 1) * n                                 # g^(n-1)
    assert h.antipode.col(g) == tuple(
        one if t == g_last else cyc(n, 0) for t in range(n * n))
    # S(x) = -x g^(n-1) = -omega^(n-1) g^(n-1) x
    assert h.antipode.col(x) == tuple(
        -omega ** (n - 1) if t == g_last + x else cyc(n, 0)
        for t in range(n * n))
    assert all(h.counit[i * n + j] == (one if j == 0 else cyc(n, 0))
               for i in range(n) for j in range(n))
    # x^n = 0
    power = basis_element(h, x)
    for _ in range(n - 1):
        power = h.multiply(basis_element(h, x), power)
    assert not any(power)
    assert {tuple(v) for v in find_grouplikes(h)} == \
        {basis_element(h, i * n) for i in range(n)}


def test_taft_antipode_order():
    assert order_of(build_taft(3).antipode) == 6
    assert order_of(build_taft(5).antipode) == 10
    assert order_of(sweedler().antipode) == 4


def test_taft_root_power_selects_omega():
    h = build_taft(3, root_power=2)
    assert h.mult[1][3] == ((4, root_of_unity(3, 2)),)


def test_taft_parameter_guards():
    with pytest.raises(BadParameters):
        build_taft(1)
    with pytest.raises(BadParameters):
        build_taft(4, root_power=2)                 # gcd(2, 4) > 1
    with pytest.raises(BadParameters, match=r"^root_power 0 is not coprime "
                       r"to 3; omega would not be a primitive root of "
                       r"unity of order 3$"):
        build_taft(3, root_power=0)
    with pytest.raises(BadParameters):
        build_taft(3, cyclotomic_order=5)           # no cube root in Q(z5)


def test_sweedler_is_taft_two():
    sw = sweedler()
    assert sw.dim == 4 and sw.order == 1
    assert structure(sw) == structure(build_taft(2, cyclotomic_order=1))
    assert sw.s_power_matrix(2) != sw.s_power_matrix(0)
    assert sw.s_power_matrix(4) == sw.s_power_matrix(0)
    assert len(find_grouplikes(sw)) == 2


def test_tensor_requires_matching_orders():
    with pytest.raises(OrderMismatch):
        build_tensor(build_taft(3), build_cyclic_group_algebra(5))


def test_tensor_of_group_algebras_matches_product_group():
    z3 = build_cyclic_group_algebra(3)
    z5 = build_cyclic_group_algebra(5)
    prod = build_group_algebra(
        direct_product_table(cyclic_table(3), cyclic_table(5)))
    assert structure(build_tensor(z3, z5)) == structure(prod)


def test_tensor_realizes_chinese_remainder_isomorphism():
    # Z3 x Z5 = Z15 via c -> ((c mod 3)*5 + (c mod 5)); the permuted
    # structure constants of k[Z15] must equal those of the tensor
    t = build_tensor(build_cyclic_group_algebra(3),
                     build_cyclic_group_algebra(5))
    z15 = build_cyclic_group_algebra(15)
    perm = [(c % 3) * 5 + (c % 5) for c in range(15)]
    for i in range(15):
        for j in range(15):
            assert t.mult[perm[i]][perm[j]] == tuple(sorted(
                (perm[k], c) for k, c in z15.mult[i][j]))
        assert t.comult[perm[i]] == {
            (perm[j], perm[k]): c for (j, k), c in z15.comult[i].items()}


def test_tensor_with_trivial_factor_is_identity():
    t3 = build_taft(3)
    triv = build_cyclic_group_algebra(1, cyclotomic_order=3)
    assert structure(build_tensor(t3, triv)) == structure(t3)


def test_lifted_tensor_corpus_member(t3z5):
    assert t3z5.dim == 45 and t3z5.order == 15
    assert_well_formed(t3z5)
    assert len(find_grouplikes(t3z5)) == 15


def test_lift_order_roundtrip_structure(t3):
    lifted = lift_order(t3, 15)
    assert lifted.order == 15
    assert structure(lift_order(lifted, 15)) == structure(lifted)
    assert_well_formed(lifted)
