"""Shared fixtures: the test corpus, the random-endomorphism helper and
single-entry corruptions.

Corpus algebras are built once per session; they are immutable
presentations, so sharing them across tests is safe.
"""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from hopf_forge import (HopfPresentation, Mat, build_cyclic_group_algebra,
                        build_group_algebra, build_taft, build_tensor, cyc,
                        cyclic_table, direct_product_table, dual,
                        lift_order, sweedler)
from hopf_forge.cyclofield import (coordinate_key, galois_conjugate,
                                   root_of_unity)
from hopf_forge.linalg import _rational_roots


@pytest.fixture(scope="session")
def z3():
    return build_cyclic_group_algebra(3)


@pytest.fixture(scope="session")
def z5():
    return build_cyclic_group_algebra(5)


@pytest.fixture(scope="session")
def z15():
    return build_cyclic_group_algebra(15)


@pytest.fixture(scope="session")
def z3z3():
    table = direct_product_table(cyclic_table(3), cyclic_table(3))
    return build_group_algebra(table, name="k[Z3xZ3]")


@pytest.fixture(scope="session")
def t3():
    return build_taft(3)


@pytest.fixture(scope="session")
def t5():
    return build_taft(5)


@pytest.fixture(scope="session")
def t3d(t3):
    return dual(t3)


@pytest.fixture(scope="session")
def sw():
    return sweedler()


@pytest.fixture(scope="session")
def t3z5(t3, z5):
    return build_tensor(lift_order(t3, 15), lift_order(z5, 15))


@pytest.fixture(scope="session")
def corpus(z3, z5, z15, z3z3, t3, t5, t3d, t3z5):
    """The eight-algebra verification corpus, keyed by name."""
    return {h.name: h for h in (z3, z5, z15, z3z3, t3, t5, t3d, t3z5)}


def rebased_z2(c: int) -> HopfPresentation:
    """k[Z2] in the basis f0 = 1, f1 = 1 + c g, with S = I:
    f1 f1 = (c^2 - 1) f0 + 2 f1, Delta(f1) = (1 + 1/c) f0 (x) f0
    - (1/c) (f0 (x) f1 + f1 (x) f0) + (1/c) f1 (x) f1, counit (1, 1 + c)."""
    one, inv = cyc(1, 1), cyc(1, Fraction(1, c))
    mult = [(0, 0, 0, one), (0, 1, 1, one), (1, 0, 1, one),
            (1, 1, 0, cyc(1, c * c - 1)), (1, 1, 1, cyc(1, 2))]
    comult = [(0, 0, 0, one), (1, 0, 0, one + inv), (1, 0, 1, -inv),
              (1, 1, 0, -inv), (1, 1, 1, inv)]
    return HopfPresentation(
        name=f"k[Z2] rebased by {c}", dim=2, order=1, mult_entries=mult,
        comult_entries=comult, unit=(one, cyc(1, 0)),
        counit=(one, cyc(1, 1 + c)), antipode=Mat.identity(1, 2),
        basis=("f0", "f1"))


def basis_element(h, i) -> tuple:
    """The coordinates of e_i in h."""
    z, o = cyc(h.order, 0), cyc(h.order, 1)
    return tuple(o if t == i else z for t in range(h.dim))


def harpoon_left(h: HopfPresentation, beta, a) -> tuple:
    """beta harpoon-from-left a = sum a_1 beta(a_2), element by element:
    the oracle for h.harpoon_matrix(beta, "left")."""
    z = h.zero_scalar()
    out = [z] * h.dim
    for (j, k), c in h.comult_pairs(a).items():
        if beta[k] is not z:
            out[j] = out[j] + c * beta[k]
    return tuple(out)


def harpoon_right(h: HopfPresentation, a, beta) -> tuple:
    """a harpoon-from-right beta = sum beta(a_1) a_2, element by element:
    the oracle for h.harpoon_matrix(beta, "right")."""
    z = h.zero_scalar()
    out = [z] * h.dim
    for (j, k), c in h.comult_pairs(a).items():
        if beta[j] is not z:
            out[k] = out[k] + c * beta[j]
    return tuple(out)


def random_endomorphism(h, rng: random.Random) -> Mat:
    """A sparse-ish random matrix with integer and root-of-unity entries."""
    zero = cyc(h.order, 0)
    rows = []
    for _ in range(h.dim):
        row = []
        for _ in range(h.dim):
            kind = rng.randrange(6)
            if kind == 0:
                c = root_of_unity(h.order, rng.randrange(h.order))
                row.append(c * rng.randint(-2, 2))
            elif kind <= 2:
                row.append(cyc(h.order, rng.randint(-3, 3)))
            else:
                row.append(zero)
        rows.append(row)
    return Mat(h.order, rows)


def structure(h):
    """The structure constants of h, without its name and basis labels."""
    return (h.dim, h.order, h.mult, h.comult, h.unit, h.counit, h.antipode)


def sites(h):
    """Every (i, j, k) index triple of a mult or comult table of h."""
    return list(itertools.product(range(h.dim), repeat=3))


def s3_table():
    """Cayley table of S3 on the permutations of range(3), in
    itertools.permutations order: entry [p][q] is the index of p∘q."""
    perms = list(itertools.permutations(range(3)))
    return [[perms.index(tuple(p[q[i]] for i in range(3))) for q in perms]
            for p in perms]


def taken_as_certified(h):
    """h with its certification memo filled, so that library calls which
    certify first run on crafted non-Hopf data: it drives branches that
    no desk-scale Hopf algebra reaches."""
    h._cache[("certified",)] = None
    return h


def corrupted(h, table, site, shift):
    """h without its antipode, with one entry shifted by the integer shift:
    mult or comult at site (i, j, k), or the unit or counit at site (i,)."""
    mult, comult = (list(h.entries(t)) for t in ("mult", "comult"))
    extra = [(*site, cyc(h.order, shift))]
    vecs = {"unit": list(h.unit), "counit": list(h.counit)}
    if table in vecs:
        vecs[table][site[0]] += shift
    return HopfPresentation(
        name=f"{h.name} {table}{site}{shift:+d}", dim=h.dim, order=h.order,
        mult_entries=mult + extra if table == "mult" else mult,
        comult_entries=comult + extra if table == "comult" else comult,
        unit=vecs["unit"], counit=vecs["counit"])


def outcome(run, *args):
    """run(*args)'s value, or (type, message) of the exception it raised:
    one parametrized table can then name a guard's error or a value."""
    try:
        return run(*args)
    except Exception as exc:
        return type(exc), str(exc)


def galois_norm_roots(coeffs, order):
    """The reference for linalg.roots_in_field: the roots r * zeta^t (r
    rational) of coeffs, read from the rational roots of Galois norms.

    For each twist p(zeta^t s) the candidates r are the rational roots of
    the product of its distinct Galois conjugates.  That set is
    Galois-stable, so the product has rational coefficients, and r is one
    of its roots exactly when p(r zeta^t) = 0.  The found roots, listed
    in coordinate_key order with their multiplicities, are divided out,
    and the degree left is returned with them."""
    zero, one = cyc(order, 0), cyc(order, 1)
    poly = list(coeffs)
    while poly and not poly[-1]:
        poly.pop()
    if len(poly) <= 1:
        return [], 0
    roots, zmult = [], 0
    while not poly[0]:
        poly.pop(0)
        zmult += 1
    if zmult:
        roots.append((zero, zmult))
    if len(poly) == 1:
        return roots, 0
    zeta = [root_of_unity(order, k) for k in range(order)]
    conjugates = [(u, [galois_conjugate(c, u) for c in poly])
                  for u in range(1, order + 1) if gcd(u, order) == 1]
    norm_roots, candidates = {}, {}
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
                    for j, b in enumerate(conj):
                        acc[i + j] = acc[i + j] + a * b
                norm = acc
            assert all(c.is_rational() for c in norm)
            norm_roots[orbit] = _rational_roots(norm)
        for r in norm_roots[orbit]:
            cand = zeta[t] * r
            candidates[coordinate_key(cand)] = cand
    for key in sorted(candidates):
        cand, mult = candidates[key], 0
        while len(poly) > 1:
            quot, acc = [zero] * (len(poly) - 1), poly[-1]
            for i in range(len(poly) - 2, -1, -1):
                quot[i] = acc
                acc = poly[i] + cand * acc
            if acc:
                break
            poly, mult = quot, mult + 1
        if mult:
            roots.append((cand, mult))
    return roots, len(poly) - 1
