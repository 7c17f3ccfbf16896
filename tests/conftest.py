"""Shared fixtures: the test corpus, the random-endomorphism helper and
single-entry corruptions.

Corpus algebras are built once per session; they are immutable
presentations, so sharing them across tests is safe.
"""

import itertools
import random

import pytest

from hopf_forge import (HopfPresentation, Mat, build_cyclic_group_algebra,
                        build_group_algebra, build_taft, build_tensor, cyc,
                        cyclic_table, direct_product_table, dual,
                        lift_order, root_of_unity, sweedler)


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


def structure_entries(h):
    """The (i, j, k, c) entries of h.mult and of h.comult."""
    mult = [(i, j, k, c) for i in range(h.dim) for j in range(h.dim)
            for k, c in h.mult[i][j].items()]
    comult = [(i, j, k, c) for i in range(h.dim)
              for (j, k), c in h.comult[i].items()]
    return mult, comult


def sites(h):
    """Every (i, j, k) index triple of a mult or comult table of h."""
    return list(itertools.product(range(h.dim), repeat=3))


def corrupted(h, table, site, shift):
    """h without its antipode, with one entry shifted by the integer shift:
    mult or comult at site (i, j, k), or the unit at site (i,)."""
    mult, comult = structure_entries(h)
    extra = [(*site, cyc(h.order, shift))]
    unit = list(h.unit)
    if table == "unit":
        unit[site[0]] = unit[site[0]] + shift
    return HopfPresentation(
        name=f"{h.name} {table}{site}{shift:+d}", dim=h.dim, order=h.order,
        mult_entries=mult + extra if table == "mult" else mult,
        comult_entries=comult + extra if table == "comult" else comult,
        unit=unit, counit=h.counit)
