"""Built-in example Hopf algebras.

All constructors return fully-populated HopfPresentation objects
(including antipodes) that pass every axiom in check_axioms; that
invariant is enforced by the test suite, not re-checked on each call.
"""

from __future__ import annotations

from math import gcd

from .cyclofield import cyc, primitive_root
from .errors import BadParameters, NotAGroup, OrderMismatch
from .hopf import HopfPresentation
from .linalg import Mat


# -- group algebras -----------------------------------------------------------


def cyclic_table(n: int):
    """Cayley table of Z/n with elements 0..n-1 under addition."""
    if n < 1:
        raise BadParameters("group order must be >= 1")
    return tuple(tuple((i + j) % n for j in range(n)) for i in range(n))


def direct_product_table(t1, t2):
    """Cayley table of the direct product, index (i1, i2) -> i1*n2 + i2."""
    n1, n2 = len(t1), len(t2)
    out = []
    for i1 in range(n1):
        for i2 in range(n2):
            row = []
            for j1 in range(n1):
                for j2 in range(n2):
                    row.append(t1[i1][j1] * n2 + t2[i2][j2])
            out.append(tuple(row))
    return tuple(out)


def _validate_group(table):
    """Identity element index, after checking the table is a group."""
    n = len(table)
    for row in table:
        if len(row) != n or any(not (0 <= x < n) for x in row):
            raise NotAGroup("Cayley table is not square over 0..n-1")
    identity = None
    for e in range(n):
        if all(table[e][j] == j and table[j][e] == j for j in range(n)):
            identity = e
            break
    if identity is None:
        raise NotAGroup("no identity element")
    for i in range(n):
        if identity not in table[i]:
            raise NotAGroup(f"element {i} has no inverse")
    # Light's test: M = {a : (xa)y = x(ay) for all x, y} holds the identity
    # and is closed under the product, (x(ab))y = ((xa)b)y = (xa)(by) =
    # x(a(by)) = x((ab)y), so it is everything once it holds the generators
    for g in _generators(table, identity):
        gy = table[g]
        for x in range(n):
            xg, row = table[table[x][g]], table[x]
            for y in range(n):
                if xg[y] != row[gy[y]]:
                    raise NotAGroup(
                        f"associativity fails at ({x}, {g}, {y})")
    return identity


def _generators(table, identity):
    """Indices, taken in order, whose right products from the identity
    reach every element; each element is multiplied by each once."""
    n = len(table)
    seen = [False] * n
    seen[identity] = True
    elems, gens = [identity], []
    for g in range(n):
        if seen[g]:
            continue
        gens.append(g)
        fresh = [table[x][g] for x in elems]
        while fresh:
            y = fresh.pop()
            if not seen[y]:
                seen[y] = True
                elems.append(y)
                fresh.extend(table[y][h] for h in gens)
    return gens


def build_group_algebra(table, cyclotomic_order: int = 1,
                        name: str | None = None,
                        basis=None) -> HopfPresentation:
    """Group algebra k[G] from a Cayley table, over Q(zeta_order).

    Basis element i is the group element i; all of them are grouplike.
    """
    identity = _validate_group(table)
    n = len(table)
    one = cyc(cyclotomic_order, 1)
    mult_entries = [(i, j, table[i][j], one)
                    for i in range(n) for j in range(n)]
    comult_entries = [(i, i, i, one) for i in range(n)]
    zero = cyc(cyclotomic_order, 0)
    unit = tuple(one if i == identity else zero for i in range(n))
    counit = tuple(one for _ in range(n))
    inv = [next(j for j in range(n) if table[i][j] == identity)
           for i in range(n)]
    s = Mat.from_terms(cyclotomic_order, n, n,
                       ((inv[j], j, one) for j in range(n)))
    return HopfPresentation(
        name=name or f"group_algebra({n})", dim=n, order=cyclotomic_order,
        mult_entries=mult_entries, comult_entries=comult_entries,
        unit=unit, counit=counit, antipode=s,
        basis=basis if basis is not None
        else tuple(f"g{i}" for i in range(n)))


def build_cyclic_group_algebra(n: int,
                               cyclotomic_order: int = 1) -> HopfPresentation:
    labels = ["1"] + [f"g^{i}" if i > 1 else "g" for i in range(1, n)]
    return build_group_algebra(cyclic_table(n), cyclotomic_order,
                               name=f"k[Z{n}]", basis=tuple(labels))


# -- Taft algebras ------------------------------------------------------------


def build_taft(n: int, root_power: int = 1,
               cyclotomic_order: int | None = None,
               name: str | None = None) -> HopfPresentation:
    """Taft algebra of dimension n^2 with omega = (primitive n-th root)^±.

    Generators g (grouplike, g^n = 1) and x (skew-primitive, x^n = 0)
    with x g = omega g x, Delta(x) = 1 (x) x + x (x) g, over
    Q(zeta_cyclotomic_order).  The scalar omega is zeta_n^root_power
    embedded in the working field, so root_power must be coprime to n and
    n must divide lcm(2, cyclotomic_order).

    Basis is g^i x^j at index i*n + j.  n = 2 gives the 4-dimensional
    algebra with S^2 != id of smallest dimension (see sweedler()).
    """
    if n < 2:
        raise BadParameters("taft dimension parameter must be >= 2")
    if gcd(root_power, n) != 1:
        raise BadParameters(
            f"root_power {root_power} is not coprime to {n}; omega would "
            "not be a primitive n-th root of unity")
    order = n if cyclotomic_order is None else cyclotomic_order
    omega = primitive_root(order, n, root_power)
    if omega is None:
        raise BadParameters(
            f"Q(zeta_{order}) contains no primitive root of unity of "
            f"order {n}; use a cyclotomic order divisible by {n}")
    dim = n * n
    zero, one = cyc(order, 0), cyc(order, 1)
    w = [omega ** e for e in range(n)]  # omega^e, exponents taken mod n
    # product: (g^i x^j)(g^k x^l) = omega^(jk) g^(i+k) x^(j+l) for j + l < n
    mult_entries = [(i * n + j, k * n + l, (i + k) % n * n + j + l,
                     w[j * k % n])
                    for i in range(n) for j in range(n)
                    for k in range(n) for l in range(n - j)]
    # coproduct: Delta(g^i x^j) = sum_k C(j, k) g^i x^k (x) g^(i+k) x^(j-k)
    # with the omega-binomials C(j, k) = C(j-1, k-1) + omega^k C(j-1, k)
    binom = [[one]]
    for j in range(1, n):
        prev = binom[-1] + [zero]
        binom.append([one] + [prev[k - 1] + w[k] * prev[k]
                              for k in range(1, j + 1)])
    comult_entries = [(i * n + j, i * n + k, (i + k) % n * n + j - k,
                       binom[j][k])
                      for i in range(n) for j in range(n)
                      for k in range(j + 1)]
    unit = tuple(one if t == 0 else zero for t in range(dim))
    counit = tuple(one if t % n == 0 else zero for t in range(dim))
    # antipode: S(g^i x^j) = (-1)^j omega^(-j(j+1)/2 - ij) g^(-(i+j)) x^j
    s = Mat.from_terms(order, dim, dim, (
        (-(i + j) % n * n + j, i * n + j,
         (-1) ** j * w[(-(j * (j + 1) // 2) - i * j) % n])
        for i in range(n) for j in range(n)))

    labels = []
    for i in range(n):
        for j in range(n):
            gpart = "" if i == 0 else ("g" if i == 1 else f"g^{i}")
            xpart = "" if j == 0 else ("x" if j == 1 else f"x^{j}")
            labels.append((gpart + " " + xpart).strip() or "1")
    return HopfPresentation(
        name=name or f"taft({n})", dim=dim, order=order,
        mult_entries=mult_entries, comult_entries=comult_entries,
        unit=unit, counit=counit, antipode=s, basis=tuple(labels))


def sweedler(cyclotomic_order: int = 1) -> HopfPresentation:
    """The 4-dimensional algebra taft(2): smallest with S^2 != id."""
    return build_taft(2, cyclotomic_order=cyclotomic_order, name="sweedler")


# -- combinators --------------------------------------------------------------


def build_tensor(h1: HopfPresentation,
                 h2: HopfPresentation) -> HopfPresentation:
    """Tensor product Hopf algebra, index (i1, i2) -> i1*dim2 + i2 alike
    in mult, comult and the antipode S1 (x) S2, from the factors' terms.

    Both factors must already live over the same cyclotomic order; lift
    one of them with lift_order first if they do not (no silent
    coercion).
    """
    if h1.order != h2.order:
        raise OrderMismatch(
            f"tensor factors have orders {h1.order} and {h2.order}; "
            "lift one presentation first")
    n2 = h2.dim
    dim = h1.dim * n2
    mult_entries, comult_entries = (
        [(i1 * n2 + i2, j1 * n2 + j2, k1 * n2 + k2, c1 * c2)
         for i1, j1, k1, c1 in t1 for i2, j2, k2, c2 in t2]
        for t1, t2 in ((h1.entries(t), h2.entries(t))
                       for t in ("mult", "comult")))
    unit = tuple(h1.unit[i1] * h2.unit[i2]
                 for i1 in range(h1.dim) for i2 in range(n2))
    counit = tuple(h1.counit[i1] * h2.counit[i2]
                   for i1 in range(h1.dim) for i2 in range(n2))
    s = None
    if h1.antipode is not None and h2.antipode is not None:
        s = Mat.from_terms(h1.order, dim, dim, (
            (i1 * n2 + i2, j1 * n2 + j2, a * b)
            for i1, r1 in enumerate(h1.antipode.nonzeros()) for j1, a in r1
            for i2, r2 in enumerate(h2.antipode.nonzeros()) for j2, b in r2))
    labels = tuple(f"{a}(x){b}" for a in h1.basis for b in h2.basis)
    return HopfPresentation(
        name=f"tensor({h1.name}, {h2.name})", dim=dim,
        order=h1.order, mult_entries=mult_entries,
        comult_entries=comult_entries, unit=unit, counit=counit,
        antipode=s, basis=labels)
