"""Hopf algebra presentations by exact structure constants.

Conventions, fixed package-wide (most bugs in this domain are convention
slips, so they are spelled out once here):

- mult[i][j] is a tuple of (k, c) pairs, k ascending and no c zero,
  meaning  e_i e_j = sum_k c e_k; every empty cell is the one ().
- comult[i] is a sparse tensor {(j, k): c} meaning
  Delta(e_i) = sum c e_j (x) e_k.  Leg order is part of the data and is
  never swapped silently.
- Operator matrices act on column coordinate vectors, so column i of the
  antipode matrix holds the coordinates of S(e_i).
- Tensor squares flatten (j, k) to j * dim + k.
- An element of H, or a functional on H, is a plain tuple of its
  coordinates in the basis, or in the dual basis: the unit and counit,
  the integrals, g, alpha and the grouplikes alike.  Every method that
  takes one reads any sequence of scalars as it is.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple

from .cyclofield import CycNumber, coordinate_key, cyc, lift_scalar
from .errors import (AxiomFailure, DegeneratePairing, EigenvalueNotInField,
                     IntegralSpaceNotOneDim, MalformedTensor, NoAntipode,
                     NotInvertible, OrderMismatch)
from .linalg import (Mat, Subspace, charpoly, inverse, null_space_of_terms,
                     roots_in_field)


def _outer_rows(u, v, z) -> tuple:
    """The nonzeros of u v^T row by row, as Mat.nonzeros lists them,
    built from the supports of u and v alone (z the field's zero)."""
    support = [(k, y) for k, y in enumerate(v) if y is not z]
    return tuple([(k, x * y) for k, y in support] if x is not z else []
                 for x in u)


def _memo(fn):
    """fn memoized in the _cache of its first argument, under the key
    (fn's name, *its other arguments), each by value or, if its type has
    no __eq__, by identity (normal_form's table).  Entries live as long
    as the first argument, which is therefore never mutated after
    construction; a call that raises stores nothing."""
    @functools.wraps(fn)
    def memoized(owner, *args):
        key, cache = (fn.__name__, *args), owner._cache
        if key not in cache:
            cache[key] = fn(owner, *args)
        return cache[key]

    return memoized


def _product_memo():
    """mul(a, b) = a * b, memoized by the ids of a and b, which each entry
    holds (an id is unique only while its object lives); feed it table
    scalars and its own results, never fresh sums."""
    memo = {}

    def mul(a, b):
        hit = memo.get((id(a), id(b)))
        if hit is None:
            hit = memo[id(a), id(b)] = (a, b, a * b)
        return hit[2]

    return mul


def _cells(n, z, entries) -> tuple:
    """The n x n table, laid out as HopfPresentation.mult, of the
    (i, j, k, c) entries, whose c add up per (i, j, k); z is the zero."""
    cells = {}
    for i, j, k, c in entries:
        if c is not z:
            cells.setdefault(i * n + j, []).append((k, c))
    table = [[()] * n for _ in range(n)]
    for ij, pairs in cells.items():
        if len(pairs) > 1:  # k ascending, each k once, no sum that cancels
            sums = {}
            for k, c in sorted(pairs, key=lambda pair: pair[0]):
                sums[k] = c if (prev := sums.get(k)) is None else prev + c
            pairs = [(k, c) for k, c in sums.items() if c is not z]
        table[ij // n][ij % n] = tuple(pairs)
    return tuple(map(tuple, table))


class AxiomChecklist(namedtuple("AxiomChecklist", "results")):
    """results: a tuple of (name, ok, detail)."""
    __slots__ = ()

    def failures(self):
        return [(name, detail) for name, ok, detail in self.results if not ok]


class HopfPresentation:
    """A (bi/Hopf) algebra given by structure constants over Q(zeta_N).

    Construction validates shapes and index ranges only; mathematical
    axioms are checked by check_axioms, so that deliberately broken
    presentations can be built for testing.
    """

    def __init__(self, name, dim, order, mult_entries, comult_entries,
                 unit, counit, antipode: Mat | None = None, basis=None):
        self.name = name
        self.dim = dim
        self.order = order
        if dim < 1:
            raise MalformedTensor("dimension must be >= 1")
        z = cyc(order, 0)
        mult_entries, comult = list(mult_entries), [{} for _ in range(dim)]
        for table, entries in (("mult", mult_entries),
                               ("comult", comult_entries)):
            for (i, j, k, c) in entries:
                self._check_scalar(c)
                if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                    raise MalformedTensor(
                        f"{table} index out of range: {(i, j, k)}")
                if table == "comult" and c is not z:
                    prev = comult[i].get((j, k))
                    comult[i][j, k] = c if prev is None else prev + c
        self.mult = _cells(dim, z, mult_entries)
        self.comult = tuple({jk: c for jk, c in tensor.items() if c is not z}
                            for tensor in comult)
        unit = tuple(unit)
        counit = tuple(counit)
        if len(unit) != dim or len(counit) != dim:
            raise MalformedTensor("unit/counit length must equal dim")
        for c in unit + counit:
            self._check_scalar(c)
        self.unit = unit
        self.counit = counit
        if antipode is not None:
            if antipode.rows != dim or antipode.cols != dim:
                raise MalformedTensor("antipode must be dim x dim")
            if antipode.order != order:
                raise OrderMismatch("antipode scalar order differs")
        self.antipode = antipode
        self.basis = tuple(basis) if basis is not None else tuple(
            f"e{i}" for i in range(dim))
        if len(self.basis) != dim:
            raise MalformedTensor("basis label count must equal dim")
        self._cache = {}

    def _check_scalar(self, c):
        if not isinstance(c, CycNumber):
            raise MalformedTensor(f"structure constant {c!r} is not a scalar")
        if c.order != self.order:
            raise OrderMismatch(
                f"scalar order {c.order} != presentation order {self.order}")

    # -- scalars and elements ------------------------------------------------

    def zero_scalar(self):
        return cyc(self.order, 0)

    def multiply(self, a, b) -> tuple:
        z = self.zero_scalar()
        acc, b = {}, [(j, bj) for j, bj in enumerate(b) if bj is not z]
        for i, ai in enumerate(a):
            if ai is not z:
                for j, bj in b:
                    f = ai * bj
                    for k, c in self.mult[i][j]:
                        acc[k] = acc.get(k, z) + f * c
        return tuple(acc.get(k, z) for k in range(self.dim))

    def entries(self, table: str) -> tuple:
        """The nonzero (i, j, k, c) of table, "mult" or "comult", sorted by
        (i, j, k): the form the constructor takes and the file writes."""
        if table == "mult":
            return tuple(sorted((i, j, k, c) for i, row in enumerate(self.mult)
                                for j, prod in enumerate(row)
                                for k, c in prod))
        return tuple(sorted((i, j, k, c) for i, ten in enumerate(self.comult)
                            for (j, k), c in ten.items()))

    def comult_pairs(self, a) -> dict:
        """Sparse {(j, k): c} expansion of Delta(a)."""
        z = self.zero_scalar()
        acc = {}
        for i, ai in enumerate(a):
            if ai is not z:
                for jk, c in self.comult[i].items():
                    acc[jk] = acc.get(jk, z) + ai * c
        return {jk: c for jk, c in acc.items() if c is not z}

    def matrix(self, terms) -> Mat:
        """The dim x dim Mat.from_terms of the (r, c, x) terms."""
        return Mat.from_terms(self.order, self.dim, self.dim, terms)

    def comult_matrix(self, a) -> Mat:
        """Delta(a) as the dim x dim coefficient matrix C[j][k]."""
        return self.matrix((j, k, c)
                           for (j, k), c in self.comult_pairs(a).items())

    def pair(self, beta, a) -> CycNumber:
        """Evaluation <beta, a> of a functional on an element."""
        acc = z = self.zero_scalar()
        for bi, ai in zip(beta, a):
            if bi is not z and ai is not z:
                acc = acc + bi * ai
        return acc

    def left_mult_matrix(self, a) -> Mat:
        """L_a with column j = coordinates of a * e_j."""
        z = self.zero_scalar()
        return self.matrix((k, j, ai * c) for i, ai in enumerate(a)
                           if ai is not z
                           for j, prod in enumerate(self.mult[i])
                           for k, c in prod)

    def right_mult_matrix(self, a) -> Mat:
        """R_a with column j = coordinates of e_j * a."""
        z = self.zero_scalar()
        return self.matrix((k, j, ai * c) for i, ai in enumerate(a)
                           if ai is not z for j in range(self.dim)
                           for k, c in self.mult[j][i])

    def harpoon_matrix(self, beta, side: str) -> Mat:
        """H_l(beta) with column t = beta -> e_t (side "left"), or H_r(beta)
        with column t = e_t <- beta (side "right")."""
        z = self.zero_scalar()
        leg = 1 if side == "left" else 0  # the leg of Delta(e_t) beta reads
        return self.matrix((jk[1 - leg], t, c * beta[jk[leg]])
                           for t, tensor in enumerate(self.comult)
                           for jk, c in tensor.items()
                           if beta[jk[leg]] is not z)

    def form_matrix(self, beta) -> Mat:
        """B_beta with B[a][c] = beta(e_a e_c)."""
        z = self.zero_scalar()
        return self.matrix((a, c, m * beta[k])
                           for a, row in enumerate(self.mult)
                           for c, prod in enumerate(row)
                           for k, m in prod if beta[k] is not z)

    # -- derived quantities ---------------------------------------------------

    @_memo
    def antipode_matrix(self) -> Mat:
        """Stored antipode, or the one computed from the axioms."""
        if self.antipode is not None:
            return self.antipode
        return compute_antipode(self)

    @_memo
    def s_power_matrix(self, t: int) -> Mat:
        """S^t = S^(t-a) S^a from the stored powers, a the largest power of
        two below t: S^2 = S S, S^4 = S^2 S^2 and S^6 = S^2 S^4."""
        if t < 0:
            raise ValueError("antipode power must be >= 0")
        if t < 2:
            return (self.antipode_matrix() if t
                    else Mat.identity(self.order, self.dim))
        a = 1 << (t - 1).bit_length() - 1
        return self.s_power_matrix(t - a) @ self.s_power_matrix(a)

    def __repr__(self):
        return (f"HopfPresentation({self.name!r}, dim {self.dim}, "
                f"order {self.order})")


# -- axioms -------------------------------------------------------------------


@_memo
def check_axioms(h: HopfPresentation) -> AxiomChecklist:
    """Full bialgebra/Hopf axiom checklist with first-failure witnesses.

    Antipode axioms are only checked when an antipode is stored; the
    checklist then certifies a Hopf algebra, otherwise a bialgebra.

    The unit, the counit and its multiplicativity are operator equalities,
    L_1 = R_1 = I, H_l(eps) = H_r(eps) = I and B_eps = eps eps^T, whose
    witness is the first failing column j, or (i, j) in row-major order.
    The cubic axioms are certified on generator rows.  The left nucleus
    N = {a : (ab)c = a(bc) for all b, c} of any bilinear product is closed
    under it: ((aa')b)c = (a(a'b))c = a((a'b)c) = a(a'(bc)) = (aa')(bc).
    The generators' words and 1 span the algebra, so a subalgebra holding
    1 and the generators is all of it.  On H: the unit (then 1 is in N,
    as (1b)c = bc = 1(bc)), associativity; Delta(1) = 1 (x) 1, then
    Delta-multiplicativity ({a : Delta(ab) = Delta(a) Delta(b) for all b}
    is a subalgebra by the same chain); coassociativity (the coassociative
    elements of an algebra map Delta form a subalgebra holding 1).  On H*
    (product comult^T, unit the counit, from transposed tables), the same
    chain transposed: the counit, coassociativity; counit
    multiplicativity, Delta-multiplicativity; associativity.  H* is taken
    when the counit holds and H* has fewer generators.  A step runs on
    generator rows once every step before it has passed; otherwise, or
    when a generator row fails, it scans every row of H, so each witness
    is the first failure in row-major order.  Sums drop their cancelled
    entries, so == compares them with zero-free tables.
    """
    n, z, mul = h.dim, h.zero_scalar(), _product_memo()

    def add(acc, key, v):
        old = acc.get(key)
        acc[key] = v if old is None else old + v

    def nonzero(acc):
        return {k: v for k, v in acc.items() if v is not z}

    def associativity(mult, comult, i):
        for j in range(n):
            lhs, rhs = {}, {}  # (l, m): e_m in (e_i e_j) e_l, e_i (e_j e_l)
            for k, c in mult[i][j]:
                for l, prod in enumerate(mult[k]):
                    for m, x in prod:
                        add(lhs, (l, m), mul(c, x))
            for l, prod in enumerate(mult[j]):
                for k, c in prod:
                    for m, x in mult[i][k]:
                        add(rhs, (l, m), mul(c, x))
            lhs, rhs = nonzero(lhs), nonzero(rhs)
            if lhs != rhs:
                l = min(l for l, m in lhs.keys() | rhs.keys()
                        if lhs.get((l, m)) != rhs.get((l, m)))
                return f"(e{i} e{j}) e{l} != e{i} (e{j} e{l})"
        return None

    def coassociativity(mult, comult, i):
        lhs, rhs = {}, {}
        for (j, k), c in comult[i].items():
            for (a, b), x in comult[j].items():
                add(lhs, (a, b, k), mul(c, x))
            for (a, b), x in comult[k].items():
                add(rhs, (j, a, b), mul(c, x))
        same = nonzero(lhs) == nonzero(rhs)
        return None if same else f"coassociativity fails on e{i}"

    def tensor_square_product(mult, t1, t2):
        """Zero-free product under mult of zero-free {(j, k): c} tensors:
        for each pair of left legs (a, c), r = sum c1 c2 e_b e_d over the
        (a, b) of t1 and (c, d) of t2 first, then e_a e_c (x) r once."""
        right = {}  # (a, c) -> r
        for (a, b), x in t1.items():
            for (c, d), y in t2.items():
                if mult[a][c]:
                    f, r = mul(x, y), right.setdefault((a, c), {})
                    for q, w in mult[b][d]:
                        add(r, q, mul(f, w))
        acc = {}
        for (a, c), r in right.items():
            for q, v in nonzero(r).items():
                for p, u in mult[a][c]:
                    add(acc, (p, q), u * v)
        return nonzero(acc)

    def comult_multiplicative(mult, comult, i):
        for j in range(n):
            lhs = {}
            for k, c in mult[i][j]:
                for jk, x in comult[k].items():
                    add(lhs, jk, mul(c, x))
            if nonzero(lhs) != tensor_square_product(mult, comult[i],
                                                     comult[j]):
                return f"Delta not multiplicative on (e{i}, e{j})"
        return None

    def identities(what, *mats):
        """None if every one of mats is I, else its first failing column."""
        if all(m == ident for m in mats):
            return None
        j = next(j for j in range(n)
                 if any(m.col(j) != ident.col(j) for m in mats))
        return f"{what} fails on e{j}"

    def counit_multiplicative():
        """None when B_eps = eps eps^T, else the first failing (i, j)."""
        got = h.form_matrix(h.counit).nonzeros()
        want = _outer_rows(h.counit, h.counit, z)
        if got == want:
            return None
        i = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
        a, b = dict(got[i]), dict(want[i])
        j = min(j for j in a.keys() | b.keys() if a.get(j) != b.get(j))
        return f"counit not multiplicative on (e{i}, e{j})"

    def scan(axiom, row, certify):
        """None if certify and row pass rows, else axiom's first failure on H."""
        if certify and not any(row(*taken, i) for i in rows):
            return None
        return next(filter(None, (axiom(h.mult, h.comult, i)
                                  for i in range(n))), None)

    ident = Mat.identity(h.order, n)
    unital = identities("unit", h.left_mult_matrix(h.unit),
                        h.right_mult_matrix(h.unit))
    counital = identities("counit", h.harpoon_matrix(h.counit, "left"),
                          h.harpoon_matrix(h.counit, "right"))
    counit_map = ("counit(1) != 1" if h.pair(h.counit, h.unit) != 1
                  else counit_multiplicative())
    taken, rows = (h.mult, h.comult), algebra_generators(h)
    first, last, unit_ok, delta_ok = (associativity, coassociativity,
                                      unital is None, True)
    if counital is None:  # the generators of H*, up to as many as H has
        dual_mult = _cells(n, z, ((j, k, i, c)
                                  for i, j, k, c in h.entries("comult")))
        dual_rows = tuple(itertools.islice(
            _generators(h.order, dual_mult, h.counit), len(rows)))
        if len(dual_rows) < len(rows):
            dual_comult = [{} for _ in range(n)]
            for i, j, k, c in h.entries("mult"):
                dual_comult[k][i, j] = c
            taken, rows = (dual_mult, dual_comult), dual_rows
            first, last, unit_ok, delta_ok = (coassociativity, associativity,
                                              True, counit_map is None)
    done = {first: scan(first, associativity, unit_ok)}
    comult_map = "Delta(1) != 1 (x) 1"
    if h.comult_matrix(h.unit).nonzeros() == _outer_rows(h.unit, h.unit, z):
        comult_map = scan(comult_multiplicative, comult_multiplicative,
                          unit_ok and done[first] is None and delta_ok)
    done[last] = scan(last, coassociativity, comult_map is None and delta_ok)
    results = [("associativity", done[associativity]), ("unit", unital),
               ("coassociativity", done[coassociativity]),
               ("counit", counital), ("comult-algebra-map", comult_map),
               ("counit-algebra-map", counit_map)]
    if h.antipode is not None:
        for side in ("left", "right"):
            i = _antipode_axiom_failure(h, h.antipode, side)
            results.append((f"antipode-{side}", None if i is None
                            else f"antipode {side} axiom fails on e{i}"))
    return AxiomChecklist(tuple((name, detail is None, detail or "")
                                for name, detail in results))


@_memo
def certified(h: HopfPresentation) -> None:
    """Certify h a Hopf algebra: the first failure of the memoized
    check_axioms(h), the line verify prints first, raises AxiomFailure
    "axiom: witness"; with no stored antipode, compute_antipode's
    NoAntipode is the certificate.  The invariants' theorems hold for Hopf
    algebras only, so the calls that read g, alpha or the index certify."""
    failures = check_axioms(h).failures()
    if failures:
        raise AxiomFailure("%s: %s" % failures[0])
    h.antipode_matrix()


@_memo
def algebra_generators(h: HopfPresentation) -> tuple:
    """The indices _generators yields for the product and unit of h."""
    return tuple(_generators(h.order, h.mult, h.unit))


def _generators(order: int, mult, unit):
    """Yield, one by one, basis indices whose left-normed words
    s1 (s2 (... s_k)), together with unit, span the algebra with product
    table mult (laid out like HopfPresentation.mult).  Greedy in basis
    order: the span V starts as span(unit), e_i becomes a generator
    unless it lies in V, and V is then closed under left multiplication
    by every generator.  Products are reduced fraction-free against an
    echelon basis of V, so no scalar is inverted.  At worst every index
    is a generator; a caller that stops asking stops the closure too."""
    one, z = cyc(order, 1), cyc(order, 0)
    rows, gens = [], []  # echelon basis of V: (pivot, sparse vector)

    def add(w):
        """Reduce w against V; add the remainder, and say if it was new."""
        for p, b in rows:
            c = w.get(p)
            if c is not None:
                w = {k: b[p] * x for k, x in w.items()}
                for k, x in b.items():
                    w[k] = w.get(k, z) - c * x
                w = {k: x for k, x in w.items() if x is not z}
        if w:
            p = min(w)
            rows.append((p, {p: one} if len(w) == 1 else w))
        return bool(w)

    add({k: u for k, u in enumerate(unit) if u is not z})
    for i in range(len(mult)):
        if not add({i: one}):
            continue
        yield i
        gens.append(i)
        todo = ([(i, b) for _, b in rows[:-1]]
                + [(s, rows[-1][1]) for s in gens])
        while todo:
            s, v = todo.pop()
            w = {}
            for j, c in v.items():
                for k, x in mult[s][j]:
                    w[k] = w.get(k, z) + c * x
            if add({k: x for k, x in w.items() if x is not z}):
                todo += [(t, rows[-1][1]) for t in gens]


def _antipode_axiom_failure(h: HopfPresentation, s: Mat, side: str):
    """The first i where s fails the left (S(x_1) x_2) or right
    (x_1 S(x_2)) antipode axiom on e_i, or None when it holds."""
    n, z, mul = h.dim, h.zero_scalar(), _product_memo()
    cols = s.transpose().nonzeros()  # the nonzero (t, S[t][j]) of column j
    target = {e: tuple(e * u for u in h.unit) for e in set(h.counit)}
    for i in range(n):
        acc = [z] * n
        for (j, k), c in h.comult[i].items():
            if side == "left":  # S(e_j) e_k = sum_t S[t][j] e_t e_k
                terms = ((st, h.mult[t][k]) for t, st in cols[j])
            else:  # e_j S(e_k) = sum_t S[t][k] e_j e_t
                terms = ((st, h.mult[j][t]) for t, st in cols[k])
            for st, row in terms:
                f = mul(c, st)
                for m, x in row:
                    acc[m] = acc[m] + mul(f, x)
        if tuple(acc) != target[h.counit[i]]:
            return i
    return None


# -- antipode from scratch ---------------------------------------------------


def compute_antipode(h: HopfPresentation) -> Mat:
    """The antipode from the bialgebra data alone, through the integrals.

    For a left integral Lambda in H, a Lambda_1 (x) Lambda_2 =
    Lambda_1 (x) S^-1(a) Lambda_2; a right integral lambda on H with
    lambda(Lambda) = 1 applied to the first leg gives
    S^-1(a) = sum lambda(a Lambda_1) Lambda_2 (Larson-Sweedler, Radford).
    With B[a][c] = lambda(e_a e_c) and C = Delta(Lambda), column a of S^-1
    is row a of B C, so S = ((B C)^T)^-1.

    A finite-dimensional Hopf algebra always has such a pair, so a
    bialgebra without one has no antipode.  NoAntipode is raised then,
    when B C is singular, and when the candidate fails either antipode
    axiom.
    """
    from .integrals import integral_coproduct, integral_form
    try:
        c = integral_coproduct(h)
    except (IntegralSpaceNotOneDim, DegeneratePairing) as exc:
        raise NoAntipode(f"no normalized integral pair: {exc}") from exc
    try:
        s = inverse((integral_form(h) @ c).transpose())
    except NotInvertible as exc:
        raise NoAntipode("the integral candidate for S^-1 is singular") \
            from exc
    for side in ("left", "right"):
        i = _antipode_axiom_failure(h, s, side)
        if i is not None:
            raise NoAntipode(
                f"the integral candidate fails the {side} antipode axiom "
                f"on e{i}")
    return s


# -- dual ---------------------------------------------------------------------


def dual(h: HopfPresentation) -> HopfPresentation:
    """The dual Hopf algebra on the dual basis (transposed tensors)."""
    s = h.antipode.transpose() if h.antipode is not None else None
    return HopfPresentation(
        name=f"dual({h.name})", dim=h.dim, order=h.order,
        mult_entries=[(i, j, k, c) for k, i, j, c in h.entries("comult")],
        comult_entries=[(i, j, k, c) for j, k, i, c in h.entries("mult")],
        unit=h.counit, counit=h.unit, antipode=s,
        basis=tuple(f"{lbl}*" for lbl in h.basis))


# -- grouplikes ---------------------------------------------------------------


def is_grouplike(h: HopfPresentation, a) -> bool:
    """Delta(a) = a (x) a and a != 0 (which forces counit(a) = 1)."""
    z = h.zero_scalar()
    support = [(j, aj) for j, aj in enumerate(a) if aj is not z]
    if not support:
        return False
    expect = {(j, k): aj * ak for j, aj in support for k, ak in support}
    return h.comult_pairs(a) == expect  # neither side holds a zero


def _cocommutative_subspace(h: HopfPresentation) -> Subspace:
    """K = {a : Delta(a) = Delta^op(a)}: one equation per pair k < l."""
    return null_space_of_terms(h.order, h.dim, (
        ((min(k, l), max(k, l)), i, c if k < l else -c)
        for i in range(h.dim) for (k, l), c in h.comult[i].items() if k != l))


def _line_grouplike(h: HopfPresentation, w: Subspace):
    """The grouplike in the one-dimensional w, or None.

    With w = span(v) and v = 1 at its pivot p, Delta(lambda v) =
    (lambda v) (x) (lambda v) forces lambda = Delta(v)_(p,p).
    """
    v = w.basis.data[0]
    lam = h.comult_pairs(v).get((w.pivots[0], w.pivots[0]), h.zero_scalar())
    cand = tuple(lam * x for x in v)
    return cand if is_grouplike(h, cand) else None


def _acts_as_scalar(a, wcols, c) -> bool:
    """A = c w^T exactly: then T_k v = c v for every v in w, so w is
    carried on whole.  Compares the nonzeros of a, {(l, r): A[l][r]},
    and of wcols, column l of w as (r, entry) pairs."""
    got = {key: x for key, x in a.items() if x}
    if not c:
        return not got
    return (len(got) == sum(map(len, wcols.values()))
            and all(got.get((l, r)) == c * y
                    for l, col in wcols.items() for r, y in col))


@_memo
def find_grouplikes(h: HopfPresentation) -> tuple:
    """All grouplike elements, canonically ordered.

    A grouplike is a common eigenvector of the operator family
    T_k : a |-> (e_k^* (x) id) Delta(a), with eigenvalue tuple equal to its
    own coordinates.  Delta(g) = g (x) g is symmetric, so every grouplike
    lies in the cocommutative subspace K = {a : Delta(a) = Delta^op(a)},
    whatever the input; the search starts from K and refines it one
    operator at a time.  A state of dimension >= 2 is split by the roots
    of its characteristic polynomial, searched over {r zeta^t : r
    rational}.  A one-dimensional state span(v), with v = 1 at its pivot
    p, is closed at once: its only possible grouplike is lambda v with
    lambda = Delta(v)_(p,p), which is tested directly, so its eigenvalues
    need not lie in that family.  A state on which T_k is a scalar is
    carried on whole.  Each search finds the roots of each characteristic
    polynomial, zero roots divided out, once.  If that of a state of
    dimension >= 2 does not split over the family, EigenvalueNotInField
    is raised, since completeness of the enumeration could not be
    certified.

    States of K are refined by T_0, T_1, ..., each state w (RREF basis,
    pivots p_j, d = dim w) split in its own d coordinates.  A = T_k w^T
    is read from the Delta terms with left leg k.  For v = w^T x,
    T_k v = c v exactly when (A - c w^T) x = 0; w^T is the identity on
    the pivot rows, so c is an eigenvalue of m, A on those rows, and the
    roots of charpoly(m) are the only candidates.  The new state is
    w.image_of(X) for the kernel X in RREF: X w is already the canonical
    basis an rref would give.

    After the last operator each state has Delta(v) = c (x) v = v (x) c
    for all its v, so one of dimension >= 2 has c = 0 and no grouplike;
    pass n closes the one-dimensional states and drops the rest.
    """
    n = h.dim
    z = cyc(h.order, 0)
    found = []
    by_k = [[] for _ in range(n)]
    for i in range(n):
        for (k, l), c in h.comult[i].items():
            by_k[k].append((i, l, c))
    states = [_cocommutative_subspace(h)]
    roots_of = {}  # charpoly with its zero roots divided out -> its roots
    for k in range(n + 1):
        for w in states:
            if w.dim == 1 and (g := _line_grouplike(h, w)) is not None:
                found.append(g)
        states = [w for w in states if w.dim > 1]
        if k == n or not states:
            break
        new_states = []
        for w in states:
            d, wcols = w.dim, {}
            for r, row in enumerate(w.basis.nonzeros()):
                for i, x in row:
                    wcols.setdefault(i, []).append((r, x))
            a = {}  # (l, r) -> entry of A
            for (i, l, c) in by_k[k]:
                for r, x in wcols.get(i, ()):
                    a[l, r] = a.get((l, r), z) + c * x
            m = Mat(h.order, [[a.get((p, r), z) for r in range(d)]
                              for p in w.pivots], cols=d)
            if _acts_as_scalar(a, wcols, a.get((w.pivots[0], 0), z)):
                new_states.append(w)
                continue
            chi = charpoly(m)
            zeros = next(i for i, x in enumerate(chi) if x)
            key = chi[zeros:]
            if key not in roots_of:
                roots_of[key] = roots_in_field(key, h.order)
            roots, rem_deg = roots_of[key]
            if zeros:
                roots = [(z, zeros)] + roots
            if rem_deg:
                raise EigenvalueNotInField(
                    f"operator {k}: characteristic polynomial leaves a "
                    f"degree-{rem_deg} factor unsplit over Q(zeta_{h.order})")
            eqs = [(l, r, x) for (l, r), x in a.items()]
            for (c, _mult) in roots:
                ker = null_space_of_terms(h.order, d, eqs + [
                    (l, r, -c * y)
                    for l, col in wcols.items() for r, y in col])
                if ker.dim:
                    new_states.append(w.image_of(ker))
        states = new_states
    found.sort(key=lambda v: tuple(map(coordinate_key, v)))
    return tuple(found)


def lift_order(h: HopfPresentation, new_order: int) -> HopfPresentation:
    """The same algebra presented over Q(zeta_new_order).

    new_order must be a multiple of the current order; scalars are mapped
    along zeta_old |-> zeta_new^(new/old).
    """
    if new_order % h.order:
        raise OrderMismatch(
            f"cannot lift order {h.order} into order {new_order}")

    def lift(c):
        return lift_scalar(c, new_order)

    s = None
    if h.antipode is not None:
        s = Mat.from_terms(new_order, h.dim, h.dim, (
            (r, c, lift(x)) for r, row in enumerate(h.antipode.nonzeros())
            for c, x in row))
    return HopfPresentation(
        name=h.name, dim=h.dim, order=new_order,
        mult_entries=[(*ijk, lift(c)) for *ijk, c in h.entries("mult")],
        comult_entries=[(*ijk, lift(c)) for *ijk, c in h.entries("comult")],
        unit=tuple(lift(c) for c in h.unit),
        counit=tuple(lift(c) for c in h.counit),
        antipode=s, basis=h.basis)
