"""Hopf algebra presentations by exact structure constants.

Conventions, fixed package-wide (most bugs in this domain are convention
slips, so they are spelled out once here):

- mult[i][j] is a sparse row {k: c} meaning  e_i e_j = sum_k c e_k.
- comult[i] is a sparse tensor {(j, k): c} meaning
  Delta(e_i) = sum c e_j (x) e_k.  Leg order is part of the data and is
  never swapped silently.
- Operator matrices act on column coordinate vectors, so column i of the
  antipode matrix holds the coordinates of S(e_i).
- Tensor squares flatten (j, k) to j * dim + k.
"""

from __future__ import annotations

from collections import namedtuple

from .cyclofield import CycNumber, coordinate_key, cyc, lift_scalar
from .errors import (DegeneratePairing, EigenvalueNotInField,
                     IntegralSpaceNotOneDim, MalformedTensor, NoAntipode,
                     NotInvertible, OrderMismatch)
from .linalg import (Mat, Subspace, charpoly, inverse, null_space_of_terms,
                     roots_in_field)


class _Coords:
    """A coordinate tuple that iterates as its coordinates and equals only
    a value of the same class."""
    __slots__ = ("coords",)

    def __init__(self, coords):
        self.coords = coords

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash((self.coords,))

    def __repr__(self):
        return f"{type(self).__name__}(coords={self.coords!r})"

    def __iter__(self):
        return iter(self.coords)

    def __len__(self):
        return len(self.coords)


class HopfElement(_Coords):
    __slots__ = ()


class Functional(_Coords):
    __slots__ = ()


def _coords(x):
    if isinstance(x, _Coords):
        return x.coords
    return tuple(x)


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
        mult = [[{} for _ in range(dim)] for _ in range(dim)]
        comult = [{} for _ in range(dim)]
        for table, entries, slot in (
                ("mult", mult_entries, lambda i, j, k: (mult[i][j], k)),
                ("comult", comult_entries,
                 lambda i, j, k: (comult[i], (j, k)))):
            for (i, j, k, c) in entries:
                self._check_scalar(c)
                if not all(0 <= t < dim for t in (i, j, k)):
                    raise MalformedTensor(
                        f"{table} index out of range: {(i, j, k)}")
                if c:
                    row, key = slot(i, j, k)
                    prev = row.get(key)
                    c = c if prev is None else prev + c
                    if c:
                        row[key] = c
                    elif prev is not None:
                        del row[key]
        self.mult = tuple(tuple(row) for row in mult)
        self.comult = tuple(comult)
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

    def basis_element(self, i) -> tuple:
        z, o = cyc(self.order, 0), cyc(self.order, 1)
        return tuple(o if t == i else z for t in range(self.dim))

    def multiply(self, a, b) -> tuple:
        a, b = _coords(a), _coords(b)
        z = self.zero_scalar()
        acc = {}
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        f = ai * bj
                        for k, c in self.mult[i][j].items():
                            acc[k] = acc.get(k, z) + f * c
        return tuple(acc.get(k, z) for k in range(self.dim))

    def comult_pairs(self, a) -> dict:
        """Sparse {(j, k): c} expansion of Delta(a)."""
        a = _coords(a)
        acc = {}
        for i, ai in enumerate(a):
            if ai:
                for jk, c in self.comult[i].items():
                    acc[jk] = acc.get(jk, self.zero_scalar()) + ai * c
        return {jk: c for jk, c in acc.items() if c}

    def comult_matrix(self, a) -> Mat:
        """Delta(a) as the dim x dim coefficient matrix C[j][k]."""
        z = self.zero_scalar()
        out = [[z] * self.dim for _ in range(self.dim)]
        for (j, k), c in self.comult_pairs(a).items():
            out[j][k] = out[j][k] + c
        return Mat(self.order, out, cols=self.dim)

    def counit_of(self, a) -> CycNumber:
        acc = self.zero_scalar()
        for ai, ei in zip(_coords(a), self.counit):
            if ai and ei:
                acc = acc + ai * ei
        return acc

    def pair(self, beta, a) -> CycNumber:
        """Evaluation <beta, a> of a functional on an element."""
        acc = self.zero_scalar()
        for bi, ai in zip(_coords(beta), _coords(a)):
            if bi and ai:
                acc = acc + bi * ai
        return acc

    def right_mult_matrix(self, a) -> Mat:
        """R_a with column j = coordinates of e_j * a."""
        a = _coords(a)
        z = self.zero_scalar()
        out = [[z] * self.dim for _ in range(self.dim)]
        for i, ai in enumerate(a):
            if ai:
                for j in range(self.dim):
                    for k, c in self.mult[j][i].items():
                        out[k][j] = out[k][j] + ai * c
        return Mat(self.order, out, cols=self.dim)

    def tensor_square_product(self, t1: dict, t2: dict) -> dict:
        """Product in H (x) H of sparse {(j, k): c} tensors."""
        acc = {}
        z = self.zero_scalar()
        for (a, b), c1 in t1.items():
            for (c, d), c2 in t2.items():
                f = c1 * c2
                if not f:
                    continue
                for p, cp in self.mult[a][c].items():
                    left = f * cp
                    for q, cq in self.mult[b][d].items():
                        key = (p, q)
                        acc[key] = acc.get(key, z) + left * cq
        return {k: v for k, v in acc.items() if v}

    # -- derived quantities ---------------------------------------------------

    def memo(self, key, compute):
        """The derived quantity stored under key, from compute() on first use.

        key names the quantity and its arguments.  Entries live as long as
        the presentation, which is therefore never mutated after
        construction.  A compute() that raises stores nothing.
        """
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def antipode_matrix(self) -> Mat:
        """Stored antipode, or the one computed from the axioms (cached)."""
        if self.antipode is not None:
            return self.antipode
        return self.memo(("antipode",), lambda: compute_antipode(self))

    def s_power_matrix(self, t: int) -> Mat:
        if t < 0:
            raise ValueError("antipode power must be >= 0")
        return self.memo(("s_pow", t),
                         lambda: self.antipode_matrix().pow(t))

    def __repr__(self):
        return (f"HopfPresentation({self.name!r}, dim {self.dim}, "
                f"order {self.order})")


# -- axioms -------------------------------------------------------------------


def _dict_eq(d1: dict, d2: dict) -> bool:
    for k in d1.keys() | d2.keys():
        a, b = d1.get(k), d2.get(k)
        if a is None:
            if b:
                return False
        elif b is None:
            if a:
                return False
        elif a != b:
            return False
    return True


def check_axioms(h: HopfPresentation) -> AxiomChecklist:
    """Full bialgebra/Hopf axiom checklist with first-failure witnesses.

    Antipode axioms are only checked when an antipode is stored; the
    checklist then certifies a Hopf algebra, otherwise a bialgebra.

    Associativity and the multiplicativity of Delta and the counit are
    certified on the rows of algebra_generators(h) alone.  For any bilinear
    product the left nucleus N = {a : (ab)c = a(bc) for all b, c} is a
    subspace closed under the product: for a, a' in N,
    ((aa')b)c = (a(a'b))c = a((a'b)c) = a(a'(bc)) = (aa')(bc).  The
    generators' words, together with 1, span H.  The unit scan runs first;
    once it passes, 1 lies in N, since (1b)c = bc = 1(bc), so when every
    generator lies in N, N is all of H.  If the unit fails, associativity
    scans every row.  Once associativity and the unit hold, {a : Delta(ab)
    = Delta(a) Delta(b) for all b} and {a : eps(ab) = eps(a) eps(b) for
    all b} are subalgebras by the same chain, and they contain 1 because
    Delta(1) = 1 (x) 1 and eps(1) = 1 are checked before them, so generator
    rows certify them too; otherwise they scan every row.  When a generator
    row fails, the same row scan runs over every basis index, so each
    witness is the first failure in row-major order.
    """
    n = h.dim
    z = h.zero_scalar()
    gens = algebra_generators(h)

    def scan(row, certify=False):
        """The first failure detail of row(i) over i in range(n), or None."""
        if certify and not any(map(row, gens)):
            return None
        return next(filter(None, map(row, range(n))), None)

    def associativity(i):
        for j in range(n):
            ij = h.mult[i][j]
            for l in range(n):
                acc = {}  # (e_i e_j) e_l - e_i (e_j e_l)
                for k, c in ij.items():
                    for m, c2 in h.mult[k][l].items():
                        acc[m] = acc.get(m, z) + c * c2
                for k, c in h.mult[j][l].items():
                    for m, c2 in h.mult[i][k].items():
                        acc[m] = acc.get(m, z) - c * c2
                if any(acc.values()):
                    return f"(e{i} e{j}) e{l} != e{i} (e{j} e{l})"
        return None

    def unit(j):
        ej = h.basis_element(j)
        if h.multiply(h.unit, ej) != ej or h.multiply(ej, h.unit) != ej:
            return f"unit fails on e{j}"
        return None

    def coassociativity(i):
        lhs, rhs = {}, {}
        for (j, k), c in h.comult[i].items():
            for (a, b), c2 in h.comult[j].items():
                key = (a, b, k)
                lhs[key] = lhs.get(key, z) + c * c2
            for (a, b), c2 in h.comult[k].items():
                key = (j, a, b)
                rhs[key] = rhs.get(key, z) + c * c2
        return None if _dict_eq(lhs, rhs) else f"coassociativity fails on e{i}"

    def counit(i):
        left, right = [z] * n, [z] * n
        for (j, k), c in h.comult[i].items():
            if h.counit[j]:
                left[k] = left[k] + h.counit[j] * c
            if h.counit[k]:
                right[j] = right[j] + h.counit[k] * c
        ei = h.basis_element(i)
        if tuple(left) != ei or tuple(right) != ei:
            return f"counit fails on e{i}"
        return None

    def comult_multiplicative(i):
        di = h.comult[i]
        for j in range(n):
            lhs = {}
            for k, c in h.mult[i][j].items():
                for jk, c2 in h.comult[k].items():
                    lhs[jk] = lhs.get(jk, z) + c * c2
            if not _dict_eq(lhs, h.tensor_square_product(di, h.comult[j])):
                return f"Delta not multiplicative on (e{i}, e{j})"
        return None

    def counit_multiplicative(i):
        for j in range(n):
            acc = z
            for k, c in h.mult[i][j].items():
                if h.counit[k]:
                    acc = acc + c * h.counit[k]
            if acc != h.counit[i] * h.counit[j]:
                return f"counit not multiplicative on (e{i}, e{j})"
        return None

    unital = scan(unit)
    assoc = scan(associativity, certify=unital is None)
    both = assoc is None and unital is None
    expect = {(j, k): uj * uk for j, uj in enumerate(h.unit) if uj
              for k, uk in enumerate(h.unit) if uk}
    results = [
        ("associativity", assoc),
        ("unit", unital),
        ("coassociativity", scan(coassociativity)),
        ("counit", scan(counit)),
        ("comult-algebra-map",
         "Delta(1) != 1 (x) 1"
         if not _dict_eq(h.comult_pairs(h.unit), expect)
         else scan(comult_multiplicative, certify=both)),
        ("counit-algebra-map",
         "counit(1) != 1" if h.counit_of(h.unit) != 1
         else scan(counit_multiplicative, certify=both)),
    ]
    if h.antipode is not None:
        for side in ("left", "right"):
            i = _antipode_axiom_failure(h, h.antipode, side)
            results.append((f"antipode-{side}", None if i is None
                            else f"antipode {side} axiom fails on e{i}"))
    return AxiomChecklist(tuple((name, detail is None, detail or "")
                                for name, detail in results))


def algebra_generators(h: HopfPresentation) -> tuple:
    """Basis indices whose left-normed words s1 (s2 (... s_k)), together
    with the unit, span H (memoized).

    Greedy in basis order: the span V starts as span(h.unit), e_i becomes
    a generator unless it lies in V, and V is then closed under left
    multiplication by every generator.  Products are read from h.mult and
    reduced fraction-free against an echelon basis of V, so no scalar is
    inverted.  At worst every index is a generator.
    """
    return h.memo(("algebra_generators",), lambda: _generators(h))


def _generators(h: HopfPresentation) -> tuple:
    one, z = cyc(h.order, 1), h.zero_scalar()
    rows, gens = [], []  # echelon basis of V: (pivot, sparse vector)

    def add(w):
        """Reduce w against V; add the remainder, and say if it was new."""
        for p, b in rows:
            c = w.get(p)
            if c:
                w = {k: b[p] * x for k, x in w.items()}
                for k, x in b.items():
                    w[k] = w.get(k, z) - c * x
                w = {k: x for k, x in w.items() if x}
        if w:
            p = min(w)
            rows.append((p, {p: one} if len(w) == 1 else w))
        return bool(w)

    add({k: u for k, u in enumerate(h.unit) if u})
    for i in range(h.dim):
        if not add({i: one}):
            continue
        gens.append(i)
        todo = ([(i, b) for _, b in rows[:-1]]
                + [(s, rows[-1][1]) for s in gens])
        while todo:
            s, v = todo.pop()
            w = {}
            for j, c in v.items():
                for k, x in h.mult[s][j].items():
                    w[k] = w.get(k, z) + c * x
            if add({k: x for k, x in w.items() if x}):
                todo += [(t, rows[-1][1]) for t in gens]
    return tuple(gens)


def _antipode_axiom_failure(h: HopfPresentation, s: Mat, side: str):
    """The first i where s fails the left (S(x_1) x_2) or right
    (x_1 S(x_2)) antipode axiom on e_i, or None when it holds."""
    n = h.dim
    z = h.zero_scalar()
    cols = [[(t, row[j]) for t, row in enumerate(s.data) if row[j]]
            for j in range(n)]  # the nonzero (t, S[t][j]) of column j
    target = {e: tuple(e * u for u in h.unit) for e in set(h.counit)}
    for i in range(n):
        acc = [z] * n
        for (j, k), c in h.comult[i].items():
            if side == "left":  # S(e_j) e_k = sum_t S[t][j] e_t e_k
                terms = ((st, h.mult[t][k]) for t, st in cols[j])
            else:  # e_j S(e_k) = sum_t S[t][k] e_j e_t
                terms = ((st, h.mult[j][t]) for t, st in cols[k])
            for st, row in terms:
                f = c * st
                for m, x in row.items():
                    acc[m] = acc[m] + f * x
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


# -- dual and harpoons --------------------------------------------------------


def dual(h: HopfPresentation) -> HopfPresentation:
    """The dual Hopf algebra on the dual basis (transposed tensors)."""
    mult_entries = []
    for k in range(h.dim):
        for (i, j), c in h.comult[k].items():
            mult_entries.append((i, j, k, c))
    comult_entries = []
    for j in range(h.dim):
        for k in range(h.dim):
            for i, c in h.mult[j][k].items():
                comult_entries.append((i, j, k, c))
    s = h.antipode.transpose() if h.antipode is not None else None
    return HopfPresentation(
        name=f"dual({h.name})", dim=h.dim, order=h.order,
        mult_entries=mult_entries, comult_entries=comult_entries,
        unit=h.counit, counit=h.unit, antipode=s,
        basis=tuple(f"{lbl}*" for lbl in h.basis))


def harpoon_left(h: HopfPresentation, beta, a) -> tuple:
    """beta harpoon-from-left a = sum a_1 beta(a_2)."""
    beta = _coords(beta)
    z = h.zero_scalar()
    out = [z] * h.dim
    for (j, k), c in h.comult_pairs(a).items():
        if beta[k]:
            out[j] = out[j] + c * beta[k]
    return tuple(out)


def harpoon_right(h: HopfPresentation, a, beta) -> tuple:
    """a harpoon-from-right beta = sum beta(a_1) a_2."""
    beta = _coords(beta)
    z = h.zero_scalar()
    out = [z] * h.dim
    for (j, k), c in h.comult_pairs(a).items():
        if beta[j]:
            out[k] = out[k] + c * beta[j]
    return tuple(out)


# -- grouplikes ---------------------------------------------------------------


def is_grouplike(h: HopfPresentation, a) -> bool:
    """Delta(a) = a (x) a and a != 0 (which forces counit(a) = 1)."""
    a = _coords(a)
    if not any(a):
        return False
    got = h.comult_pairs(a)
    expect = {}
    for j, aj in enumerate(a):
        if aj:
            for k, ak in enumerate(a):
                if ak:
                    expect[(j, k)] = aj * ak
    return _dict_eq(got, expect)


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
    need not lie in that family.  If the characteristic polynomial of a
    state of dimension >= 2 does not split over the family,
    EigenvalueNotInField is raised, since completeness of the enumeration
    could not be certified.
    """
    return h.memo(("find_grouplikes",), lambda: _grouplike_search(h))


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


def _grouplike_search(h: HopfPresentation) -> tuple:
    """Refine states of K by T_0, T_1, ..., splitting each state w (RREF
    basis, pivots p_j, d = dim w) in its own d coordinates.

    A = T_k w^T is read from the Delta terms with left leg k, m is A on
    the pivot rows and R = A - w^T m, which is zero on the pivot rows.  For v = w^T x,
    T_k v = c v exactly when (m - c) x = 0 and R x = 0.  If the kernel X
    is in RREF with pivots q_r, so is X w, with pivots p_(q_r): row r of
    X w vanishes before column p_(q_r), is 1 there and 0 at every other
    p_(q_s).  So the new state is the canonical basis an rref would give.
    """
    n = h.dim
    z = cyc(h.order, 0)
    found = []
    by_k = [[] for _ in range(n)]
    for i in range(n):
        for (k, l), c in h.comult[i].items():
            by_k[k].append((i, l, c))
    states = [(_cocommutative_subspace(h), [])]
    for k in range(n):
        open_states = []
        for (w, assigned) in states:
            if w.dim > 1:
                open_states.append((w, assigned))
            elif w.dim == 1 and (g := _line_grouplike(h, w)) is not None:
                found.append(g)
        states = open_states
        if not states:
            break
        new_states = []
        for (w, assigned) in states:
            d, wrows = w.dim, w.basis.data
            a_mat = [[z] * d for _ in range(n)]
            for (i, l, c) in by_k[k]:
                row = a_mat[l]
                for r in range(d):
                    if wrows[r][i]:
                        row[r] = row[r] + c * wrows[r][i]
            m = Mat(h.order, [a_mat[p] for p in w.pivots], cols=d)
            chi = charpoly(m)
            roots, rem_deg = roots_in_field(chi, h.order)
            if rem_deg:
                raise EigenvalueNotInField(
                    f"operator {k}: characteristic polynomial leaves a "
                    f"degree-{rem_deg} factor unsplit over Q(zeta_{h.order})")
            wm = w.basis.transpose() @ m
            eqs = [(j, r, x) for j, row in enumerate(m.data)
                   for r, x in enumerate(row) if x]
            eqs += [(d + l, r, x - y) for l in range(n)
                    for r, (x, y) in enumerate(zip(a_mat[l], wm.data[l]))
                    if x != y]
            for (c, _mult) in roots:
                ker = null_space_of_terms(
                    h.order, d, eqs + [(j, j, -c) for j in range(d)])
                if ker.dim:
                    w2 = Subspace(h.order, n, ker.basis @ w.basis,
                                  tuple(w.pivots[j] for j in ker.pivots))
                    new_states.append((w2, assigned + [c]))
        states = new_states
    for (_w, assigned) in states:
        cand = tuple(assigned)
        if is_grouplike(h, cand):
            found.append(cand)
    found.sort(key=lambda v: tuple(map(coordinate_key, v)))
    return tuple(HopfElement(v) for v in found)


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

    mult_entries = [(i, j, k, lift(c))
                    for i in range(h.dim) for j in range(h.dim)
                    for k, c in h.mult[i][j].items()]
    comult_entries = [(i, j, k, lift(c))
                      for i in range(h.dim)
                      for (j, k), c in h.comult[i].items()]
    s = None
    if h.antipode is not None:
        s = Mat(new_order, [[lift(c) for c in row] for row in h.antipode.data],
                cols=h.dim)
    return HopfPresentation(
        name=h.name, dim=h.dim, order=new_order,
        mult_entries=mult_entries, comult_entries=comult_entries,
        unit=tuple(lift(c) for c in h.unit),
        counit=tuple(lift(c) for c in h.counit),
        antipode=s, basis=h.basis)
