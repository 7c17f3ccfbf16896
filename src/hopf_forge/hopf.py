"""Hopf algebra presentations by exact structure constants.

Conventions, fixed package-wide (most bugs in this domain are convention
slips, so they are spelled out once here):

- mult[i][j] is a sparse row {k: c} meaning  e_i e_j = sum_k c e_k.
- comult[i] is a sparse tensor {(j, k): c} meaning
  Delta(e_i) = sum c e_j (x) e_k.  Leg order is part of the data and is
  never swapped silently; delta_op is the only place legs are exchanged.
- Operator matrices act on column coordinate vectors, so column i of the
  antipode matrix holds the coordinates of S(e_i).
- Tensor squares flatten (j, k) to j * dim + k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cyclofield import CycNumber, cyc, root_of_unity
from .errors import (EigenvalueNotInField, MalformedTensor, NoAntipode,
                     OrderMismatch)
from .linalg import Mat, Subspace, charpoly, null_space, roots_in_field


@dataclass(frozen=True)
class HopfElement:
    coords: tuple

    def __iter__(self):
        return iter(self.coords)

    def __len__(self):
        return len(self.coords)


@dataclass(frozen=True)
class Functional:
    coords: tuple

    def __iter__(self):
        return iter(self.coords)

    def __len__(self):
        return len(self.coords)


def _coords(x):
    if isinstance(x, (HopfElement, Functional)):
        return x.coords
    return tuple(x)


@dataclass(frozen=True)
class AxiomChecklist:
    results: tuple  # of (name, ok, detail)

    @property
    def all_pass(self):
        return all(ok for _, ok, _ in self.results)

    def failures(self):
        return [(name, detail) for name, ok, detail in self.results if not ok]

    def as_dict(self):
        return {name: ok for name, ok, _ in self.results}


class HopfPresentation:
    """A (bi/Hopf) algebra given by structure constants over Q(zeta_N).

    Construction validates shapes and index ranges only; mathematical
    axioms are checked by check_axioms, so that deliberately broken
    presentations can be built for testing.
    """

    def __init__(self, name, dim, order, mult_entries, comult_entries,
                 unit, counit, antipode: Optional[Mat] = None, basis=None):
        self.name = name
        self.dim = dim
        self.order = order
        if dim < 1:
            raise MalformedTensor("dimension must be >= 1")
        zero = cyc(order, 0)
        mult = [[{} for _ in range(dim)] for _ in range(dim)]
        for (i, j, k, c) in mult_entries:
            self._check_scalar(c)
            if not all(0 <= t < dim for t in (i, j, k)):
                raise MalformedTensor(f"mult index out of range: {(i, j, k)}")
            if c:
                prev = mult[i][j].get(k)
                c = c if prev is None else prev + c
                if c:
                    mult[i][j][k] = c
                elif prev is not None:
                    del mult[i][j][k]
        comult = [{} for _ in range(dim)]
        for (i, j, k, c) in comult_entries:
            self._check_scalar(c)
            if not all(0 <= t < dim for t in (i, j, k)):
                raise MalformedTensor(f"comult index out of range: {(i, j, k)}")
            if c:
                prev = comult[i].get((j, k))
                c = c if prev is None else prev + c
                if c:
                    comult[i][(j, k)] = c
                elif prev is not None:
                    del comult[i][(j, k)]
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
        acc = {}
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        f = ai * bj
                        for k, c in self.mult[i][j].items():
                            acc[k] = acc.get(k, self.zero_scalar()) + f * c
        z = self.zero_scalar()
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

    def left_mult_matrix(self, a) -> Mat:
        """L_a with column j = coordinates of a * e_j."""
        a = _coords(a)
        z = self.zero_scalar()
        out = [[z] * self.dim for _ in range(self.dim)]
        for i, ai in enumerate(a):
            if ai:
                for j in range(self.dim):
                    for k, c in self.mult[i][j].items():
                        out[k][j] = out[k][j] + ai * c
        return Mat(self.order, out, cols=self.dim)

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

    def same_structure(self, other) -> bool:
        """Structure-constant equality, ignoring names and labels."""
        mine = (self.dim, self.order, self.mult, self.comult, self.unit,
                self.counit)
        theirs = (other.dim, other.order, other.mult, other.comult,
                  other.unit, other.counit)
        if mine != theirs:
            return False
        sa, sb = self.antipode, other.antipode
        if (sa is None) != (sb is None):
            return False
        return sa is None or sa == sb

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
    """
    n = h.dim
    z = h.zero_scalar()
    results = []

    def record(name, ok, detail=""):
        results.append((name, ok, detail))

    ok, detail = True, ""
    for i in range(n):
        if not ok:
            break
        for j in range(n):
            if not ok:
                break
            ij = h.mult[i][j]
            for l in range(n):
                lhs = {}
                for k, c in ij.items():
                    for m, c2 in h.mult[k][l].items():
                        lhs[m] = lhs.get(m, z) + c * c2
                rhs = {}
                for k, c in h.mult[j][l].items():
                    for m, c2 in h.mult[i][k].items():
                        rhs[m] = rhs.get(m, z) + c * c2
                if not _dict_eq(lhs, rhs):
                    ok, detail = False, f"(e{i} e{j}) e{l} != e{i} (e{j} e{l})"
                    break
    record("associativity", ok, detail)

    ok, detail = True, ""
    for j in range(n):
        ej = h.basis_element(j)
        if h.multiply(h.unit, ej) != ej or h.multiply(ej, h.unit) != ej:
            ok, detail = False, f"unit fails on e{j}"
            break
    record("unit", ok, detail)

    ok, detail = True, ""
    for i in range(n):
        lhs, rhs = {}, {}
        for (j, k), c in h.comult[i].items():
            for (a, b), c2 in h.comult[j].items():
                key = (a, b, k)
                lhs[key] = lhs.get(key, z) + c * c2
            for (a, b), c2 in h.comult[k].items():
                key = (j, a, b)
                rhs[key] = rhs.get(key, z) + c * c2
        if not _dict_eq(lhs, rhs):
            ok, detail = False, f"coassociativity fails on e{i}"
            break
    record("coassociativity", ok, detail)

    ok, detail = True, ""
    for i in range(n):
        left = [z] * n
        right = [z] * n
        for (j, k), c in h.comult[i].items():
            if h.counit[j]:
                left[k] = left[k] + h.counit[j] * c
            if h.counit[k]:
                right[j] = right[j] + h.counit[k] * c
        ei = h.basis_element(i)
        if tuple(left) != ei or tuple(right) != ei:
            ok, detail = False, f"counit fails on e{i}"
            break
    record("counit", ok, detail)

    ok, detail = True, ""
    unit_pairs = h.comult_pairs(h.unit)
    expect = {}
    for j, uj in enumerate(h.unit):
        if uj:
            for k, uk in enumerate(h.unit):
                if uk:
                    expect[(j, k)] = uj * uk
    if not _dict_eq(unit_pairs, expect):
        ok, detail = False, "Delta(1) != 1 (x) 1"
    else:
        for i in range(n):
            if not ok:
                break
            di = h.comult[i]
            for j in range(n):
                lhs = {}
                for k, c in h.mult[i][j].items():
                    for jk, c2 in h.comult[k].items():
                        lhs[jk] = lhs.get(jk, z) + c * c2
                rhs = h.tensor_square_product(di, h.comult[j])
                if not _dict_eq(lhs, rhs):
                    ok, detail = False, f"Delta not multiplicative on (e{i}, e{j})"
                    break
    record("comult-algebra-map", ok, detail)

    ok, detail = True, ""
    if h.counit_of(h.unit) != 1:
        ok, detail = False, "counit(1) != 1"
    else:
        for i in range(n):
            if not ok:
                break
            for j in range(n):
                acc = z
                for k, c in h.mult[i][j].items():
                    if h.counit[k]:
                        acc = acc + c * h.counit[k]
                if acc != h.counit[i] * h.counit[j]:
                    ok, detail = False, f"counit not multiplicative on (e{i}, e{j})"
                    break
    record("counit-algebra-map", ok, detail)

    if h.antipode is not None:
        for side in ("left", "right"):
            i = _antipode_axiom_failure(h, h.antipode, side)
            record(f"antipode-{side}", i is None,
                   "" if i is None else f"antipode {side} axiom fails on e{i}")

    return AxiomChecklist(tuple(results))


def _antipode_axiom_failure(h: HopfPresentation, s: Mat, side: str):
    """The first i where s fails the left (S(x_1) x_2) or right
    (x_1 S(x_2)) antipode axiom on e_i, or None when it holds."""
    n = h.dim
    z = h.zero_scalar()
    for i in range(n):
        acc = [z] * n
        for (j, k), c in h.comult[i].items():
            if side == "left":
                img = h.multiply(s.col(j), h.basis_element(k))
            else:
                img = h.multiply(h.basis_element(j), s.col(k))
            for t in range(n):
                if img[t]:
                    acc[t] = acc[t] + c * img[t]
        if tuple(acc) != tuple(h.counit[i] * u for u in h.unit):
            return i
    return None


# -- antipode from scratch ---------------------------------------------------


def _convolve_with_id(h: HopfPresentation, p: Mat) -> Mat:
    """(p * id)(x) = sum p(x_1) x_2, as a matrix."""
    n = h.dim
    z = h.zero_scalar()
    out = [[z] * n for _ in range(n)]
    for i in range(n):
        for (j, k), c in h.comult[i].items():
            pcol = p.col(j)
            for b, v in enumerate(pcol):
                if v:
                    f = c * v
                    for t, m in h.mult[b][k].items():
                        out[t][i] = out[t][i] + f * m
    return Mat(h.order, out, cols=n)


def compute_antipode(h: HopfPresentation) -> Mat:
    """The antipode from the bialgebra data alone.

    S is the convolution inverse of the identity map.  The convolution
    powers id^(*t) span a finite-dimensional commutative subalgebra of
    End(H); the first linear dependence among them yields a polynomial
    relation, and when it has a nonzero constant term (after stripping a
    power of the variable) it can be solved for the inverse.  The
    candidate is then verified against both antipode axioms; failure at
    any point raises NoAntipode.
    """
    n = h.dim
    z, o = cyc(h.order, 0), cyc(h.order, 1)
    # P_0 = unit . counit, P_1 = id
    p0 = Mat(h.order, [[h.unit[i] * h.counit[j] for j in range(n)]
                       for i in range(n)], cols=n)
    powers = [p0]
    echelon = []  # rows (pivot, vec, combo) over the flattened matrices

    def flat(m):
        return [x for row in m.data for x in row]

    def insert(vec, t):
        combo = [z] * t + [o]
        for (piv, rvec, rcombo) in echelon:
            f = vec[piv]
            if f:
                vec = [a - f * b for a, b in zip(vec, rvec)]
                combo = [a - f * b for a, b in
                         zip(combo + [z] * (len(rcombo) - len(combo)),
                             rcombo + [z] * (len(combo) - len(rcombo)))]
        piv = next((idx for idx, x in enumerate(vec) if x), None)
        if piv is None:
            return combo  # dependence: sum combo[s] * P_s = 0
        inv = vec[piv].inverse()
        echelon.append((piv, [x * inv for x in vec],
                        [x * inv for x in combo]))
        echelon.sort(key=lambda r: r[0])
        return None

    cur = p0
    for t in range(n * n + 2):
        dep = insert(flat(cur), t)
        if dep is not None:
            v = next(idx for idx, c in enumerate(dep) if c)
            nu = dep[v:]
            if len(nu) < 2:
                raise NoAntipode("identity map is not convolution-invertible")
            inv0 = -nu[0].inverse()
            cand = Mat.zeros(h.order, n, n)
            for u in range(1, len(nu)):
                if nu[u]:
                    cand = cand + powers[u - 1].scale(nu[u] * inv0)
            if _antipode_axiom_failure(h, cand, "left") is None and \
                    _antipode_axiom_failure(h, cand, "right") is None:
                return cand
            raise NoAntipode("identity map is not convolution-invertible")
        cur = _convolve_with_id(h, cur) if t else Mat.identity(h.order, n)
        powers.append(cur)
    raise NoAntipode("no convolution relation found (not a bialgebra?)")


# -- dual, harpoons, S powers -------------------------------------------------


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


def delta_op(h: HopfPresentation, a) -> tuple:
    """Delta^op(a) as a flat tensor-square vector (legs swapped)."""
    z = h.zero_scalar()
    out = [z] * (h.dim * h.dim)
    for (j, k), c in h.comult_pairs(a).items():
        out[k * h.dim + j] = out[k * h.dim + j] + c
    return tuple(out)


def apply_S_power(h: HopfPresentation, t: int, a) -> tuple:
    return h.s_power_matrix(t).apply(_coords(a))


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
    own coordinates.  The state space is refined one operator at a time;
    eigenvalue candidates come from characteristic polynomials, searched
    over {r zeta^t : r rational}.  If some characteristic polynomial does
    not split over that set, EigenvalueNotInField is raised, since
    completeness of the enumeration could not be certified.
    """
    return h.memo(("find_grouplikes",), lambda: _grouplike_search(h))


def _grouplike_search(h: HopfPresentation) -> tuple:
    n = h.dim
    z, o = cyc(h.order, 0), cyc(h.order, 1)
    full = Subspace.from_vectors(
        h.order, n, [h.basis_element(i) for i in range(n)])
    states = [(full, [])]
    for k in range(n):
        tk = Mat(h.order, [[h.comult[i].get((k, l), z) for i in range(n)]
                           for l in range(n)], cols=n)
        new_states = []
        for (w, assigned) in states:
            bt = w.basis.transpose()  # n x d
            a_mat = tk @ bt
            m = Mat(h.order, [a_mat.data[p] for p in w.pivots], cols=w.dim)
            chi = charpoly(m)
            roots, rem_deg = roots_in_field(chi, h.order)
            if rem_deg:
                raise EigenvalueNotInField(
                    f"operator {k}: characteristic polynomial leaves a "
                    f"degree-{rem_deg} factor unsplit over Q(zeta_{h.order})")
            for (c, _mult) in roots:
                ker = null_space(a_mat - bt.scale(c))
                if ker.dim:
                    vecs = (ker.basis @ w.basis).data
                    w2 = Subspace.from_vectors(h.order, n, vecs)
                    new_states.append((w2, assigned + [c]))
        states = new_states
        if not states:
            break
    found = []
    for (_w, assigned) in states:
        cand = tuple(assigned)
        if is_grouplike(h, cand):
            found.append(cand)
    found.sort(key=lambda v: tuple(
        (c.numerator, c.denominator) for x in v for c in x.coeffs))
    return tuple(HopfElement(v) for v in found)


def lift_order(h: HopfPresentation, new_order: int) -> HopfPresentation:
    """The same algebra presented over Q(zeta_new_order).

    new_order must be a multiple of the current order; scalars are mapped
    along zeta_old |-> zeta_new^(new/old).
    """
    from .cyclofield import lift_scalar
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
