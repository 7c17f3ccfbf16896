"""Antipode-power invariants of finite-dimensional Hopf algebras.

Everything here is exact and organized around the square of the
antipode and the distinguished grouplike g:

- index: the least n with S^(4n) = id and g^n = 1;
- the joint eigenspace decomposition H = (+) H_(a,i,j) where
  S^2 u = (-1)^a omega^i u and u g = omega^j u, for a chosen primitive
  n-th root omega;
- the block normal form of Delta(Lambda), which pairs block (a, i, j)
  with (-a, -x-i, x-j) where alpha(g) = omega^x;
- an alternating bilinear form carried by the self-paired block
  (1, -l, l) with 2l = x;
- parity and congruence facts: dim H_-, Tr(S^(2p)) = p^2 d for
  dimension-pq inputs, d odd and congruent to pq mod 4;
- the coradical, its S^(2p)-invariance, and block traces.

A failed check is a mathematical event (the input falsifies a statement
this machinery is designed to witness) and is always surfaced as a
first-class result, never absorbed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd, lcm
from typing import Optional

from .cyclofield import CycNumber, cyc, root_of_unity, scalar_to_json
from .errors import (BadParameters, IndexEven, IndexOne, NonCommuting,
                     NonSplitting, NotARootPower, NotInvariant,
                     OffPatternBlock, OrderExceedsBound, PreconditionFailed,
                     SpectrumNotPlusMinusOne)
from .hopf import HopfPresentation, find_grouplikes
from .integrals import (IntegralPair, distinguished_character,
                        distinguished_grouplike, integral_pair,
                        is_cosemisimple, is_semisimple, is_unimodular,
                        radford_trace, verify_s4_formula)
from .linalg import (Mat, Subspace, eigenspace, inverse, null_space,
                     operator_order, rref)


def _as_int(c: CycNumber) -> Optional[int]:
    r = c.as_rational()
    if r is None or r.denominator != 1:
        return None
    return int(r)


def _is_prime(m: int) -> bool:
    return m >= 2 and all(m % r for r in range(2, int(m ** 0.5) + 1))


# -- index and omega ------------------------------------------------------------


@dataclass(frozen=True)
class IndexData:
    n: int         # lcm of the two orders below
    s4_order: int  # multiplicative order of S^4
    g_order: int   # order of the distinguished grouplike


def index_bound(h: HopfPresentation) -> int:
    return 4 * h.dim * h.order


def compute_index(h: HopfPresentation,
                  pair: IntegralPair | None = None) -> IndexData:
    """Least n with S^(4n) = id and g^n = 1, as lcm of the two orders."""
    pair = pair or integral_pair(h)
    return h.memo(("compute_index", pair), lambda: _index_of(h, pair))


def _index_of(h: HopfPresentation, pair: IntegralPair) -> IndexData:
    bound = index_bound(h)
    s4_order = operator_order(h.s_power_matrix(4), bound)
    g = distinguished_grouplike(h, pair).coords
    unit = h.unit
    power = g
    g_order = 1
    while power != unit:
        power = h.multiply(power, g)
        g_order += 1
        if g_order > bound:
            raise OrderExceedsBound(
                f"distinguished grouplike order exceeds bound {bound}")
    return IndexData(n=lcm(s4_order, g_order), s4_order=s4_order,
                     g_order=g_order)


def omega_for_index(h: HopfPresentation, n: int,
                    power: int = 1) -> CycNumber:
    """A primitive n-th root of unity in the working field: zeta_n^power.

    power must be coprime to n (primitivity is then syntactic).  When
    the field contains no primitive n-th root, NonSplitting reports the
    cyclotomic order to lift to.
    """
    if n < 1 or gcd(power, n) != 1:
        raise BadParameters(
            f"omega power {power} is not coprime to the index {n}")
    if n == 1:
        return cyc(h.order, 1)
    if h.order % n == 0:
        return root_of_unity(h.order, (h.order // n) * power)
    if n == 2:
        return cyc(h.order, -1)
    raise NonSplitting(
        f"Q(zeta_{h.order}) has no primitive {n}-th root of unity; "
        f"re-present the algebra over Q(zeta_{lcm(h.order, 2 * n)})")


def _check_primitive(omega: CycNumber, n: int):
    if omega ** n != 1:
        raise BadParameters(f"omega is not an {n}-th root of unity")
    for r in range(2, n + 1):
        if n % r == 0 and omega ** (n // r) == 1:
            raise BadParameters(f"omega is an {n // r}-th root, not primitive")


def x_exponent(h: HopfPresentation, pair: IntegralPair, omega: CycNumber,
               n: int) -> int:
    """The unique x in Z_n with alpha(g) = omega^x."""
    _check_primitive(omega, n)
    g = distinguished_grouplike(h, pair)
    alpha = distinguished_character(h, pair)
    value = h.pair(alpha, g)
    acc = cyc(h.order, 1)
    for t in range(n):
        if acc == value:
            return t
        acc = acc * omega
    raise NotARootPower(
        f"alpha(g) on {h.name} is not a power of the given omega; "
        "the input is corrupted")


# -- eigenspace decomposition ----------------------------------------------------


@dataclass(eq=False)
class EigenTable:
    """Joint eigenspaces H_(a,i,j) of S^2 and right translation by g.

    spaces/dims are total maps on Z_2 x Z_n x Z_n (zero-dimensional
    blocks included).  x_exp is the exponent with alpha(g) = omega^x.
    """
    omega: CycNumber
    n: int
    x_exp: int
    spaces: dict
    dims: dict
    _cache: dict = field(default_factory=dict, repr=False)

    def labels(self):
        return sorted(self.spaces)

    def pattern_partner(self, key):
        """The label -key + (0, -x, x), i.e. the block Delta(Lambda) pairs
        with key."""
        a, i, j = key
        n = self.n
        return ((-a) % 2, (-self.x_exp - i) % n, (self.x_exp - j) % n)

    def eigen_basis(self):
        """(P, labels): column c of P is an eigenvector with label labels[c]."""
        if "basis" not in self._cache:
            cols, labels = [], []
            for key in self.labels():
                sub = self.spaces[key]
                for row in sub.basis.data:
                    cols.append(row)
                    labels.append(key)
            order = self.omega.order
            p = Mat.from_cols(order, cols, rows_n=len(cols))
            self._cache["basis"] = (p, tuple(labels))
        return self._cache["basis"]

    def eigen_basis_inverse(self):
        if "basis_inv" not in self._cache:
            self._cache["basis_inv"] = inverse(self.eigen_basis()[0])
        return self._cache["basis_inv"]

    def projection(self, key) -> Mat:
        """The projection onto H_key along the other blocks."""
        p, labels = self.eigen_basis()
        pinv = self.eigen_basis_inverse()
        idx = [c for c, lbl in enumerate(labels) if lbl == key]
        n = p.rows
        z = cyc(p.order, 0)
        if not idx:
            return Mat.zeros(p.order, n, n)
        cols = Mat.from_cols(p.order, [p.col(c) for c in idx], rows_n=n)
        rows = Mat(p.order, [pinv.data[r] for r in idx], cols=n)
        return cols @ rows


def eigen_decomposition(h: HopfPresentation, pair: IntegralPair,
                        omega: CycNumber) -> EigenTable:
    """The decomposition H = (+)_(a,i,j) H_(a,i,j); see module docstring.

    Requires odd index > 1: index 1 is rejected with IndexOne (the
    machinery degenerates), even index with IndexEven (the labels
    (-1)^a omega^i collide, so the direct sum would double count).
    """
    idx = compute_index(h, pair)
    n = idx.n
    if n == 1:
        raise IndexOne(f"{h.name} has index 1; decomposition is degenerate")
    if n % 2 == 0:
        raise IndexEven(
            f"{h.name} has even index {n}; the eigenvalue labels "
            "(-1)^a omega^i collide")
    _check_primitive(omega, n)
    x = x_exponent(h, pair, omega, n)
    g = distinguished_grouplike(h, pair)
    s2 = h.s_power_matrix(2)
    rg = h.right_mult_matrix(g)
    if s2 @ rg != rg @ s2:
        raise NonCommuting(
            f"S^2 and right translation by g do not commute on {h.name}")
    dim = h.dim
    spaces, dims = {}, {}
    total = 0
    minus_one = cyc(h.order, -1)
    for j in range(n):
        wj = eigenspace(rg, omega ** j)
        split = 0
        for a in (0, 1):
            for i in range(n):
                value = omega ** i
                if a:
                    value = value * minus_one
                if wj.dim == 0:
                    sub = Subspace.from_vectors(h.order, dim, [])
                else:
                    bt = wj.basis.transpose()
                    ker = null_space((s2 @ bt) - bt.scale(value))
                    vecs = (ker.basis @ wj.basis).data if ker.dim else []
                    sub = Subspace.from_vectors(h.order, dim, vecs)
                spaces[(a, i, j)] = sub
                dims[(a, i, j)] = sub.dim
                split += sub.dim
                total += sub.dim
        if split != wj.dim:
            raise NonSplitting(
                f"S^2 restricted to the omega^{j} translation eigenspace "
                f"of {h.name} splits only {split} of {wj.dim} dimensions; "
                f"re-present over Q(zeta_{lcm(h.order, 2 * n)})")
    if total != dim:
        raise NonSplitting(
            f"right translation by g on {h.name} is not diagonalizable "
            f"over Q(zeta_{h.order}): eigenspaces cover {total} of {dim}; "
            f"re-present over Q(zeta_{lcm(h.order, 2 * n)})")
    return EigenTable(omega=omega, n=n, x_exp=x, spaces=spaces, dims=dims)


def check_dim_symmetry(t: EigenTable):
    """dims[key] = dims[pattern partner of key]; (ok, first witness)."""
    for key in t.labels():
        partner = t.pattern_partner(key)
        if t.dims[key] != t.dims[partner]:
            return False, (key, partner, t.dims[key], t.dims[partner])
    return True, None


# -- normal form of Delta(Lambda) ------------------------------------------------


@dataclass(eq=False)
class NormalForm:
    """Blocks of Delta(Lambda): components[key] is the part of
    Delta(Lambda) lying in H_key (x) H_(partner of key), as a flat
    tensor-square vector (row-major over (leg1, leg2))."""
    x_vec: tuple
    components: dict
    labels: tuple       # eigen-coordinate column -> (a, i, j)
    p_mat: Mat
    p_inv: Mat
    cprime: Mat         # Delta(Lambda) in eigen coordinates

    def reconstruction(self, h: HopfPresentation) -> tuple:
        z = cyc(self.p_mat.order, 0)
        total = [z] * (h.dim * h.dim)
        for vec in self.components.values():
            total = [acc + v for acc, v in zip(total, vec)]
        return tuple(total)


def normal_form(h: HopfPresentation, pair: IntegralPair,
                t: EigenTable) -> NormalForm:
    """Split Delta(Lambda) into its eigen blocks and verify the pairing.

    Every nonzero block must couple label key with pattern_partner(key);
    an entry outside that pattern raises OffPatternBlock, carrying the
    offending label pair.
    """
    p, labels = t.eigen_basis()
    pinv = t.eigen_basis_inverse()
    c = h.comult_matrix(pair.integral.coords)
    cprime = (pinv @ c) @ pinv.transpose()
    n = h.dim
    for r in range(n):
        for s in range(n):
            if cprime.data[r][s] and labels[s] != t.pattern_partner(labels[r]):
                raise OffPatternBlock(
                    f"Delta(Lambda) on {h.name} has a nonzero block "
                    f"{labels[r]} (x) {labels[s]}; expected partner "
                    f"{t.pattern_partner(labels[r])}")
    z = cyc(h.order, 0)
    components = {}
    for key in t.labels():
        rows = [r for r, lbl in enumerate(labels) if lbl == key]
        partner = t.pattern_partner(key)
        cols = [s for s, lbl in enumerate(labels) if lbl == partner]
        flat = [z] * (n * n)
        nonzero = False
        for r in rows:
            for s in cols:
                coef = cprime.data[r][s]
                if not coef:
                    continue
                nonzero = True
                u = p.col(r)
                v = p.col(s)
                for j, uj in enumerate(u):
                    if uj:
                        f = coef * uj
                        base = j * n
                        for k, vk in enumerate(v):
                            if vk:
                                flat[base + k] = flat[base + k] + f * vk
        if nonzero:
            components[key] = tuple(flat)
    x = t.x_exp
    return NormalForm(x_vec=(0, (-x) % t.n, x % t.n), components=components,
                      labels=labels, p_mat=p, p_inv=pinv, cprime=cprime)


def projection_traces(t: EigenTable, pair: IntegralPair) -> dict:
    """Tr of each block projection, by matrix trace and by trace formula.

    Returns {label: (direct, via_formula)}; both must equal dims[label]
    for genuine inputs, and the caller is expected to compare.
    """
    h = pair.presentation
    out = {}
    for key in t.labels():
        e = t.projection(key)
        out[key] = (e.trace(), radford_trace(h, e, pair, variant=1))
    return out


# -- alternating form (self-paired block) ----------------------------------------


@dataclass(frozen=True)
class AlternatingFormReport:
    ell: int
    global_rank: int
    global_full_rank: bool
    v_dim: int
    v_dim_even: bool
    alternating_ok: bool
    nondegenerate_on_v: bool
    delta_op_ok: bool
    delta_op_witness: Optional[tuple]


def alternating_form_check(h: HopfPresentation, pair: IntegralPair,
                           t: EigenTable, ell: int | None = None,
                           nf: NormalForm | None = None
                           ) -> AlternatingFormReport:
    """The bilinear form (f, h) = (f (x) h)(Delta(Lambda)) on the dual.

    Checks: the global Gram matrix (which is exactly the coefficient
    matrix of Delta(Lambda)) has full rank; the block of the form dual
    to H_(1,-l,l) (the unique self-paired block, 2l = x) is alternating
    and non-degenerate, forcing even dimension; and the twisted
    expansion of Delta^op(Lambda): in eigen coordinates the (r, s) entry
    of the Delta^op Gram equals (-1)^a omega^(-i-j) times the Delta
    Gram entry, where (a, i, j) labels row r.
    """
    n = t.n
    if n == 1:
        raise IndexOne("alternating form needs index > 1")
    if n % 2 == 0:
        raise IndexEven("alternating form needs odd index")
    if ell is None:
        ell = (t.x_exp * (n + 1) // 2) % n
    if (2 * ell - t.x_exp) % n != 0:
        raise BadParameters(f"2*{ell} is not {t.x_exp} mod {n}")
    if nf is None:
        nf = normal_form(h, pair, t)
    c = h.comult_matrix(pair.integral.coords)
    _, rank, _ = rref(c)
    labels = nf.labels
    vkey = (1, (-ell) % n, ell % n)
    vidx = [r for r, lbl in enumerate(labels) if lbl == vkey]
    vdim = len(vidx)
    block = [[nf.cprime.data[r][s] for s in vidx] for r in vidx]
    alternating = all(not block[i][i] for i in range(vdim)) and all(
        block[i][j] == -block[j][i]
        for i in range(vdim) for j in range(vdim))
    if vdim:
        _, vrank, _ = rref(Mat(h.order, block, cols=vdim))
        nondeg = vrank == vdim
    else:
        nondeg = True
    # Delta^op Gram in eigen coordinates is the transpose of the Delta one
    cop_prime = nf.cprime.transpose()
    delta_op_ok, witness = True, None
    minus_one = cyc(h.order, -1)
    for r in range(h.dim):
        a, i, j = labels[r]
        factor = t.omega ** ((-i - j) % n)
        if a:
            factor = factor * minus_one
        for s in range(h.dim):
            if cop_prime.data[r][s] != factor * nf.cprime.data[r][s]:
                delta_op_ok, witness = False, (labels[r], labels[s])
                break
        if not delta_op_ok:
            break
    return AlternatingFormReport(
        ell=ell, global_rank=rank, global_full_rank=(rank == h.dim),
        v_dim=vdim, v_dim_even=(vdim % 2 == 0), alternating_ok=alternating,
        nondegenerate_on_v=nondeg, delta_op_ok=delta_op_ok,
        delta_op_witness=witness)


# -- parity and congruence -------------------------------------------------------


def h_plus_minus(h: HopfPresentation, pair: IntegralPair, n: int):
    """(dim H_+, dim H_-) for the involution-like S^(2n).

    The two eigenspaces (+1, -1) must exhaust H; anything else means
    S^(4n) != id and raises SpectrumNotPlusMinusOne.
    """
    m = h.s_power_matrix(2 * n)
    plus = eigenspace(m, cyc(h.order, 1))
    minus = eigenspace(m, cyc(h.order, -1))
    if plus.dim + minus.dim != h.dim:
        raise SpectrumNotPlusMinusOne(
            f"S^(2*{n}) on {h.name} has spectrum beyond +1/-1 "
            f"({plus.dim} + {minus.dim} != {h.dim})")
    return plus.dim, minus.dim


@dataclass(frozen=True)
class TraceCongruence:
    trace: int
    d: Optional[int]
    congruence_ok: bool
    routes_agree: bool
    p2_divisible: bool
    d_odd: bool
    h_minus_formula_ok: bool
    dim_h_plus: int
    dim_h_minus: int


def trace_s2p_report(h: HopfPresentation, pair: IntegralPair, p: int,
                     q: int) -> TraceCongruence:
    """Tr(S^(2p)) = p^2 d with d odd, d = pq mod 4, dim H_- = p(q-pd)/2.

    Preconditions (PreconditionFailed otherwise): dim H = p*q with p, q
    odd primes, H non-semisimple, and index exactly p.  The trace is
    computed three ways (matrix power, trace formula, dim H_+ - dim H_-)
    and all findings are reported as booleans rather than exceptions:
    a False is a mathematical event, not a usage error.
    """
    if not (_is_prime(p) and _is_prime(q) and p % 2 and q % 2):
        raise PreconditionFailed(f"p = {p}, q = {q} must be odd primes")
    if h.dim != p * q:
        raise PreconditionFailed(
            f"dim {h.dim} is not p*q = {p * q}")
    if is_semisimple(h):
        raise PreconditionFailed(f"{h.name} is semisimple")
    idx = compute_index(h, pair).n
    if idx != p:
        raise PreconditionFailed(f"index of {h.name} is {idx}, not p = {p}")
    m = h.s_power_matrix(2 * p)
    direct = m.trace()
    via_formula = radford_trace(h, m, pair, variant=1)
    hp, hm = h_plus_minus(h, pair, p)
    trace_int = _as_int(direct)
    routes_agree = (direct == via_formula and trace_int is not None
                    and trace_int == hp - hm)
    d = None
    p2_divisible = trace_int is not None and trace_int % (p * p) == 0
    if p2_divisible:
        d = trace_int // (p * p)
    d_odd = d is not None and d % 2 == 1
    congruence_ok = d is not None and (d - p * q) % 4 == 0
    h_minus_ok = d is not None and 2 * hm == p * (q - p * d)
    return TraceCongruence(
        trace=trace_int if trace_int is not None else 0, d=d,
        congruence_ok=congruence_ok, routes_agree=routes_agree,
        p2_divisible=p2_divisible, d_odd=d_odd,
        h_minus_formula_ok=h_minus_ok, dim_h_plus=hp, dim_h_minus=hm)


@dataclass(frozen=True)
class Lemma24Result:
    d: int
    difference_ok: bool
    difference_witness: Optional[tuple]
    j_independence_ok: Optional[bool]   # None when alpha = counit (skipped)
    j_independence_witness: Optional[tuple]


def lemma24_check(t: EigenTable, d: int, pair: IntegralPair) -> Lemma24Result:
    """dim H_(0,i,j) - dim H_(1,i,j) = d, and j-independence of dims.

    The difference identity needs g nontrivial (PreconditionFailed
    otherwise); the j-independence identity additionally needs
    alpha != counit and is reported as None (skipped) when alpha is
    trivial.
    """
    h = pair.presentation
    g = distinguished_grouplike(h, pair)
    if tuple(g.coords) == tuple(h.unit):
        raise PreconditionFailed(
            f"distinguished grouplike of {h.name} is trivial")
    n = t.n
    diff_ok, diff_wit = True, None
    for i in range(n):
        for j in range(n):
            if t.dims[(0, i, j)] - t.dims[(1, i, j)] != d:
                diff_ok, diff_wit = False, (i, j)
                break
        if not diff_ok:
            break
    alpha = distinguished_character(h, pair)
    if tuple(alpha.coords) == tuple(h.counit):
        return Lemma24Result(d, diff_ok, diff_wit, None, None)
    j_ok, j_wit = True, None
    for a in (0, 1):
        for i in range(n):
            base = t.dims[(a, i, 0)]
            for j in range(1, n):
                if t.dims[(a, i, j)] != base:
                    j_ok, j_wit = False, (a, i, j)
                    break
    return Lemma24Result(d, diff_ok, diff_wit, j_ok, j_wit)


# -- coradical --------------------------------------------------------------------


def coradical(h: HopfPresentation) -> Subspace:
    """The coradical as the annihilator of the radical of H*.

    The Jacobson radical of the dual algebra is computed as the radical
    of the trace form T(beta, gamma) = Tr(L_beta L_gamma) of the regular
    representation (valid in characteristic zero); the coradical is the
    subspace of H annihilated by it.
    """
    return h.memo(("coradical",), lambda: _annihilator_of_radical(h))


def _annihilator_of_radical(h: HopfPresentation) -> Subspace:
    n = h.dim
    z = h.zero_scalar()
    # left multiplication in the dual: L_i[(k, j)] = comult[k][(i, j)]
    lmats = [dict() for _ in range(n)]
    for k in range(n):
        for (i, j), c in h.comult[k].items():
            lmats[i][(k, j)] = c
    tform = [[z] * n for _ in range(n)]
    for i in range(n):
        li = lmats[i]
        for j in range(n):
            lj = lmats[j]
            acc = z
            for (k, l), c in li.items():
                c2 = lj.get((l, k))
                if c2:
                    acc = acc + c * c2
            tform[i][j] = acc
    radical = null_space(Mat(h.order, tform, cols=n))
    if radical.dim == 0:
        return Subspace.from_vectors(
            h.order, n, [h.basis_element(i) for i in range(n)])
    return null_space(radical.basis)


def coradical_is_subcoalgebra(h: HopfPresentation, c: Subspace) -> bool:
    """Delta(C) lies in C (x) C (checked on both legs)."""
    for vec in c.basis.data:
        m = h.comult_matrix(vec)
        for k in range(h.dim):
            if c.coords_of(m.col(k)) is None:
                return False
        for row in m.data:
            if c.coords_of(row) is None:
                return False
    return True


@dataclass(frozen=True)
class CoradicalTraces:
    trace_on_c: CycNumber
    trace_on_quotient: CycNumber
    additivity_ok: bool
    pointed: bool
    inequality_ok: bool


def coradical_traces(h: HopfPresentation, c: Subspace,
                     p: int) -> CoradicalTraces:
    """Block traces of S^(2p) over the coradical and its complement.

    The coradical must be S^(2p)-invariant (NotInvariant otherwise).
    The quotient trace is read from the complementary diagonal block
    after completing the coradical basis with unit vectors at its
    non-pivot coordinates.  pointed records dim C = #grouplikes;
    inequality_ok records Tr(S^(2p)|_C) >= p.
    """
    m = h.s_power_matrix(2 * p)
    for vec in c.basis.data:
        if c.coords_of(m.apply(vec)) is None:
            raise NotInvariant(
                f"coradical of {h.name} is not S^(2*{p})-invariant")
    n = h.dim
    comp = [t for t in range(n) if t not in c.pivots]
    cols = [list(row) for row in c.basis.data] + \
           [h.basis_element(t) for t in comp]
    q = Mat.from_cols(h.order, cols, rows_n=n)
    mprime = inverse(q) @ m @ q
    d = c.dim
    z = h.zero_scalar()
    on_c = sum((mprime.data[i][i] for i in range(d)), z)
    on_quot = sum((mprime.data[i][i] for i in range(d, n)), z)
    additivity = (on_c + on_quot) == m.trace()
    pointed = c.dim == len(find_grouplikes(h))
    tc = _as_int(on_c)
    inequality = tc is not None and tc >= p
    return CoradicalTraces(trace_on_c=on_c, trace_on_quotient=on_quot,
                           additivity_ok=additivity, pointed=pointed,
                           inequality_ok=inequality)


# -- the aggregated report ---------------------------------------------------------


CHECK_TAGS = (
    "thm1.2:trace-variants",
    "eq1:s4-formula",
    "eq2:eigen-partition",
    "sec2:dim-symmetry",
    "lem2.4:dim-difference",
    "lem2.4:j-independence",
    "eq3:normal-form-pattern",
    "eq3:reconstruction",
    "eq3:projection-traces",
    "lem3.1:global-form-rank",
    "lem3.1:alternating-even",
    "lem3.1:delta-op-expansion",
    "cor3.2:h-minus-even",
    "thm2.2:trace-p2d",
    "thm3.3:congruence-mod4",
    "thm3.3:h-minus-formula",
    "thm3.4:coradical-dim-geq-p",
    "thm3.4:trace-additivity",
    "thm3.4:trace-on-coradical-geq-p",
)

_REPORT_SEED = 94111  # fixed: reports must be byte-stable across runs


@dataclass(eq=False)
class InvariantReport:
    name: str
    dim: int
    order: int
    omega_power: int
    semisimple: bool
    cosemisimple: bool
    unimodular: bool
    index: IndexData
    x_exp: Optional[int]
    dims: Optional[dict]
    dim_h_plus: int
    dim_h_minus: int
    trace_s2p: Optional[int]
    d: Optional[int]
    congruence_mod4_ok: Optional[bool]
    coradical_dim: int
    trace_s2p_on_c: CycNumber
    trace_s2p_on_quotient: CycNumber
    pointed: bool
    grouplike_count: int
    checks: list  # of (tag, status, detail)

    @property
    def all_ok(self) -> bool:
        return all(status != "fail" for _, status, _ in self.checks)

    def to_document(self) -> dict:
        doc = {
            "name": self.name,
            "dim": self.dim,
            "cyclotomic_order": self.order,
            "omega_power": self.omega_power,
            "semisimple": self.semisimple,
            "cosemisimple": self.cosemisimple,
            "unimodular": self.unimodular,
            "index": {"n": self.index.n, "s4_order": self.index.s4_order,
                      "g_order": self.index.g_order},
            "x_exponent": self.x_exp,
            "eigen_dims": (
                {f"{a},{i},{j}": d
                 for (a, i, j), d in sorted(self.dims.items())}
                if self.dims is not None else None),
            "dim_h_plus": self.dim_h_plus,
            "dim_h_minus": self.dim_h_minus,
            "trace_s2p": self.trace_s2p,
            "d": self.d,
            "congruence_mod4_ok": self.congruence_mod4_ok,
            "coradical_dim": self.coradical_dim,
            "trace_s2p_on_coradical": scalar_to_json(self.trace_s2p_on_c),
            "trace_s2p_on_quotient": scalar_to_json(
                self.trace_s2p_on_quotient),
            "pointed": self.pointed,
            "grouplike_count": self.grouplike_count,
            "checks": [
                {"tag": tag, "status": status, "detail": detail}
                for (tag, status, detail) in self.checks],
            "all_ok": self.all_ok,
        }
        return doc


def _factor_pq(dim: int):
    """(p, q) with dim = p*q, p <= q odd primes, or None."""
    for p in range(3, int(dim ** 0.5) + 1, 2):
        if dim % p == 0 and _is_prime(p):
            q = dim // p
            if q % 2 and _is_prime(q):
                return p, q
    return None


def build_report(h: HopfPresentation, omega_power: int = 1,
                 selected: Optional[list] = None,
                 trace_samples: int = 5) -> InvariantReport:
    """Run every applicable named check on one presentation.

    selected filters the emitted checks by tag prefix (e.g. "lem3.1" or
    the full tag); unselected checks are neither run nor reported,
    except that their prerequisite data (integrals, index) is always
    computed.  Sampling for the trace-variant check uses a fixed seed so
    that two runs on the same input are byte-identical.
    """
    pair = integral_pair(h)
    semi = is_semisimple(h)
    cosemi = is_cosemisimple(h)
    unimod = is_unimodular(h)
    idx = compute_index(h, pair)
    n = idx.n

    def want(tag):
        if selected is None:
            return True
        return any(tag == s or tag.startswith(s.rstrip(":") + ":")
                   for s in selected)

    checks = []

    def record(tag, status, detail=""):
        if want(tag):
            checks.append((tag, status, detail))

    rng = random.Random(_REPORT_SEED + h.dim * 7919 + h.order)
    if want("thm1.2:trace-variants"):
        ok, detail = True, ""
        for _ in range(trace_samples):
            f = Mat(h.order,
                    [[cyc(h.order, rng.randint(-3, 3))
                      for _ in range(h.dim)] for _ in range(h.dim)],
                    cols=h.dim)
            want_tr = f.trace()
            for variant in (1, 2, 3):
                got = radford_trace(h, f, pair, variant)
                if got != want_tr:
                    ok, detail = False, f"variant {variant} disagrees"
                    break
            if not ok:
                break
        record("thm1.2:trace-variants", "pass" if ok else "fail", detail)

    if want("eq1:s4-formula"):
        record("eq1:s4-formula",
               "pass" if verify_s4_formula(h, pair) else "fail")

    # trace congruences first: their d (when available) feeds lemma 2.4
    pq = _factor_pq(h.dim)
    tc = None
    trace_skip = None
    if pq is None:
        trace_skip = "skipped:NotPQ"
    elif semi:
        trace_skip = "skipped:Semisimple"
    elif n not in pq:
        trace_skip = "skipped:IndexNotP"
    else:
        p, q = (pq if n == pq[0] else (pq[1], pq[0]))
        tc = trace_s2p_report(h, pair, p, q)

    table = None
    nf = None
    x_exp = None
    off_pattern = None
    skip_reason = None
    if n == 1:
        skip_reason = "skipped:IndexOne"
    elif n % 2 == 0:
        skip_reason = "skipped:IndexEven"
    else:
        omega = omega_for_index(h, n, omega_power)
        table = eigen_decomposition(h, pair, omega)
        x_exp = table.x_exp
        try:
            nf = normal_form(h, pair, table)
        except OffPatternBlock as exc:
            off_pattern = str(exc)

    decomposition_tags = (
        "eq2:eigen-partition", "sec2:dim-symmetry",
        "lem2.4:dim-difference", "lem2.4:j-independence",
        "eq3:normal-form-pattern", "eq3:reconstruction",
        "eq3:projection-traces", "lem3.1:global-form-rank",
        "lem3.1:alternating-even", "lem3.1:delta-op-expansion")
    if table is None:
        for tag in decomposition_tags:
            record(tag, skip_reason)
    else:
        record("eq2:eigen-partition",
               "pass" if sum(table.dims.values()) == h.dim else "fail")
        sym_ok, witness = check_dim_symmetry(table)
        record("sec2:dim-symmetry", "pass" if sym_ok else "fail",
               "" if sym_ok else f"witness {witness}")
        d_for_24 = (tc.d if tc is not None and tc.d is not None
                    else table.dims[(0, 0, 0)] - table.dims[(1, 0, 0)])
        try:
            l24 = lemma24_check(table, d_for_24, pair)
            record("lem2.4:dim-difference",
                   "pass" if l24.difference_ok else "fail",
                   f"d = {l24.d}" if l24.difference_ok
                   else f"witness {l24.difference_witness}")
            if l24.j_independence_ok is None:
                record("lem2.4:j-independence", "skipped:AlphaTrivial")
            else:
                record("lem2.4:j-independence",
                       "pass" if l24.j_independence_ok else "fail",
                       "" if l24.j_independence_ok
                       else f"witness {l24.j_independence_witness}")
        except PreconditionFailed as exc:
            record("lem2.4:dim-difference", "skipped:GTrivial", str(exc))
            record("lem2.4:j-independence", "skipped:GTrivial", str(exc))
        record("eq3:normal-form-pattern",
               "pass" if off_pattern is None else "fail",
               off_pattern or "")
        if nf is None:
            for tag in ("eq3:reconstruction", "eq3:projection-traces",
                        "lem3.1:global-form-rank", "lem3.1:alternating-even",
                        "lem3.1:delta-op-expansion"):
                record(tag, "skipped:OffPatternBlock")
        else:
            if want("eq3:reconstruction"):
                target = [cyc(h.order, 0)] * (h.dim * h.dim)
                for (j, k), c in h.comult_pairs(pair.integral.coords).items():
                    target[j * h.dim + k] = c
                ok = nf.reconstruction(h) == tuple(target)
                record("eq3:reconstruction", "pass" if ok else "fail")
            if want("eq3:projection-traces"):
                traces = projection_traces(table, pair)
                bad = [key for key, (direct, via) in traces.items()
                       if _as_int(direct) != table.dims[key]
                       or _as_int(via) != table.dims[key]]
                record("eq3:projection-traces",
                       "pass" if not bad else "fail",
                       "" if not bad else f"witness {sorted(bad)[0]}")
            if want("lem3.1:global-form-rank") or \
                    want("lem3.1:alternating-even") or \
                    want("lem3.1:delta-op-expansion"):
                alt = alternating_form_check(h, pair, table, nf=nf)
                record("lem3.1:global-form-rank",
                       "pass" if alt.global_full_rank else "fail",
                       f"rank {alt.global_rank} of {h.dim}")
                alt_ok = (alt.alternating_ok and alt.v_dim_even
                          and alt.nondegenerate_on_v)
                record("lem3.1:alternating-even",
                       "pass" if alt_ok else "fail",
                       f"dim V = {alt.v_dim}")
                record("lem3.1:delta-op-expansion",
                       "pass" if alt.delta_op_ok else "fail",
                       "" if alt.delta_op_ok
                       else f"witness {alt.delta_op_witness}")

    hp, hm = h_plus_minus(h, pair, n)
    if want("cor3.2:h-minus-even"):
        record("cor3.2:h-minus-even", "pass" if hm % 2 == 0 else "fail",
               f"dim H_- = {hm}")

    if tc is None:
        for tag in ("thm2.2:trace-p2d", "thm3.3:congruence-mod4",
                    "thm3.3:h-minus-formula"):
            record(tag, trace_skip)
    else:
        ok22 = tc.routes_agree and tc.p2_divisible and tc.d_odd
        record("thm2.2:trace-p2d", "pass" if ok22 else "fail",
               f"trace {tc.trace}, d = {tc.d}")
        record("thm3.3:congruence-mod4",
               "pass" if tc.congruence_ok else "fail",
               f"d = {tc.d}")
        record("thm3.3:h-minus-formula",
               "pass" if tc.h_minus_formula_ok else "fail",
               f"dim H_- = {tc.dim_h_minus}")

    cora = coradical(h)
    corat = coradical_traces(h, cora, n)
    if n == 1 or semi:
        reason = "skipped:IndexOne" if n == 1 else "skipped:Semisimple"
        dim_geq_p = on_c_geq_p = (reason,)
    else:
        dim_geq_p = ("pass" if cora.dim >= n else "fail",
                     f"dim C = {cora.dim}, p = {n}")
        on_c_geq_p = ("pass" if corat.inequality_ok else "fail",
                      f"Tr on C = {_as_int(corat.trace_on_c)}, p = {n}")
    record("thm3.4:coradical-dim-geq-p", *dim_geq_p)
    record("thm3.4:trace-additivity",
           "pass" if corat.additivity_ok else "fail")
    record("thm3.4:trace-on-coradical-geq-p", *on_c_geq_p)

    return InvariantReport(
        name=h.name, dim=h.dim, order=h.order, omega_power=omega_power,
        semisimple=semi, cosemisimple=cosemi, unimodular=unimod,
        index=idx, x_exp=x_exp,
        dims=table.dims if table is not None else None,
        dim_h_plus=hp, dim_h_minus=hm,
        trace_s2p=tc.trace if tc is not None else None,
        d=tc.d if tc is not None else None,
        congruence_mod4_ok=tc.congruence_ok if tc is not None else None,
        coradical_dim=cora.dim,
        trace_s2p_on_c=corat.trace_on_c,
        trace_s2p_on_quotient=corat.trace_on_quotient,
        pointed=corat.pointed,
        grouplike_count=len(find_grouplikes(h)),
        checks=checks)
