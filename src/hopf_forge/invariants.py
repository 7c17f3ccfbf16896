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

from collections import namedtuple
from math import gcd, lcm

from .cyclofield import CycNumber, cyc, root_of_unity, scalar_to_json
from .errors import (BadParameters, IndexEven, IndexOne, NonCommuting,
                     NonSplitting, NotARootPower, NotInvariant,
                     OffPatternBlock, OrderExceedsBound, PreconditionFailed,
                     SpectrumNotPlusMinusOne)
from .hopf import HopfPresentation, find_grouplikes
from .integrals import (distinguished_character, distinguished_grouplike,
                        integral_coproduct, integral_pair, is_cosemisimple,
                        is_semisimple, is_unimodular, radford_trace,
                        trace_form, verify_s4_formula)
from .linalg import (Mat, Subspace, eigenspace, inverse, null_space,
                     operator_order, restrict_operator, rref)


def _as_int(c: CycNumber) -> int | None:
    r = c.as_rational()
    return int(r) if r is not None and r.denominator == 1 else None


def _is_prime(m: int) -> bool:
    return m >= 2 and all(m % r for r in range(2, int(m ** 0.5) + 1))


# -- index and omega ------------------------------------------------------------


IndexData = namedtuple("IndexData", "n s4_order g_order")
IndexData.__doc__ = """n is the lcm of s4_order, the multiplicative order of
S^4, and g_order, the order of the distinguished grouplike."""


def index_bound(h: HopfPresentation) -> int:
    return 4 * h.dim * h.order


def compute_index(h: HopfPresentation) -> IndexData:
    """Least n with S^(4n) = id and g^n = 1, as lcm of the two orders."""
    return h.memo(("compute_index",), lambda: _index_of(h))


def _index_of(h: HopfPresentation) -> IndexData:
    bound = index_bound(h)
    s4_order = operator_order(h.s_power_matrix(4), bound)
    g = distinguished_grouplike(h).coords
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
    _check_coprime(power, n)
    if n == 1:
        return cyc(h.order, 1)
    if h.order % n == 0:
        return root_of_unity(h.order, (h.order // n) * power)
    if n == 2:
        return cyc(h.order, -1)
    raise NonSplitting(
        f"Q(zeta_{h.order}) has no primitive {n}-th root of unity; "
        f"re-present the algebra over Q(zeta_{lcm(h.order, 2 * n)})")


def _check_coprime(power: int, n: int):
    if n < 1 or gcd(power, n) != 1:
        raise BadParameters(
            f"omega power {power} is not coprime to the index {n}")


def _check_primitive(omega: CycNumber, n: int):
    if omega ** n != 1:
        raise BadParameters(f"omega is not an {n}-th root of unity")
    for r in range(2, n + 1):
        if n % r == 0 and omega ** (n // r) == 1:
            raise BadParameters(f"omega is an {n // r}-th root, not primitive")


def x_exponent(h: HopfPresentation, omega: CycNumber, n: int) -> int:
    """The unique x in Z_n with alpha(g) = omega^x."""
    _check_primitive(omega, n)
    g = distinguished_grouplike(h)
    alpha = distinguished_character(h)
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


class EigenTable:
    """Joint eigenspaces H_(a,i,j) of S^2 and right translation by g.

    spaces/dims are total maps on Z_2 x Z_n x Z_n (zero-dimensional
    blocks included).  x_exp is the exponent with alpha(g) = omega^x.
    """

    def __init__(self, omega, n, x_exp, spaces, dims, _cache=None):
        self.omega = omega
        self.n = n
        self.x_exp = x_exp
        self.spaces = spaces
        self.dims = dims
        self._cache = {} if _cache is None else _cache

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


def eigen_decomposition(h: HopfPresentation, omega: CycNumber) -> EigenTable:
    """The decomposition H = (+)_(a,i,j) H_(a,i,j); see module docstring.

    Requires odd index > 1: index 1 is rejected with IndexOne (the
    machinery degenerates), even index with IndexEven (the labels
    (-1)^a omega^i collide, so the direct sum would double count).
    """
    idx = compute_index(h)
    n = idx.n
    if n == 1:
        raise IndexOne(f"{h.name} has index 1; decomposition is degenerate")
    if n % 2 == 0:
        raise IndexEven(
            f"{h.name} has even index {n}; the eigenvalue labels "
            "(-1)^a omega^i collide")
    x = x_exponent(h, omega, n)
    g = distinguished_grouplike(h)
    s2 = h.s_power_matrix(2)
    rg = h.right_mult_matrix(g)
    if s2 @ rg != rg @ s2:
        raise NonCommuting(
            f"S^2 and right translation by g do not commute on {h.name}")
    dim = h.dim
    spaces, dims = {}, {}
    total = 0
    for j in range(n):
        wj = eigenspace(rg, omega ** j)
        # S^2 commutes with rg, so it preserves wj: split it there
        local = restrict_operator(s2, wj)
        split = 0
        for a in (0, 1):
            for i in range(n):
                value = -omega ** i if a else omega ** i
                ker = eigenspace(local, value)
                sub = Subspace.from_vectors(
                    h.order, dim, (ker.basis @ wj.basis).data)
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


class NormalForm(namedtuple("NormalForm",
                            "x_vec components labels p_mat p_inv cprime")):
    """Blocks of Delta(Lambda): components[key] is the part of
    Delta(Lambda) lying in H_key (x) H_(partner of key), as a sparse
    {(leg1, leg2): coefficient} map.  labels[c] is the (a, i, j) of
    eigen-coordinate column c, and cprime is Delta(Lambda) in eigen
    coordinates."""
    __slots__ = ()

    def reconstruction(self, h: HopfPresentation) -> tuple:
        """The sum of the components as a flat tensor-square vector
        (row-major over (leg1, leg2))."""
        total = [h.zero_scalar()] * (h.dim * h.dim)
        for part in self.components.values():
            for (j, k), c in part.items():
                total[j * h.dim + k] = total[j * h.dim + k] + c
        return tuple(total)


def _nonzero_cols(m: Mat) -> list:
    """[(row, entry) for each nonzero entry] of every column of m."""
    return [[(r, x) for r, x in enumerate(col) if x] for col in zip(*m.data)]


def normal_form(h: HopfPresentation, t: EigenTable) -> NormalForm:
    """Split Delta(Lambda) into its eigen blocks and verify the pairing.

    Every nonzero block must couple label key with pattern_partner(key);
    an entry outside that pattern raises OffPatternBlock, carrying the
    offending label pair.  Delta(Lambda) in eigen coordinates,
    Pinv C Pinv^T, is summed over the terms of C and the nonzero entries
    of the Pinv columns they meet.
    """
    p, labels = t.eigen_basis()
    pinv = t.eigen_basis_inverse()
    z = h.zero_scalar()
    pinv_cols = _nonzero_cols(pinv)
    entries = {}
    for k, col in enumerate(_nonzero_cols(integral_coproduct(h))):
        for j, c in col:  # the nonzero C[j][k]
            for r, u in pinv_cols[j]:
                f = u * c
                for s, v in pinv_cols[k]:
                    entries[(r, s)] = entries.get((r, s), z) + f * v
    n = h.dim
    rows = [[z] * n for _ in range(n)]
    p_cols = _nonzero_cols(p)
    components = {}
    for (r, s), coef in sorted(entries.items()):
        if not coef:
            continue
        if labels[s] != t.pattern_partner(labels[r]):
            raise OffPatternBlock(
                f"Delta(Lambda) on {h.name} has a nonzero block "
                f"{labels[r]} (x) {labels[s]}; expected partner "
                f"{t.pattern_partner(labels[r])}")
        rows[r][s] = coef
        part = components.setdefault(labels[r], {})
        for j, u in p_cols[r]:
            f = coef * u
            for k, v in p_cols[s]:
                part[(j, k)] = part.get((j, k), z) + f * v
    x = t.x_exp
    return NormalForm(x_vec=(0, (-x) % t.n, x % t.n), components=components,
                      labels=labels, p_mat=p, p_inv=pinv,
                      cprime=Mat(h.order, rows, cols=n))


def projection_traces(h: HopfPresentation, t: EigenTable) -> dict:
    """Tr of each block projection, by matrix trace and by trace formula.

    The projection onto H_key along the other blocks is the sum of
    P[:, c] Pinv[c] over the key's eigenvectors c.  Its matrix trace is
    therefore the sum of (Pinv P)[c][c], and its formula trace, Tr(G1 E)
    with G1 = trace_form(h, 1), the sum of (Pinv G1 P)[c][c]; only
    these two diagonals are formed.

    Returns {label: (direct, via_formula)}; both must equal dims[label]
    for genuine inputs, and the caller is expected to compare.
    """
    p, labels = t.eigen_basis()
    pinv = t.eigen_basis_inverse()
    z = h.zero_scalar()

    def diagonal(m):  # (Pinv m)[c][c] for every c
        return [sum((x * y for x, y in zip(pinv.data[c], col) if x and y), z)
                for c, col in enumerate(zip(*m.data))]

    out = {key: (z, z) for key in t.labels()}
    for key, direct, formula in zip(labels, diagonal(p),
                                    diagonal(trace_form(h, 1) @ p)):
        out[key] = (out[key][0] + direct, out[key][1] + formula)
    return out


# -- alternating form (self-paired block) ----------------------------------------


AlternatingFormReport = namedtuple("AlternatingFormReport", (
    "ell global_rank global_full_rank v_dim v_dim_even alternating_ok "
    "nondegenerate_on_v delta_op_ok delta_op_witness"))


def alternating_form_check(h: HopfPresentation, t: EigenTable,
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
    ell = (t.x_exp * (n + 1) // 2) % n  # the l with 2l = x mod n
    if nf is None:
        nf = normal_form(h, t)
    _, rank, _ = rref(integral_coproduct(h))
    labels = nf.labels
    vkey = (1, (-ell) % n, ell % n)
    vidx = [r for r, lbl in enumerate(labels) if lbl == vkey]
    vdim = len(vidx)
    block = [[nf.cprime.data[r][s] for s in vidx] for r in vidx]
    alternating = all(not block[i][i] for i in range(vdim)) and all(
        block[i][j] == -block[j][i]
        for i in range(vdim) for j in range(vdim))
    nondeg = not vdim or rref(Mat(h.order, block, cols=vdim))[1] == vdim
    # Delta^op Gram in eigen coordinates is the transpose of the Delta one
    cop_prime = nf.cprime.transpose()
    factors = [(-1) ** a * t.omega ** ((-i - j) % n) for a, i, j in labels]
    witness = next(((labels[r], labels[s])
                    for r in range(h.dim) for s in range(h.dim)
                    if cop_prime.data[r][s]
                    != factors[r] * nf.cprime.data[r][s]), None)
    return AlternatingFormReport(
        ell=ell, global_rank=rank, global_full_rank=(rank == h.dim),
        v_dim=vdim, v_dim_even=(vdim % 2 == 0), alternating_ok=alternating,
        nondegenerate_on_v=nondeg, delta_op_ok=witness is None,
        delta_op_witness=witness)


# -- parity and congruence -------------------------------------------------------


def h_plus_minus(h: HopfPresentation, n: int):
    """(dim H_+, dim H_-) for the involution-like S^(2n).

    The two eigenspaces (+1, -1) must exhaust H; anything else means
    S^(4n) != id and raises SpectrumNotPlusMinusOne.
    """
    return h.memo(("h_plus_minus", n), lambda: _plus_minus_split(h, n))


def _plus_minus_split(h: HopfPresentation, n: int):
    m = h.s_power_matrix(2 * n)
    plus = eigenspace(m, cyc(h.order, 1))
    minus = eigenspace(m, cyc(h.order, -1))
    if plus.dim + minus.dim != h.dim:
        raise SpectrumNotPlusMinusOne(
            f"S^(2*{n}) on {h.name} has spectrum beyond +1/-1 "
            f"({plus.dim} + {minus.dim} != {h.dim})")
    return plus.dim, minus.dim


TraceCongruence = namedtuple("TraceCongruence", (
    "trace d congruence_ok routes_agree p2_divisible d_odd "
    "h_minus_formula_ok dim_h_plus dim_h_minus"))


def trace_s2p_report(h: HopfPresentation, p: int, q: int) -> TraceCongruence:
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
    idx = compute_index(h).n
    if idx != p:
        raise PreconditionFailed(f"index of {h.name} is {idx}, not p = {p}")
    m = h.s_power_matrix(2 * p)
    direct = m.trace()
    via_formula = radford_trace(h, m, variant=1)
    hp, hm = h_plus_minus(h, p)
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


Lemma24Result = namedtuple("Lemma24Result", (
    "d difference_ok difference_witness j_independence_ok "
    "j_independence_witness"))
Lemma24Result.__doc__ = """The j-independence fields are None when alpha is
the counit (check skipped)."""


def lemma24_check(h: HopfPresentation, t: EigenTable, d: int) -> Lemma24Result:
    """dim H_(0,i,j) - dim H_(1,i,j) = d, and j-independence of dims.

    The difference identity needs g nontrivial (PreconditionFailed
    otherwise); the j-independence identity additionally needs
    alpha != counit and is reported as None (skipped) when alpha is
    trivial.
    """
    g = distinguished_grouplike(h)
    if tuple(g.coords) == tuple(h.unit):
        raise PreconditionFailed(
            f"distinguished grouplike of {h.name} is trivial")
    n = t.n
    diff_wit = next(((i, j) for i in range(n) for j in range(n)
                     if t.dims[(0, i, j)] - t.dims[(1, i, j)] != d), None)
    diff_ok = diff_wit is None
    alpha = distinguished_character(h)
    if tuple(alpha.coords) == tuple(h.counit):
        return Lemma24Result(d, diff_ok, diff_wit, None, None)
    j_wit = next(((a, i, j) for a in (0, 1) for i in range(n)
                  for j in range(1, n)
                  if t.dims[(a, i, j)] != t.dims[(a, i, 0)]), None)
    return Lemma24Result(d, diff_ok, diff_wit, j_wit is None, j_wit)


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


CoradicalTraces = namedtuple("CoradicalTraces", (
    "trace_on_c trace_on_quotient additivity_ok pointed inequality_ok"))


def coradical_traces(h: HopfPresentation, c: Subspace,
                     p: int) -> CoradicalTraces:
    """Block traces of S^(2p) over the coradical and its complement.

    The coradical must be S^(2p)-invariant (NotInvariant otherwise).
    The trace on C is that of S^(2p) restricted to C; the quotient trace
    is that of the transpose restricted to the annihilator of C, which is
    dual to H/C.  additivity_ok checks that the two add up to
    Tr(S^(2p)).  pointed records dim C = #grouplikes; inequality_ok
    records Tr(S^(2p)|_C) >= p.
    """
    m = h.s_power_matrix(2 * p)
    try:
        on_c = restrict_operator(m, c).trace()
    except NotInvariant:
        raise NotInvariant(
            f"coradical of {h.name} is not S^(2*{p})-invariant") from None
    on_quot = restrict_operator(m.transpose(), null_space(c.basis)).trace()
    tc = _as_int(on_c)
    return CoradicalTraces(
        trace_on_c=on_c, trace_on_quotient=on_quot,
        additivity_ok=on_c + on_quot == m.trace(),
        pointed=c.dim == len(find_grouplikes(h)),
        inequality_ok=tc is not None and tc >= p)


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


def selects(selector: str, tag: str) -> bool:
    """Whether a --check selector (a whole tag, or the part of one before
    a colon) names tag."""
    return tag == selector or tag.startswith(selector.rstrip(":") + ":")


class InvariantReport(namedtuple("InvariantReport", (
        "name dim order omega_power semisimple cosemisimple unimodular "
        "index x_exp dims dim_h_plus dim_h_minus trace_s2p d "
        "congruence_mod4_ok coradical_dim trace_s2p_on_c "
        "trace_s2p_on_quotient pointed grouplike_count checks"))):
    """Everything build_report found on one presentation; checks is a
    list of (tag, status, detail) in CHECK_TAGS order."""
    __slots__ = ()

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


def _outcome(ok: bool, detail: str = "", failure: str | None = None):
    """(status, detail) of a check: detail on a pass; on a fail, failure
    if given, else detail."""
    if ok:
        return "pass", detail
    return "fail", detail if failure is None else failure


def build_report(h: HopfPresentation, omega_power: int = 1,
                 selected: list | None = None) -> InvariantReport:
    """Run every applicable named check on one presentation.

    Each check's (status, detail) is recorded once under its tag, and the
    report lists CHECK_TAGS in order, keeping the tags that a selector in
    selected names (see selects).  A stage that cannot run gives its
    skipped:REASON to every tag of its group still unrecorded.  The
    trace variants, the S^4 formula, the reconstruction, the projection
    traces and the alternating form run only when a tag of their group is
    selected; every other stage always runs.  omega_power must be coprime
    to the index (BadParameters otherwise), whatever the index.
    """
    integral_pair(h)  # a degenerate pairing fails first
    semi = is_semisimple(h)
    cosemi = is_cosemisimple(h)
    unimod = is_unimodular(h)
    idx = compute_index(h)
    n = idx.n
    _check_coprime(omega_power, n)
    results = {}  # tag -> (status, detail)

    def group(*prefixes):
        return [tag for tag in CHECK_TAGS
                if any(selects(p, tag) for p in prefixes)]

    def wanted(*prefixes):
        return selected is None or any(
            selects(s, tag) for tag in group(*prefixes) for s in selected)

    def skip(reason, *prefixes, detail=""):
        for tag in group(*prefixes):
            results.setdefault(tag, (reason, detail))

    if wanted("thm1.2:trace-variants"):
        # formula v holds for every endomorphism exactly when G_v = I
        ident = Mat.identity(h.order, h.dim)
        bad = next((v for v in (1, 2, 3)
                    if trace_form(h, v) != ident), None)
        results["thm1.2:trace-variants"] = _outcome(
            bad is None, failure=f"variant {bad} disagrees")
    if wanted("eq1:s4-formula"):
        results["eq1:s4-formula"] = _outcome(verify_s4_formula(h))

    # trace congruences first: their d (when available) feeds lemma 2.4
    pq = _factor_pq(h.dim)
    tc = None
    if pq is None or semi or n not in pq:
        skip("skipped:NotPQ" if pq is None else "skipped:Semisimple" if semi
             else "skipped:IndexNotP", "thm2.2", "thm3.3")
    else:
        p, q = pq if n == pq[0] else pq[::-1]
        tc = trace_s2p_report(h, p, q)
        results["thm2.2:trace-p2d"] = _outcome(
            tc.routes_agree and tc.p2_divisible and tc.d_odd,
            f"trace {tc.trace}, d = {tc.d}")
        results["thm3.3:congruence-mod4"] = _outcome(tc.congruence_ok,
                                                     f"d = {tc.d}")
        results["thm3.3:h-minus-formula"] = _outcome(
            tc.h_minus_formula_ok, f"dim H_- = {tc.dim_h_minus}")

    table = x_exp = None
    if n == 1 or n % 2 == 0:
        skip("skipped:IndexOne" if n == 1 else "skipped:IndexEven",
             "eq2", "sec2", "lem2.4", "eq3", "lem3.1")
    else:
        table = eigen_decomposition(h, omega_for_index(h, n, omega_power))
        x_exp = table.x_exp
        try:
            nf, off_pattern = normal_form(h, table), None
        except OffPatternBlock as exc:
            nf, off_pattern = None, str(exc)
        results["eq2:eigen-partition"] = _outcome(
            sum(table.dims.values()) == h.dim)
        sym_ok, witness = check_dim_symmetry(table)
        results["sec2:dim-symmetry"] = _outcome(sym_ok,
                                                failure=f"witness {witness}")
        d_for_24 = (tc.d if tc is not None and tc.d is not None
                    else table.dims[(0, 0, 0)] - table.dims[(1, 0, 0)])
        try:
            l24 = lemma24_check(h, table, d_for_24)
        except PreconditionFailed as exc:
            skip("skipped:GTrivial", "lem2.4", detail=str(exc))
        else:
            results["lem2.4:dim-difference"] = _outcome(
                l24.difference_ok, f"d = {l24.d}",
                f"witness {l24.difference_witness}")
            if l24.j_independence_ok is None:
                skip("skipped:AlphaTrivial", "lem2.4")
            else:
                results["lem2.4:j-independence"] = _outcome(
                    l24.j_independence_ok,
                    failure=f"witness {l24.j_independence_witness}")
        results["eq3:normal-form-pattern"] = _outcome(nf is not None,
                                                      failure=off_pattern)
        if nf is None:
            skip("skipped:OffPatternBlock", "eq3", "lem3.1")
        else:
            if wanted("eq3:reconstruction"):
                target = tuple(c for row in integral_coproduct(h).data
                               for c in row)
                results["eq3:reconstruction"] = _outcome(
                    nf.reconstruction(h) == target)
            if wanted("eq3:projection-traces"):
                bad = min((key for key, traces
                           in projection_traces(h, table).items()
                           if any(_as_int(t) != table.dims[key]
                                  for t in traces)), default=None)
                results["eq3:projection-traces"] = _outcome(
                    bad is None, failure=f"witness {bad}")
            if wanted("lem3.1"):
                alt = alternating_form_check(h, table, nf=nf)
                results["lem3.1:global-form-rank"] = _outcome(
                    alt.global_full_rank, f"rank {alt.global_rank} of {h.dim}")
                results["lem3.1:alternating-even"] = _outcome(
                    alt.alternating_ok and alt.v_dim_even
                    and alt.nondegenerate_on_v, f"dim V = {alt.v_dim}")
                results["lem3.1:delta-op-expansion"] = _outcome(
                    alt.delta_op_ok, failure=f"witness {alt.delta_op_witness}")

    hp, hm = h_plus_minus(h, n)
    results["cor3.2:h-minus-even"] = _outcome(hm % 2 == 0, f"dim H_- = {hm}")

    cora = coradical(h)
    corat = coradical_traces(h, cora, n)
    results["thm3.4:trace-additivity"] = _outcome(corat.additivity_ok)
    if n == 1 or semi:
        skip("skipped:IndexOne" if n == 1 else "skipped:Semisimple", "thm3.4")
    else:
        results["thm3.4:coradical-dim-geq-p"] = _outcome(
            cora.dim >= n, f"dim C = {cora.dim}, p = {n}")
        results["thm3.4:trace-on-coradical-geq-p"] = _outcome(
            corat.inequality_ok,
            f"Tr on C = {_as_int(corat.trace_on_c)}, p = {n}")

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
        checks=[(tag, *results[tag]) for tag in CHECK_TAGS if wanted(tag)])
