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
- the coradical (the row space of Delta(t), t the regular trace of H*),
  its S^(2p)-invariance, and block traces.

A failed check is a mathematical event (the input falsifies a statement
this machinery is designed to witness) and is always surfaced as a
first-class result, never absorbed.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, isqrt, lcm

from .cyclofield import CycNumber, _power, cyc, primitive_root, scalar_to_json
from .errors import (BadParameters, IndexEven, IndexOne, NonSplitting,
                     NotInvariant, OffPatternBlock, PreconditionFailed)
from .hopf import HopfPresentation, _memo, certified, find_grouplikes
# integral_pair is unused here; bench/test_tracer.py traces this import
from .integrals import (distinguished_character, distinguished_grouplike,
                        integral_coproduct, integral_pair, is_cosemisimple,
                        is_semisimple, is_unimodular, radford_trace,
                        trace_form, verify_s4_formula)
from .linalg import (Mat, Subspace, _is_prime, eigenspace, inverse,
                     null_space, product_diagonal, restrict_operator, rref)


def _as_int(c: CycNumber) -> int | None:
    r = c.as_rational()
    return int(r) if r is not None and r.denominator == 1 else None


# -- index and omega ------------------------------------------------------------


IndexData = namedtuple("IndexData", "n s4_order g_order")
IndexData.__doc__ = """n is the lcm of s4_order, the multiplicative order of
S^4, and g_order, the order of the distinguished grouplike."""


@_memo
def compute_index(h: HopfPresentation) -> IndexData:
    """Least n with S^(4n) = id and g^n = 1, as lcm of the two orders.

    h is certified first.  S^4 is conjugation by g composed with the
    commuting alpha-twist (Radford 1976), and the orders of g and alpha
    divide dim H (Nichols-Zoeller 1989), so both orders divide dim H:
    each is the least divisor d of dim H with S^(4d) = I, read from the
    S-power memo, resp. g^d = 1, taken by repeated squaring.
    """
    certified(h)
    divisors = [d for d in range(1, h.dim + 1) if h.dim % d == 0]
    ident = Mat.identity(h.order, h.dim)
    s4_order = next(d for d in divisors if h.s_power_matrix(4 * d) == ident)
    g = distinguished_grouplike(h)
    g_order = next(d for d in divisors if _power(h.multiply, g, d) == h.unit)
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
    omega = primitive_root(h.order, n, power)
    if omega is None:
        raise NonSplitting(
            f"Q(zeta_{h.order}) has no primitive root of unity of order "
            f"{n}; re-present the algebra over "
            f"Q(zeta_{lcm(h.order, 2 * n)})")
    return omega


def _check_coprime(power: int, n: int):
    if n < 1 or gcd(power, n) != 1:
        raise BadParameters(
            f"omega power {power} is not coprime to the index {n}")


def _check_primitive(omega: CycNumber, n: int):
    order = next((t for t in range(1, n + 1)
                  if n % t == 0 and omega ** t == 1), None)
    if order is None:
        raise BadParameters(f"omega is not a root of unity of order {n}")
    if order != n:
        raise BadParameters(f"omega has order {order}, not {n}")


def x_exponent(h: HopfPresentation, omega: CycNumber) -> int:
    """The unique x in Z_n with alpha(g) = omega^x, n the index of h:
    alpha(g)^n = alpha(g^n) = 1 makes alpha(g) a power of omega."""
    n = compute_index(h).n
    _check_primitive(omega, n)
    value = h.pair(distinguished_character(h), distinguished_grouplike(h))
    return next(t for t in range(n) if omega ** t == value)


# -- eigenspace decomposition ----------------------------------------------------


class EigenTable:
    """Joint eigenspaces H_(a,i,j) of S^2 and right translation by g.

    spaces/dims are total maps on Z_2 x Z_n x Z_n (zero-dimensional
    blocks included).  x_exp is the exponent with alpha(g) = omega^x.
    Column c of the eigen basis p is an eigenvector with label
    p_labels[c], and p_inv is its inverse.  A table equals only itself,
    so normal_form's memo is keyed by the table object.
    """

    def __init__(self, omega, n, x_exp, spaces, dims):
        self.omega = omega
        self.n = n
        self.x_exp = x_exp
        self.spaces = spaces
        self.dims = dims
        keys = self.labels()
        rows = [row for key in keys for row in spaces[key].basis.nonzeros()]
        self.p_labels = tuple(key for key in keys
                              for _ in range(spaces[key].dim))
        self.p = Mat(omega.order, cols=spaces[keys[0]].ambient_dim,
                     nonzeros=rows).transpose()
        self.p_inv = inverse(self.p)

    def labels(self):
        return sorted(self.spaces)

    def pattern_partner(self, key):
        """The label -key + (0, -x, x), i.e. the block Delta(Lambda) pairs
        with key."""
        a, i, j = key
        n = self.n
        return ((-a) % 2, (-self.x_exp - i) % n, (self.x_exp - j) % n)


@_memo
def eigen_decomposition(h: HopfPresentation, omega: CycNumber) -> EigenTable:
    """The decomposition H = (+)_(a,i,j) H_(a,i,j); see module docstring.

    Memoized on h under omega's value.  Requires odd index > 1: index 1
    is rejected with IndexOne (the machinery degenerates), even index
    with IndexEven (the labels (-1)^a omega^i collide, so the direct sum
    would double count).  h is certified (compute_index): R_g satisfies
    x^n - 1 and S^2, which commutes with it, x^(2n) - 1, both split with
    distinct roots over a field holding omega.  So S^2 splits each
    translation eigenspace W_j, and once the S^2 eigenspaces found in
    W_j fill it, the labels of j left are {0}, unsolved.  The table's
    inverse(P) proves that the blocks span H: a short family makes P
    non-square, and NotInvertible is raised.
    """
    n = compute_index(h).n
    if n == 1:
        raise IndexOne(f"{h.name} has index 1; decomposition is degenerate")
    if n % 2 == 0:
        raise IndexEven(
            f"{h.name} has even index {n}; the eigenvalue labels "
            "(-1)^a omega^i collide")
    x = x_exponent(h, omega)
    s2 = h.s_power_matrix(2)
    rg = h.right_mult_matrix(distinguished_grouplike(h))
    zero = Subspace.from_vectors(h.order, h.dim, ())
    spaces = {}
    for j in range(n):
        wj = eigenspace(rg, omega ** j)
        # n odd makes the (-1)^a omega^i all 2n of the 2n-th roots of unity
        local, left = restrict_operator(s2, wj), wj.dim
        for a in (0, 1):
            for i in range(n):
                sub = zero
                if left:
                    value = -omega ** i if a else omega ** i
                    sub = wj.image_of(eigenspace(local, value))
                    left -= sub.dim
                spaces[(a, i, j)] = sub
    dims = {key: sub.dim for key, sub in spaces.items()}
    return EigenTable(omega=omega, n=n, x_exp=x, spaces=spaces, dims=dims)


def check_dim_symmetry(t: EigenTable):
    """dims[key] = dims[pattern partner of key]; (ok, first witness)."""
    for key in t.labels():
        partner = t.pattern_partner(key)
        if t.dims[key] != t.dims[partner]:
            return False, (key, partner, t.dims[key], t.dims[partner])
    return True, None


# -- normal form of Delta(Lambda) ------------------------------------------------


class NormalForm(namedtuple("NormalForm", "table cprime")):
    """Delta(Lambda) in eigen coordinates: cprime = C' = Pinv C Pinv^T,
    where C is its coefficient matrix and P = table.p, whose column c is
    an eigenvector with label table.p_labels[c], so C = P C' P^T."""
    __slots__ = ()

    @property
    def components(self) -> dict:
        """{key: the part of Delta(Lambda) in H_key (x) H_(partner of
        key)} as sparse {(leg1, leg2): coefficient} maps, one per label
        of a nonzero row of C', expanded from P and C' on each call."""
        z = cyc(self.cprime.order, 0)
        p_cols = self.table.p.transpose().nonzeros()
        out = {}
        for r, row in enumerate(self.cprime.nonzeros()):
            for s, coef in row:
                part = out.setdefault(self.table.p_labels[r], {})
                for j, u in p_cols[r]:
                    f = coef * u
                    for k, v in p_cols[s]:
                        part[(j, k)] = part.get((j, k), z) + f * v
        return out

    def reconstruction(self) -> tuple:
        """The blocks summed back over the original basis, P C' P^T, as a
        flat tensor-square vector (row-major over (leg1, leg2))."""
        p = self.table.p
        return tuple(c for row in (p @ self.cprime @ p.transpose()).data
                     for c in row)


@_memo
def normal_form(h: HopfPresentation, t: EigenTable) -> NormalForm:
    """Delta(Lambda) in eigen coordinates, with its pairing verified.

    Memoized on h under the table object.  C' = Pinv C Pinv^T is formed
    by two sparse Mat products.  Every nonzero entry C'[r][s] must couple
    label key = t.p_labels[r] with pattern_partner(key); the first entry
    outside that pattern, in row-major order, raises OffPatternBlock
    naming the label pair.
    """
    labels = t.p_labels
    cprime = t.p_inv @ integral_coproduct(h) @ t.p_inv.transpose()
    for r, row in enumerate(cprime.nonzeros()):
        partner = t.pattern_partner(labels[r])
        for s, _ in row:
            if labels[s] != partner:
                raise OffPatternBlock(
                    f"Delta(Lambda) on {h.name} has a nonzero block "
                    f"{labels[r]} (x) {labels[s]}; expected partner "
                    f"{partner}")
    return NormalForm(table=t, cprime=cprime)


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
    z = h.zero_scalar()

    out = {key: (z, z) for key in t.labels()}
    for key, direct, formula in zip(
            t.p_labels, product_diagonal(t.p_inv, t.p),
            product_diagonal(t.p_inv, trace_form(h, 1) @ t.p)):
        out[key] = (out[key][0] + direct, out[key][1] + formula)
    return out


# -- alternating form (self-paired block) ----------------------------------------


AlternatingFormReport = namedtuple("AlternatingFormReport", (
    "ell global_rank global_full_rank v_dim v_dim_even alternating_ok "
    "nondegenerate_on_v delta_op_ok delta_op_witness"))


def alternating_form_check(h: HopfPresentation,
                           t: EigenTable) -> AlternatingFormReport:
    """The bilinear form (f, h) = (f (x) h)(Delta(Lambda)) on the dual.

    Checks: the global Gram matrix (which is exactly the coefficient
    matrix of Delta(Lambda)) has full rank; the block of the form dual
    to H_(1,-l,l) (the unique self-paired block, 2l = x) is alternating
    (skew-symmetric suffices in characteristic 0) and non-degenerate,
    forcing even dimension; and the twisted expansion of Delta^op(Lambda)
    read off C' of normal_form(h, t), whose transpose is the Delta^op
    Gram in eigen coordinates: C'^T[r][s] = (-1)^a omega^(-i-j) C'[r][s],
    with (a, i, j) = t.p_labels[r], wherever C' or C'^T is nonzero (both
    sides vanish elsewhere).  The witness is the least failing (r, s).
    t is from eigen_decomposition, so its index n is odd and > 1.
    """
    n = t.n
    ell = (t.x_exp * (n + 1) // 2) % n  # the l with 2l = x mod n
    cprime = normal_form(h, t).cprime
    _, rank, _ = rref(integral_coproduct(h))
    labels = t.p_labels
    vkey = (1, (-ell) % n, ell % n)
    vidx = [r for r, lbl in enumerate(labels) if lbl == vkey]
    vdim = len(vidx)
    z = h.zero_scalar()
    cp = {(r, s): x for r, row in enumerate(cprime.nonzeros()) for s, x in row}
    block = [[cp.get((r, s), z) for s in vidx] for r in vidx]
    alternating = all(block[i][j] == -block[j][i]
                      for i in range(vdim) for j in range(vdim))
    nondeg = not vdim or rref(Mat(h.order, block, cols=vdim))[1] == vdim
    factors = [(-1) ** a * t.omega ** ((-i - j) % n) for a, i, j in labels]
    support = {pos for r, s in cp for pos in ((r, s), (s, r))}
    witness = next(((labels[r], labels[s]) for r, s in sorted(support)
                    if cp.get((s, r), z) != factors[r] * cp.get((r, s), z)),
                   None)
    return AlternatingFormReport(
        ell=ell, global_rank=rank, global_full_rank=(rank == h.dim),
        v_dim=vdim, v_dim_even=(vdim % 2 == 0), alternating_ok=alternating,
        nondegenerate_on_v=nondeg, delta_op_ok=witness is None,
        delta_op_witness=witness)


# -- parity and congruence -------------------------------------------------------


@_memo
def h_plus_minus(h: HopfPresentation):
    """(dim H_+, dim H_-) for S^(2n), n the index.

    S^(4n) = id (compute_index), so the minimal polynomial of S^(2n)
    divides x^2 - 1: the +1 kernel alone gives both dimensions.
    """
    m = h.s_power_matrix(2 * compute_index(h).n)
    plus = eigenspace(m, cyc(h.order, 1)).dim
    return plus, h.dim - plus


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
    hp, hm = h_plus_minus(h)
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
    alpha != counit and is reported as None (skipped) when h is
    unimodular, which is_unimodular decides from alpha.
    """
    if distinguished_grouplike(h) == h.unit:
        raise PreconditionFailed(
            f"distinguished grouplike of {h.name} is trivial")
    n = t.n
    diff_wit = next(((i, j) for i in range(n) for j in range(n)
                     if t.dims[(0, i, j)] - t.dims[(1, i, j)] != d), None)
    diff_ok = diff_wit is None
    if is_unimodular(h):  # alpha is the counit
        return Lemma24Result(d, diff_ok, diff_wit, None, None)
    j_wit = next(((a, i, j) for a in (0, 1) for i in range(n)
                  for j in range(1, n)
                  if t.dims[(a, i, j)] != t.dims[(a, i, 0)]), None)
    return Lemma24Result(d, diff_ok, diff_wit, j_wit is None, j_wit)


# -- coradical --------------------------------------------------------------------


@_memo
def coradical(h: HopfPresentation) -> Subspace:
    """The coradical, the annihilator of the Jacobson radical of H*.

    h is certified first.  In characteristic zero that radical is the
    radical of the trace form Tr(L_beta L_gamma) of H*'s left regular
    representation (Dickson).  With t in H, t_k = Tr(L_(e_k*)) = the sum
    over j of the e_k (x) e_j coefficient of Delta(e_j), coassociativity
    gives Tr(L_beta L_gamma) = (beta gamma)(t) = (beta (x) gamma) Delta(t):
    the form's Gram matrix is Delta(t), whose kernel is the radical, so
    the coradical is its row space.
    """
    certified(h)
    t = [h.zero_scalar()] * h.dim
    for j, tensor in enumerate(h.comult):
        for (k, l), c in tensor.items():
            if l == j:
                t[k] = t[k] + c
    return Subspace.from_vectors(h.order, h.dim, h.comult_matrix(t).data)


def coradical_is_subcoalgebra(h: HopfPresentation, c: Subspace) -> bool:
    """Delta(C) lies in C (x) C (checked on both legs)."""
    for vec in c.basis.data:
        m = h.comult_matrix(vec)
        if any(c.coords_of(v) is None
               for v in m.transpose().data + m.data):
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


def check_selection(selected: list, shown: str):
    """BadParameters unless selected is nonempty and each selector in it
    names a tag; shown, the selection as written, names an empty one."""
    unknown = [s for s in selected
               if not any(selects(s, tag) for tag in CHECK_TAGS)]
    if unknown or not selected:
        raise BadParameters(f"--check {', '.join(unknown) or shown}: "
                            "matches no check tag")


class InvariantReport(namedtuple("InvariantReport", (
        "name dim cyclotomic_order omega_power semisimple cosemisimple "
        "unimodular index x_exponent eigen_dims dim_h_plus dim_h_minus "
        "trace_s2p d congruence_mod4_ok coradical_dim trace_s2p_on_coradical "
        "trace_s2p_on_quotient pointed grouplike_count checks"))):
    """Everything build_report found on one presentation, its fields named
    and ordered as the keys of its JSON document; checks is a list of
    (tag, status, detail) in CHECK_TAGS order."""
    __slots__ = ()

    @property
    def all_ok(self) -> bool:
        return all(status != "fail" for _, status, _ in self.checks)

    def to_document(self) -> dict:
        """The fields as JSON values, in field order, then all_ok."""
        dims = self.eigen_dims
        return dict(
            self._asdict(), index=self.index._asdict(),
            eigen_dims=None if dims is None else {
                f"{a},{i},{j}": d for (a, i, j), d in sorted(dims.items())},
            trace_s2p_on_coradical=scalar_to_json(self.trace_s2p_on_coradical),
            trace_s2p_on_quotient=scalar_to_json(self.trace_s2p_on_quotient),
            checks=[{"tag": tag, "status": status, "detail": detail}
                    for tag, status, detail in self.checks],
            all_ok=self.all_ok)


def _factor_pq(dim: int):
    """(p, q) with dim = p*q, p <= q odd primes (q >= p >= 3), or None."""
    for p in range(3, isqrt(dim) + 1, 2):
        if dim % p == 0 and _is_prime(p) and _is_prime(dim // p):
            return p, dim // p
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

    h is certified first (see certified), so non-Hopf input fails with
    its first axiom witness before any search, and every search is
    bounded by a theorem (see compute_index).  Each check's (status,
    detail) is recorded once under its tag, and the report lists
    CHECK_TAGS in order, keeping the tags that a selector in selected
    names (see selects).  A stage that cannot run gives its
    skipped:REASON to every tag of its group still unrecorded.  The
    trace variants, the S^4 formula, the reconstruction, the projection
    traces and the alternating form run only when a tag of their group is
    selected; every other stage always runs.  A selection that names no
    tag (see check_selection) and an omega_power that is not coprime to
    the index, whatever the index, raise BadParameters.
    """
    if selected is not None:
        check_selection(selected, repr(selected))
    certified(h)
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
        # G1 = C S^T B, G2^T = S^T B C, G3^T = B C S^T are I together
        results["thm1.2:trace-variants"] = _outcome(
            trace_form(h, 1) == Mat.identity(h.order, h.dim),
            failure="variant 1 disagrees")
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

    table = None
    if n == 1 or n % 2 == 0:
        skip("skipped:IndexOne" if n == 1 else "skipped:IndexEven",
             "eq2", "sec2", "lem2.4", "eq3", "lem3.1")
    else:
        table = eigen_decomposition(h, omega_for_index(h, n, omega_power))
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
                results["eq3:reconstruction"] = _outcome(
                    nf.reconstruction() == tuple(
                        c for row in integral_coproduct(h).data for c in row))
            if wanted("eq3:projection-traces"):
                bad = min((key for key, traces
                           in projection_traces(h, table).items()
                           if any(_as_int(t) != table.dims[key]
                                  for t in traces)), default=None)
                results["eq3:projection-traces"] = _outcome(
                    bad is None, failure=f"witness {bad}")
            if wanted("lem3.1"):
                alt = alternating_form_check(h, table)
                results["lem3.1:global-form-rank"] = _outcome(
                    alt.global_full_rank, f"rank {alt.global_rank} of {h.dim}")
                results["lem3.1:alternating-even"] = _outcome(
                    alt.alternating_ok and alt.v_dim_even
                    and alt.nondegenerate_on_v, f"dim V = {alt.v_dim}")
                results["lem3.1:delta-op-expansion"] = _outcome(
                    alt.delta_op_ok, failure=f"witness {alt.delta_op_witness}")

    hp, hm = h_plus_minus(h)
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
        name=h.name, dim=h.dim, cyclotomic_order=h.order,
        omega_power=omega_power, semisimple=semi, cosemisimple=cosemi,
        unimodular=unimod, index=idx,
        x_exponent=table.x_exp if table is not None else None,
        eigen_dims=table.dims if table is not None else None,
        dim_h_plus=hp, dim_h_minus=hm,
        trace_s2p=tc.trace if tc is not None else None,
        d=tc.d if tc is not None else None,
        congruence_mod4_ok=tc.congruence_ok if tc is not None else None,
        coradical_dim=cora.dim,
        trace_s2p_on_coradical=corat.trace_on_c,
        trace_s2p_on_quotient=corat.trace_on_quotient,
        pointed=corat.pointed,
        grouplike_count=len(find_grouplikes(h)),
        checks=[(tag, *results[tag]) for tag in CHECK_TAGS if wanted(tag)])
