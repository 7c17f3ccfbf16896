"""Integrals, distinguished elements, and exact trace formulas.

Conventions (verified exhaustively by the test suite, which also rules
out the competing sign/side choices):

- Lambda is a left integral in H:   a Lambda = counit(a) Lambda.
- lambda is a right integral on H:  lambda beta = beta(1) lambda in H*.
- Pairs are normalized so lambda(Lambda) = 1.
- g, the distinguished grouplike of H:   beta lambda = beta(g) lambda.
- alpha, the distinguished character:    Lambda a = alpha(a) Lambda.
- Fourth power of the antipode:  S^4(h) = g (alpha -> h <- alpha^-1) g^-1
  where -> and <- are the harpoon actions and alpha^-1 = alpha o S.

Trace formulas (variant argument of radford_trace):
  1:  Tr(f) = lambda( S(Lambda_2) f(Lambda_1) )
  2:  Tr(f) = lambda( S(f(Lambda_2)) Lambda_1 )
  3:  Tr(f) = lambda( f(S(Lambda_2)) Lambda_1 )
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclofield import CycNumber
from .errors import (DegeneratePairing, IntegralSpaceNotOneDim,
                     NotNormalized, NotProportional)
from .hopf import (Functional, HopfElement, HopfPresentation, _coords, dual,
                   harpoon_left, harpoon_right)
from .linalg import Mat, Subspace, null_space


# -- integral spaces -----------------------------------------------------------


def integral_subspace(h: HopfPresentation, side: str = "left") -> Subspace:
    """The space of left (or right) integrals in H, as a subspace.

    Left integrals satisfy a x = counit(a) x for all a; right integrals
    satisfy x a = counit(a) x.  The space is found by refining the
    ambient space through the kernel of one basis operator at a time,
    with a final direct verification once it is down to a line (so an
    early exit cannot over-report).
    """
    return h.memo(("integral_subspace", side),
                  lambda: _refine_integrals(h, side))


def _refine_integrals(h: HopfPresentation, side: str) -> Subspace:
    n = h.dim
    w = Subspace.from_vectors(h.order, n,
                              [h.basis_element(i) for i in range(n)])
    for i in range(n):
        a = h.basis_element(i)
        op = h.left_mult_matrix(a) if side == "left" else h.right_mult_matrix(a)
        bt = w.basis.transpose()
        ker = null_space((op @ bt) - bt.scale(h.counit[i]))
        if ker.dim == 0:
            return Subspace.from_vectors(h.order, n, [])
        w = Subspace.from_vectors(h.order, n, (ker.basis @ w.basis).data)
        if w.dim <= 1:
            break
    # verify every remaining constraint on the surviving line
    if w.dim == 1:
        x = w.basis.data[0]
        for i in range(n):
            a = h.basis_element(i)
            prod = h.multiply(a, x) if side == "left" else h.multiply(x, a)
            if prod != tuple(c * h.counit[i] for c in x):
                return Subspace.from_vectors(h.order, n, [])
    return w


def _one_dimensional(h, side, where) -> tuple:
    space = integral_subspace(h, side)
    if space.dim != 1:
        raise IntegralSpaceNotOneDim(
            f"{side} integral space of {where} has dimension {space.dim}")
    return tuple(space.basis.data[0])


def left_integral(h: HopfPresentation) -> HopfElement:
    """A left integral Lambda, canonically scaled (leading coordinate 1)."""
    return HopfElement(_one_dimensional(h, "left", h.name))


def right_integral(h: HopfPresentation) -> HopfElement:
    """A right integral in H, canonically scaled."""
    return HopfElement(_one_dimensional(h, "right", h.name))


def dual_right_integral(h: HopfPresentation) -> Functional:
    """A right integral lambda on H (right integral of the dual algebra)."""
    return h.memo(("dual_right_integral",), lambda: Functional(
        _one_dimensional(dual(h), "right", f"dual({h.name})")))


@dataclass(frozen=True)
class IntegralPair:
    """A left integral in H and a right integral on H with lambda(Lambda)=1."""
    presentation: HopfPresentation
    integral: HopfElement        # Lambda
    dual_integral: Functional    # lambda

    def pairing(self) -> CycNumber:
        return self.presentation.pair(self.dual_integral, self.integral)


def integral_pair(h: HopfPresentation) -> IntegralPair:
    """The normalized (Lambda, lambda) pair used by all trace formulas.

    Raises DegeneratePairing when lambda(Lambda) = 0, which cannot happen
    for an actual finite-dimensional Hopf algebra and therefore flags
    corrupted input.
    """
    return h.memo(("integral_pair",), lambda: _normalized_pair(h))


def _normalized_pair(h: HopfPresentation) -> IntegralPair:
    lam_el = left_integral(h)
    lam_fn = dual_right_integral(h)
    val = h.pair(lam_fn, lam_el)
    if not val:
        raise DegeneratePairing(
            f"lambda(Lambda) = 0 on {h.name}; input is not a Hopf algebra")
    inv = val.inverse()
    lam_fn = Functional(tuple(c * inv for c in lam_fn.coords))
    return IntegralPair(h, lam_el, lam_fn)


# -- distinguished elements -----------------------------------------------------


def _proportionality(vec, target, context):
    p = next((i for i, x in enumerate(vec) if x), None)
    if p is None:
        raise NotProportional(f"{context}: reference vector is zero")
    c = target[p] / vec[p]
    if tuple(target) != tuple(x * c for x in vec):
        raise NotProportional(context)
    return c


def distinguished_grouplike(h: HopfPresentation,
                            pair: IntegralPair | None = None) -> HopfElement:
    """The grouplike g in H with beta lambda = beta(g) lambda for all beta."""
    pair = pair or integral_pair(h)
    return h.memo(("distinguished_grouplike", pair),
                  lambda: _grouplike_of(h, pair))


def _grouplike_of(h: HopfPresentation, pair: IntegralPair) -> HopfElement:
    lam = pair.dual_integral.coords
    n = h.dim
    z = h.zero_scalar()
    g = []
    for i in range(n):
        # (beta_i * lambda)_k = sum_j lambda_j comult[k][(i, j)]
        v = [z] * n
        for k in range(n):
            acc = z
            for (a, j), c in h.comult[k].items():
                if a == i and lam[j]:
                    acc = acc + c * lam[j]
            v[k] = acc
        g.append(_proportionality(lam, v, f"beta_{i} lambda on {h.name}"))
    return HopfElement(tuple(g))


def distinguished_character(h: HopfPresentation,
                            pair: IntegralPair | None = None) -> Functional:
    """The character alpha on H with Lambda a = alpha(a) Lambda."""
    pair = pair or integral_pair(h)
    return h.memo(("distinguished_character", pair),
                  lambda: _character_of(h, pair))


def _character_of(h: HopfPresentation, pair: IntegralPair) -> Functional:
    lam = pair.integral.coords
    al = []
    for j in range(h.dim):
        v = h.multiply(lam, h.basis_element(j))
        al.append(_proportionality(lam, v, f"Lambda e_{j} on {h.name}"))
    return Functional(tuple(al))


def character_inverse(h: HopfPresentation, alpha) -> Functional:
    """Convolution inverse of a character: alpha o S."""
    a = _coords(alpha)
    s = h.antipode_matrix()
    z = h.zero_scalar()
    out = []
    for j in range(h.dim):
        acc = z
        for i in range(h.dim):
            if s.data[i][j] and a[i]:
                acc = acc + a[i] * s.data[i][j]
        out.append(acc)
    return Functional(tuple(out))


# -- structural predicates -------------------------------------------------------


def is_unimodular(h: HopfPresentation) -> bool:
    """Left and right integrals in H coincide."""
    return integral_subspace(h, "left") == integral_subspace(h, "right")


def is_semisimple(h: HopfPresentation) -> bool:
    """counit(Lambda) != 0 (equivalent to semisimplicity in char 0)."""
    return bool(h.counit_of(left_integral(h)))


def is_cosemisimple(h: HopfPresentation) -> bool:
    """lambda(1) != 0 (the dual notion)."""
    return bool(h.pair(dual_right_integral(h), h.unit))


# -- trace formulas ---------------------------------------------------------------


def _trace_context(h: HopfPresentation, pair: IntegralPair) -> dict:
    if pair.pairing() != 1:
        raise NotNormalized(
            f"integral pair on {h.name} has lambda(Lambda) != 1")
    n = h.dim
    z = h.zero_scalar()
    lam = pair.dual_integral.coords
    b = [[z] * n for _ in range(n)]
    for a in range(n):
        for c in range(n):
            acc = z
            for k, m in h.mult[a][c].items():
                if lam[k]:
                    acc = acc + m * lam[k]
            b[a][c] = acc
    bmat = Mat(h.order, b, cols=n)
    s = h.antipode_matrix()
    w1 = s.transpose() @ bmat  # row k = lambda(S(e_k) e_*)
    return {
        "C": h.comult_pairs(pair.integral.coords),
        "B": bmat,
        "Bcols": [bmat.col(j) for j in range(n)],
        "W1": w1,
        "W1cols": [w1.col(j) for j in range(n)],
        "S": s,
        "Scols": [s.col(k) for k in range(n)],
    }


def _dot(u, v, z):
    acc = z
    for a, b in zip(u, v):
        if a and b:
            acc = acc + a * b
    return acc


def radford_trace(h: HopfPresentation, f: Mat, pair: IntegralPair,
                  variant: int = 1) -> CycNumber:
    """Tr(f) through the integral pair; see the module docstring.

    All three variants return the honest matrix trace of f for genuine
    Hopf data; disagreement between variants (or with the matrix trace)
    is a structural red flag, which is exactly what the verification
    commands look for.
    """
    if pair.presentation is not h:
        raise NotNormalized("integral pair belongs to a different algebra")
    ctx = h.memo(("trace_context", pair), lambda: _trace_context(h, pair))
    z = h.zero_scalar()
    acc = z
    if variant == 1:
        # sum C[j,k] lambda(S(e_k) f(e_j)) ; row k of W1 = lambda(S(e_k) e_*)
        w1 = ctx["W1"]
        for (j, k), c in ctx["C"].items():
            acc = acc + c * _dot(w1.data[k], f.col(j), z)
    elif variant == 2:
        # sum C[j,k] lambda(S(f(e_k)) e_j) = dot(f(e_k), W1 col j)
        w1cols = ctx["W1cols"]
        for (j, k), c in ctx["C"].items():
            acc = acc + c * _dot(f.col(k), w1cols[j], z)
    elif variant == 3:
        # sum C[j,k] lambda(f(S(e_k)) e_j) = dot(f(S e_k), B col j)
        scols, bcols = ctx["Scols"], ctx["Bcols"]
        cache = {}
        for (j, k), c in ctx["C"].items():
            if k not in cache:
                cache[k] = f.apply(scols[k])
            acc = acc + c * _dot(cache[k], bcols[j], z)
    else:
        raise ValueError(f"unknown trace variant {variant!r}")
    return acc


def verify_s4_formula(h: HopfPresentation,
                      pair: IntegralPair | None = None) -> bool:
    """S^4 = conjugation by g composed with the two-sided alpha twist.

    Checks S^4(e) = g (alpha -> e <- alpha^-1) g^-1 on every basis
    element; exact equality or bust.
    """
    pair = pair or integral_pair(h)
    g = distinguished_grouplike(h, pair)
    alpha = distinguished_character(h, pair)
    alpha_inv = character_inverse(h, alpha)
    ginv = h.antipode_matrix().apply(g.coords)
    s4 = h.s_power_matrix(4)
    for t in range(h.dim):
        e = h.basis_element(t)
        x = harpoon_left(h, alpha, e)
        x = harpoon_right(h, x, alpha_inv)
        x = h.multiply(g.coords, h.multiply(x, ginv))
        if x != s4.apply(e):
            return False
    return True
