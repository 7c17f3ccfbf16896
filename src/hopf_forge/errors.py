"""Exception types shared across the package.

Every error raised by the library derives from HopfForgeError, so callers
can distinguish mathematical failures from programming mistakes.  Each
category declares its CLI exit code: HopfForgeError a failed check (1),
InputError a malformed input or bad parameters (2), FieldTooSmall a root
of unity missing from Q(zeta_N) (3, with a hint to lift the order).
"""


class HopfForgeError(Exception):
    """Base class for all library errors; a failed check."""
    exit_code = 1
    hint = None


class InputError(HopfForgeError):
    """Malformed input or bad parameters."""
    exit_code = 2


class FieldTooSmall(HopfForgeError):
    """The working field Q(zeta_N) lacks a root of unity the input needs."""
    exit_code = 3
    hint = ("rebuild the presentation over a larger cyclotomic field "
            "(raise cyclotomic_order)")


# -- scalar arithmetic ------------------------------------------------------

class OrderMismatch(InputError):
    """Two scalars (or presentations) with different cyclotomic orders."""


class DivisionByZero(HopfForgeError, ZeroDivisionError):
    """Inversion of the zero scalar."""


class BoundExceeded(InputError):
    """Cyclotomic order outside the supported range."""


# -- linear algebra ---------------------------------------------------------

class NotInvertible(HopfForgeError):
    """Singular matrix where an inverse was required."""


class NotInvariant(HopfForgeError):
    """Operator does not preserve the given subspace."""


# -- presentations ----------------------------------------------------------

class MalformedTensor(InputError):
    """Structure-constant entry with out-of-range indices or bad shape."""


class MalformedFile(InputError):
    """Unreadable or schema-violating presentation file."""


class AxiomFailure(HopfForgeError):
    """The presentation fails a bialgebra or antipode axiom; the message
    is "axiom: witness", as check_axioms records its first failure."""


class NoAntipode(HopfForgeError):
    """The bialgebra admits no antipode (the identity has no convolution
    inverse)."""


class EigenvalueNotInField(FieldTooSmall):
    """A characteristic polynomial does not split over Q(zeta_N) against
    the candidate set; a field extension would be needed."""


# -- integrals --------------------------------------------------------------

class IntegralSpaceNotOneDim(HopfForgeError):
    """The space of one-sided integrals is not one-dimensional."""


class DegeneratePairing(HopfForgeError):
    """lambda(Lambda) = 0, so the pair cannot be normalized."""


# -- invariants -------------------------------------------------------------

class NonSplitting(FieldTooSmall):
    """Q(zeta_N) has no primitive n-th root of unity for the index n."""


class IndexOne(HopfForgeError):
    """Decomposition invariants are undefined for index 1 (S^4 = id and
    trivial distinguished grouplike)."""


class IndexEven(HopfForgeError):
    """The eigenspace decomposition requires odd index."""


class PreconditionFailed(HopfForgeError):
    """Hypotheses of the requested theorem-level check do not hold."""


class OffPatternBlock(HopfForgeError):
    """Delta(Lambda) has a nonzero component outside the expected
    anti-diagonal block pattern."""


# -- zoo --------------------------------------------------------------------

class NotAGroup(InputError):
    """Cayley table fails the group axioms."""


class BadParameters(InputError):
    """Invalid parameters for a zoo constructor."""
