"""Exception types shared across the package.

Every error raised by the library derives from HopfForgeError, so callers
can distinguish mathematical failures from programming mistakes.  The CLI
maps these onto exit codes: input/shape problems exit 2, failed checks
exit 1, and missing roots of unity (field too small) exit 3.
"""


class HopfForgeError(Exception):
    """Base class for all library errors."""


# -- scalar arithmetic ------------------------------------------------------

class OrderMismatch(HopfForgeError):
    """Two scalars (or presentations) with different cyclotomic orders."""


class DivisionByZero(HopfForgeError, ZeroDivisionError):
    """Inversion of the zero scalar."""


class BoundExceeded(HopfForgeError):
    """Cyclotomic order outside the supported range."""


# -- linear algebra ---------------------------------------------------------

class NotInvertible(HopfForgeError):
    """Singular matrix where an inverse was required."""


class NotInvariant(HopfForgeError):
    """Operator does not preserve the given subspace."""


# -- presentations ----------------------------------------------------------

class MalformedTensor(HopfForgeError):
    """Structure-constant entry with out-of-range indices or bad shape."""


class MalformedFile(HopfForgeError):
    """Unreadable or schema-violating presentation file."""


class AxiomFailure(HopfForgeError):
    """The presentation fails a bialgebra or antipode axiom; the message
    is "axiom: witness", as check_axioms records its first failure."""


class NoAntipode(HopfForgeError):
    """The bialgebra admits no antipode (the identity has no convolution
    inverse)."""


class EigenvalueNotInField(HopfForgeError):
    """A characteristic polynomial does not split over Q(zeta_N) against
    the candidate set; a field extension would be needed."""


# -- integrals --------------------------------------------------------------

class IntegralSpaceNotOneDim(HopfForgeError):
    """The space of one-sided integrals is not one-dimensional."""


class DegeneratePairing(HopfForgeError):
    """lambda(Lambda) = 0, so the pair cannot be normalized."""


# -- invariants -------------------------------------------------------------

class NonSplitting(HopfForgeError):
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

class NotAGroup(HopfForgeError):
    """Cayley table fails the group axioms."""


class BadParameters(HopfForgeError):
    """Invalid parameters for a zoo constructor."""
