"""Exception hierarchy.

Two families matter to callers: precondition violations (the requested
operation was never applicable) and certification failures (the operation ran
but its numerical certificate did not meet tolerance).  The CLI maps them to
distinct exit codes.
"""


class AlgpathsError(Exception):
    """Base class for all package errors."""


class PreconditionError(AlgpathsError):
    """The inputs violate a documented precondition."""


class CertificationError(AlgpathsError):
    """A computed certificate exceeded its tolerance."""


# -- precondition violations -------------------------------------------------

class MultipleRoots(PreconditionError):
    """Two requested roots coincide (or nearly coincide)."""


class EmptyRealPart(PreconditionError):
    """A self-adjoint reduction was requested but no root is real."""


class BadSignature(PreconditionError):
    """A rank vector is inconsistent with the root system or dimension."""


class DimMismatch(PreconditionError):
    """Two elements live in matrix algebras of different sizes."""


class RootMismatch(PreconditionError):
    """Two elements were built over different root systems."""


class NotSameComponent(PreconditionError):
    """A connecting construction needs equal rank signatures."""


class NotLocallyClose(PreconditionError):
    """The pair is too far apart for the single-exponential construction."""


class NotNearIdentity(PreconditionError):
    """The series logarithm needs an argument close to the identity."""


class NotSelfAdjoint(PreconditionError):
    """A self-adjoint construction received a non-Hermitian element."""


class CentralElement(PreconditionError):
    """The element is a scalar; its component is a single point."""


# -- certification failures --------------------------------------------------

class NotAlgebraic(CertificationError):
    """The residual of the defining polynomial exceeds tolerance."""

    def __init__(self, residual, tol):
        self.residual = residual
        self.tol = tol
        super().__init__(f"residual {residual:.3e} exceeds tolerance {tol:.3e}")


class MagnitudeOverflow(CertificationError):
    """The magnitude scale of a residual check is not finite.

    A tolerance scaled by an infinite or NaN magnitude would pass every
    residual, so the check cannot be made at all.
    """


class ResolutionResidualExceeded(CertificationError):
    """A spectral idempotent failed an invariant check."""


class RankAmbiguous(CertificationError):
    """A singular value sits too close to the rank threshold."""


class SearchExhausted(CertificationError):
    """No candidate direction survived certification."""


class FactorizationFailed(CertificationError):
    """A unitary factor has a phase at the branch cut and retries ran out."""


class SubspaceSplitFailed(CertificationError):
    """An intermediate subspace configuration is degenerate."""


class CertificationFailed(CertificationError):
    """A path failed re-certification.

    Carries the worst offender so reports can point at the exact segment,
    coefficient, or sample parameter.
    """

    def __init__(self, message, *, segment=None, coefficient=None, sample_t=None, value=None):
        self.segment = segment
        self.coefficient = coefficient
        self.sample_t = sample_t
        self.value = value
        super().__init__(message)
