"""Exception hierarchy shared by all pontgap modules."""


class PontgapError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(PontgapError):
    """Input fails a structural invariant (shape, symmetry, finiteness)."""


class DimensionMismatchError(ValidationError):
    """Operands have incompatible shapes or live in different spaces."""


class NonHermitianError(ValidationError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class SingularMatrixError(ValidationError):
    """A matrix required to be invertible is singular to tolerance.

    Carries the smallest singular value in ``smallest_singular_value``.
    """

    def __init__(self, message, smallest_singular_value):
        super().__init__(message)
        self.smallest_singular_value = smallest_singular_value


class SpectrumSymmetryError(ValidationError):
    """Computed spectrum is not closed under complex conjugation."""


class EigensolverError(PontgapError):
    """The underlying eigenvalue iteration failed to converge."""


class IllPosedIntervalError(ValidationError):
    """Interval bounds do not describe a nonempty open interval."""


class EndpointInSpectrumError(PontgapError):
    """An interval endpoint is ambiguously close to an eigenvalue.

    Counting eigenvalues against such an interval is ill-posed: the
    affected eigenvalue cannot be assigned a side of the endpoint.
    """

    def __init__(self, message, endpoint=None, eigenvalue=None, distance=None):
        super().__init__(message)
        self.endpoint = endpoint
        self.eigenvalue = eigenvalue
        self.distance = distance


class PreconditionError(PontgapError):
    """A documented mathematical precondition does not hold."""


class InertiaMismatchError(PontgapError):
    """A computed inertia differs from the value forced by theory.

    Carries the offending ``(plus, minus, zero)`` triple in ``inertia``.
    """

    def __init__(self, message, inertia=None):
        super().__init__(message)
        self.inertia = inertia


class NumericalDefectError(PontgapError):
    """A quantity that is exact in theory degraded past repair.

    Raised e.g. when a root-subspace dimension disagrees with the
    algebraic multiplicity or a full-space basis fails to be invertible.
    """


class ResampleBudgetError(PontgapError):
    """Random generation exhausted its resampling budget."""


class DeltaPrimeSearchError(PontgapError):
    """No admissible inner interval endpoints found by the sweep."""


class InstanceFormatError(ValidationError):
    """An instance file violates the JSON schema."""
