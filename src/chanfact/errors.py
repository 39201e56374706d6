"""Exception types shared across the package."""


class ChanfactError(Exception):
    """Base class for every domain error raised by this package."""


class DimensionMismatch(ChanfactError):
    """Operands have incompatible shapes for the requested operation."""


class NotHermitian(ChanfactError):
    """A matrix required to be Hermitian is not, within tolerance."""


class NotPSD(ChanfactError):
    """A matrix required to be positive semidefinite has a negative eigenvalue."""


class NoConvergence(ChanfactError):
    """An iterative eigenvalue or factorization routine failed to converge."""


class NotIsometry(ChanfactError):
    pass


class NotUnitary(ChanfactError):
    pass


class NotTracePreserving(ChanfactError):
    pass


class DiagonalNotOne(ChanfactError):
    """A correlation matrix candidate has a diagonal entry away from 1."""


class RankTooHigh(ChanfactError):
    """An LMI solution exceeds the rank bound of the requested factor size."""


class DependentBasis(ChanfactError):
    """An LMI system basis is real-linearly dependent, so coordinates are not unique."""


class NotInSpan(ChanfactError):
    """A Gram matrix of blocks does not lie in the affine span of the system."""


class NotInSpectrahedron(ChanfactError):
    """A trace vector leaves the scalar solution set of the system."""


class TraceNotZero(ChanfactError):
    """An LMI point expected to be trace-orthonormal has a nonzero trace."""


class CertificateInvalid(ChanfactError):
    """A factorization certificate failed verification."""


class SchemaError(ChanfactError):
    """A JSON document does not match the expected schema."""
