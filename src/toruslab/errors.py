"""Exception types shared across the package."""


class TorusLabError(Exception):
    """Base class for all package-specific errors."""


class NonPositivePeriod(TorusLabError):
    """Imaginary part of the period matrix is not positive definite."""


class UnsupportedDimension(TorusLabError):
    """Requested construction is not available in this fiber dimension."""


class DiscMismatch(TorusLabError):
    """Discretization kind does not match the bundle kind."""


class BidegreeOverflow(TorusLabError):
    """Target bidegree falls outside 0 <= p, q <= n."""


class BidegreeUnderflow(TorusLabError):
    """Contraction requested on a form without the needed degree."""


class ShapeMismatch(TorusLabError):
    """Operands live in incompatible spaces."""


class EigenFailure(TorusLabError):
    """Eigenvalue solver did not converge."""


class NotCoexact(TorusLabError):
    """Right-hand side has a nonzero harmonic part."""


class NotClosed(TorusLabError):
    """Right-hand side is not dbar-closed."""


class EmptySpectrum(TorusLabError):
    """No eigenvalue above the kernel threshold."""


class ExtensionNotAdmissible(TorusLabError):
    """Extension violates the admissibility residual bound."""


class NotPrimitive(TorusLabError):
    """Form fails the primitivity precondition."""


class CurvatureNotInvertible(TorusLabError):
    """The curvature commutator is numerically singular."""


class StepTooSmall(TorusLabError):
    """Finite-difference step hits catastrophic cancellation."""


class RankJump(TorusLabError):
    """Projector rank changes inside the finite-difference stencil."""


class SingularBlock(TorusLabError):
    """Schur-complement pivot block is numerically singular."""


class StencilQuadratureFailure(TorusLabError):
    """Gram-matrix stencil is unusable (quadrature or conditioning failure)."""


class ConfigInvalid(TorusLabError):
    """Experiment configuration failed schema validation."""
