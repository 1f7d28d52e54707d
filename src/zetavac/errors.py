"""Exception types shared across the package."""


class NonHermitianInput(ValueError):
    """A matrix violated Hermitian symmetry beyond tolerance."""


class ConvergenceFailure(RuntimeError):
    """An eigensolver failed to converge."""


class SingularFunctionValue(ValueError):
    """A scalar function evaluated to a non-finite value on the spectrum."""


class HermiticityViolation(ValueError):
    """A matrix-element function is not conjugate-symmetric."""


class DimensionMismatch(ValueError):
    pass


class GridTooSmall(ValueError):
    """The reference grid is too small for the requested truncation sweep."""


class NotPowerOfTwo(ValueError):
    pass


class GammaPole(ValueError):
    """Gamma evaluated at a non-positive integer."""


class SeriesDivergence(ArithmeticError):
    """Partial sums fail the ratio test at the given parameters."""


class OutOfFloatRange(ArithmeticError):
    """A closed-form term, a VQE energy or gradient, a strong-probe residual,
    a Sobolev-weighted Schatten-probe operator or an eigenvalue of
    ``eig_hermitian`` leaves the float range."""


class NonPositiveSpectrum(ValueError):
    """An operation required a positive-definite operator."""


class DenominatorNearZero(ArithmeticError):
    pass


class ParamLengthMismatch(ValueError):
    pass


class SpecMismatch(ValueError):
    """Two ansatz specifications are not compatible for embedding."""


class ZeroReference(ValueError):
    pass


class DegenerateFit(ValueError):
    """Fit data carries no usable signal (too few or constant errors)."""

