"""Exception types shared across the package."""


class NonHermitianInput(ValueError):
    """A matrix violated Hermitian symmetry beyond tolerance."""


class ConvergenceFailure(RuntimeError):
    """An iterative solver exhausted its iteration budget.

    Carries the last residual in ``residual`` when available.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


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


class StalledOptimization(RuntimeError):
    """An optimizer ran out of iterations before converging; best-so-far attached.

    Not fatal: callers may restart from a perturbed point or accept
    ``params``/``energy`` as the result.
    """

    def __init__(self, message, params=None, energy=None, trace=None):
        super().__init__(message)
        self.params = params
        self.energy = energy
        self.trace = trace
