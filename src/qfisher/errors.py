"""Exception types raised by the numerical kernel and the scenario runner."""


class QFisherError(Exception):
    """Base class for all library errors."""


class InvalidMatrix(QFisherError):
    """Matrix input violates a structural requirement (finiteness, Hermiticity)."""


class InvalidConfig(QFisherError):
    """Model or scenario parameters are out of their valid range (CLI exit
    code 2)."""


class NotImplementedForEstimand(QFisherError):
    """The requested closed form exists only for the other estimand."""


class StepTooCoarse(QFisherError):
    """Time step violates the max ||H(t)||*dt <= 0.1 integrator precondition."""


class DimMismatch(QFisherError):
    """Operator/state dimensions are incompatible."""


class DegenerateDerivativeSpectrum(QFisherError):
    """The tracked operator is degenerate on too much of the time grid."""


class GaugeError(QFisherError):
    """Eigenvector gauge is inconsistent (non-Hermitian transport term)."""


class BasisError(QFisherError):
    """Extreme eigenvectors are not usable (e.g. not orthogonal)."""


class NumericalError(QFisherError):
    """A computed quantity left its mathematically allowed range."""


class AmbiguousPhase(QFisherError):
    """Initial guess is outside the single-valued arccos inversion window."""


class FitError(QFisherError):
    """Polynomial fit of the expansion coefficients is ill-conditioned."""


class InvalidFrequency(QFisherError):
    """Frame frequency must be nonzero to define boundary times (CLI exit
    code 2)."""


class ConfigError(QFisherError):
    """Scenario config file failed to parse or validate (CLI exit code 2)."""
