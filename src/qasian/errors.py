"""Exception and warning types shared across the package."""


class QasianError(Exception):
    """Base class for all package errors."""


class ValidationError(QasianError):
    """Invalid market parameters or configuration."""


class InfeasibleScaleError(QasianError):
    """No time-register size satisfies the spacing constraints."""


class DimensionCapError(QasianError):
    """Requested dense operator exceeds the configured dimension cap."""


class SingularFactorError(QasianError):
    """A fast-invertible factor has an eigenvalue below the safe floor."""


class NormConvergenceError(QasianError):
    """A largest-singular-value run did not converge within its step bound."""


class AliasingError(QasianError):
    """Phase-estimation window too short for the spectrum's largest phase."""


class NodeCollisionError(QasianError):
    """Two Chebyshev nodes snapped to the same grid point and no free
    neighbour was available."""


class IllConditionedError(QasianError):
    """Interpolation matrix condition number exceeds the configured ceiling."""


class PostSelectionWarning(UserWarning):
    """Block-encoding post-selection probability below the configured floor."""


class NoiseDominationWarning(UserWarning):
    """A segment probability is below the square of the amplitude-estimation
    error, so the square-root noise dominates the estimate."""
