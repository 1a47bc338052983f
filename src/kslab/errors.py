"""Exception types shared across the package.

Numerical failures are deliberately loud: every guard that trips raises a
typed exception carrying enough context to diagnose the run, and the CLI
maps the hierarchy onto exit codes.
"""


class KslabError(Exception):
    """Base class for all package errors."""


class ConfigError(KslabError):
    """Malformed user input: bad potential config, bad flag combination."""


class MissingPrerequisite(KslabError):
    """An operation needs an artifact (integral table, cache file) that is absent."""


class NumericalError(KslabError):
    """Base class for numerical failures."""


class NotStable(NumericalError):
    """Probe configurations found energies drifting below any linear bound."""


class NotRegular(NumericalError):
    """The Mayer integrand does not have a finite integral."""


class UseSampling(NumericalError):
    """Tensor quadrature refused: dimension times particle count exceeds the cap."""

    def __init__(self, message, dim_total=None, cap=None):
        super().__init__(message)
        self.dim_total = dim_total
        self.cap = cap


class Degenerate(NumericalError):
    """Polynomial has no usable zeros (all coefficients beyond the constant vanish)."""


class NearPole(NumericalError):
    """Evaluation point is numerically on top of a partition zero."""

    def __init__(self, message, z=None, nearest_zero=None):
        super().__init__(message)
        self.z = z
        self.nearest_zero = nearest_zero


class ContourError(NumericalError):
    """Circular contour cannot separate the target eigenvalue group."""


class BranchError(NumericalError):
    """Activity lies beyond the branch point of the pressure equation."""

    def __init__(self, message, z=None, branch_point=None):
        super().__init__(message)
        self.z = z
        self.branch_point = branch_point


class InsufficientData(NumericalError):
    """Not enough usable series coefficients for the requested estimate."""
