"""Exception types shared across the laboratory modules."""


class CmcLabError(Exception):
    """Base class for all cmclab errors."""


class NonConvergence(CmcLabError):
    """An iterative solve (Newton projection, critical-point search) failed.

    Solver state at exit, None where unknown: ``iterations``, the number of
    ``unconverged`` rows, and their worst ``distance`` and ``line_residual``."""

    def __init__(self, message, iterations=None, unconverged=None, distance=None,
                 line_residual=None):
        super().__init__(message)
        self.iterations, self.unconverged = iterations, unconverged
        self.distance, self.line_residual = distance, line_residual


class DegenerateGradient(CmcLabError):
    """The level-set gradient vanished where a normal was required."""


class BoundaryOffDomain(CmcLabError):
    """A map's boundary samples do not lie on the container boundary."""


class ChartTooLarge(CmcLabError):
    """Requested straightening chart exceeds the tubular-neighborhood bound."""


class PoleInput(CmcLabError):
    """Stereographic projection evaluated at its pole."""


class ReducibleFraction(CmcLabError):
    """P/Q failed the irreducibility (resultant) test."""


class BelowThreshold(CmcLabError):
    """Extraction statistic fell below the stopping threshold."""


class FitDiverged(CmcLabError):
    """Bubble fit ended with unacceptable relative residual."""


class BudgetExceeded(CmcLabError):
    """Fitted bubbles claim more energy than the map contains."""


class BoundaryMismatch(CmcLabError):
    """Spanning surface boundary does not match the given trace."""


class SingularSystem(CmcLabError):
    """Direct sparse solve hit a singular matrix."""


class FormatError(CmcLabError):
    """Malformed DMAP or configuration input."""
