"""Exception types shared across the package."""


class WidthlabError(Exception):
    """Base class for all widthlab errors."""


class ConfigError(WidthlabError):
    """Invalid experiment configuration."""


class GridTooCoarseError(WidthlabError):
    """The sampling grid cannot resolve the requested degree."""


class TruncationExceededError(WidthlabError):
    """A polynomial degree exceeds the kernel's coefficient truncation."""


class InvalidExponentError(WidthlabError):
    """Norm or approximation exponent outside the supported range."""


class OutOfBranchError(WidthlabError):
    """(p, q) pair outside the branches a formula is stated for."""


class UncoveredRegimeError(WidthlabError):
    """Parameter cell not covered by any rate-table row."""


class DegenerateDataError(WidthlabError):
    """Data unusable for rate fitting (constant or nonpositive)."""


class NonconvergenceError(WidthlabError):
    """Iterative solver failed to reach tolerance.

    Carries the iteration diagnostics dict in ``self.diagnostics``.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class InvalidDimensionError(WidthlabError):
    """Dimension or subspace size outside the range a problem is defined for."""


class DimensionGuardError(WidthlabError):
    """Brute-force width requested above the desk-scale dimension guard."""
