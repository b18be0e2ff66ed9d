"""Numerical laboratory for trigonometric approximation of convolution
classes, Kolmogorov widths of l_p balls, and asymptotic rate checks.

Names and submodules load on first use (PEP 562), so a run that needs only
the closed forms, the rate fit (``rates``) or the kernel model and its
closed-form errors (``classes``) never imports numpy.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "classes": (
        "Exponential", "MultiplierKernel", "PolyLog", "Polynomial", "SearchReport", "convolution_constant",
        "en_lower_search",
    ),
    "errors": (
        "ConfigError", "DegenerateDataError", "DimensionGuardError", "GridTooCoarseError",
        "InvalidDimensionError", "InvalidExponentError", "NonconvergenceError", "OutOfBranchError",
        "TruncationExceededError", "UncoveredRegimeError", "WidthlabError",
    ),
    "fourier": (
        "GridFunction", "TrigPoly", "analyze", "apply_multiplier", "default_grid_size", "eval_poly", "synthesize",
    ),
    "norms": ("best_approx", "lp_norm", "mz_ratio_stats", "poly_lp_norm"),
    "rates": (
        "BallWidthInstance", "PipelineReport", "RateModel", "RegimeVerdict", "WidthEstimate",
        "catalog_record", "catalog_records", "coordinate_subspace_bound", "en_rate", "fit_rate",
        "lower_bound_pipeline", "optimality_verdict", "phi_gluskin", "width_rate",
    ),
    "widths": ("ball_width_bruteforce",),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _HOMES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
