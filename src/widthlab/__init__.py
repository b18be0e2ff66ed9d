"""Numerical laboratory for trigonometric approximation of convolution
classes, Kolmogorov widths of l_p balls, and asymptotic rate checks."""

from .classes import (
    PipelineReport,
    SearchReport,
    en_exact_l2,
    en_lower_search,
    lower_bound_pipeline,
)
from .errors import (
    ConfigError,
    DegenerateDataError,
    DimensionGuardError,
    GridTooCoarseError,
    InvalidDimensionError,
    InvalidExponentError,
    NonconvergenceError,
    OutOfBranchError,
    TruncationExceededError,
    UncoveredRegimeError,
    WidthlabError,
)
from .fourier import (
    Exponential,
    GridFunction,
    MultiplierKernel,
    PolyLog,
    Polynomial,
    Table,
    TrigPoly,
    analyze,
    apply_multiplier,
    convolution_constant,
    default_grid_size,
    eval_poly,
    synthesize,
)
from .norms import (
    best_approx,
    lp_norm,
    mz_ratio_stats,
    poly_lp_norm,
)
from .rates import (
    RateModel,
    RegimeVerdict,
    catalog_record,
    catalog_records,
    en_rate,
    fit_rate,
    optimality_verdict,
    width_rate,
)
from .widths import (
    BallWidthInstance,
    WidthEstimate,
    ball_width_bruteforce,
    coordinate_subspace_bound,
    phi_gluskin,
)

__version__ = "0.1.0"
