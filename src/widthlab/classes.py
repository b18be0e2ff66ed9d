"""Worst-case approximation of convolution classes by trigonometric
polynomials: exact at p = q = 2, else a lower estimate by a harmonic scan.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimensionError, InvalidExponentError, TruncationExceededError
from .fourier import _multiplier_rows, convolution_constant, default_grid_size, synthesize_rows
# best_approx is also looked up as classes.best_approx.
from .norms import best_approx, best_approx_rows  # noqa: F401


def _check_degree(n):
    if n < 0:
        raise InvalidDimensionError(f"need degree n >= 0, got n={n}")


def _cos_lp_norm(p):
    """||cos kx||_p over [0, 2pi), the same for every k >= 1: the p-th root of
    int |cos x|^p dx = 2 sqrt(pi) Gamma((p+1)/2) / Gamma(p/2+1)."""
    return (2.0 * math.sqrt(math.pi) * math.gamma((p + 1) / 2) / math.gamma(p / 2 + 1)) ** (1.0 / p)


def en_exact_l2(kernel, n):
    """Worst-case L_2 error of the degree-n partial sum over K * U_2.

    Equals the convolution constant times the largest coefficient beyond
    degree n (for nonincreasing coefficients that is lambda_{n+1}).
    """
    _check_degree(n)
    if n >= kernel.truncation:
        raise TruncationExceededError(
            f"n={n} not below kernel truncation {kernel.truncation}"
        )
    lam = kernel.lambdas()
    return convolution_constant() * float(np.max(lam[n:]))


@dataclass(frozen=True)
class SearchReport:
    """The value of one en_lower_search, how many harmonics it scored and the
    winner: "harmonic" with its k, or "none" when every harmonic scored 0 or
    none lies within the truncation."""

    value: float
    evaluated: int
    winner: str
    k: int | None = None


def en_lower_search(kernel, p, q, n):
    """Lower estimate of the worst-case T_n error over K * U_p in L_q.

    The largest best_approx error of K * phi / ||phi||_p over the harmonics
    phi = cos kx, k = n+1..n+8 up to the truncation, scored in one batch:
    the closed-form ||cos kx||_p, one synthesis and one batched best_approx on
    the grid sized for degree min(max(2n, n+8), truncation).  The value is the exact
    grid error of one unit-norm member of the class, or 0 when no harmonic
    lies within the truncation.  Returns a SearchReport.
    """
    _check_degree(n)
    if not (1 <= p < np.inf and 1 < q < np.inf):
        raise InvalidExponentError(f"need 1 <= p < inf and 1 < q < inf, got p={p}, q={q}")
    ks = np.arange(n + 1, min(n + 9, kernel.truncation + 1))
    if not len(ks):
        return SearchReport(0.0, 0, "none")
    grid = default_grid_size(min(max(2 * n, n + 8), kernel.truncation))
    rows = np.zeros((len(ks), 2 * ks[-1] + 1))
    rows[np.arange(len(ks)), ks] = 1.0
    image = convolution_constant() * _multiplier_rows(kernel, rows) / _cos_lp_norm(p)
    errors = best_approx_rows(synthesize_rows(image, grid), n, q)[0]
    i = int(np.argmax(errors))
    if errors[i] > 0.0:
        return SearchReport(float(errors[i]), len(ks), "harmonic", int(ks[i]))
    return SearchReport(0.0, len(ks), "none")
