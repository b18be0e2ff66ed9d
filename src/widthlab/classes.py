"""Worst-case approximation of convolution classes by trigonometric
polynomials: exact at p = q = 2, else a closed-form lower estimate from the
harmonics just above degree n.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimensionError, InvalidExponentError, TruncationExceededError
from .fourier import convolution_constant
# best_approx is also looked up as classes.best_approx.
from .norms import best_approx  # noqa: F401


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

    The largest exact error of the unit-norm members K * cos kx / ||cos||_p,
    k = n+1..n+8 up to the truncation (0 when none lies within it):
    convolution_constant() lambda_k ||cos||_q / ||cos||_p, as for k > n the
    best L_q approximation of cos kx from T_n is 0.  Proof: the best
    approximations form a convex set that x -> x + 2pi/k maps onto itself;
    averaging one over those k shifts leaves a constant c, also a best
    approximation; x -> x + pi/k maps cos kx to -cos kx, so -c is one too,
    and by convexity so is 0.  Returns a SearchReport.
    """
    _check_degree(n)
    if not (1 <= p < np.inf and 1 < q < np.inf):
        raise InvalidExponentError(f"need 1 <= p < inf and 1 < q < inf, got p={p}, q={q}")
    lam = kernel.lambdas(min(n + 8, kernel.truncation))[n:]  # lambda_k, k = n+1..min(n+8, truncation)
    value = convolution_constant() * float(np.max(lam, initial=0.0)) * _cos_lp_norm(q) / _cos_lp_norm(p)
    if value > 0.0:
        return SearchReport(value, len(lam), "harmonic", n + 1 + int(np.argmax(lam)))
    return SearchReport(0.0, len(lam), "none")
