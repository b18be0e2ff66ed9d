"""Convolution classes K * U_p: the kernel model, and worst-case approximation
by trigonometric polynomials: one closed form, the best single harmonic beyond
degree n, which is the exact worst case at p = q = 2 and a lower estimate
elsewhere.

The coefficients come from `math`, one at a time, so nothing here imports
numpy; `fourier` turns them into an array where it needs one.
"""

import math
from collections import namedtuple

from .errors import InvalidDimensionError, InvalidExponentError


def __getattr__(name):
    # classes.best_approx is norms.best_approx, resolved on each lookup (never
    # cached here), so importing classes loads no numpy and a patched
    # norms.best_approx shows through.
    if name == "best_approx":
        from .norms import best_approx
        return best_approx
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Polynomial:
    """lambda_k = k^{-r}; monotone in k."""

    monotone = True

    def __init__(self, r):
        self.r = float(r)

    def coefficient(self, k):
        return k ** -self.r


class PolyLog:
    """lambda_k = k^{-rho} * ln(k+1)^{-gamma}; monotone in k unless rho and
    gamma have opposite signs.

    ln(k+1) rather than ln k keeps lambda_1 finite; same asymptotic order.
    """

    def __init__(self, rho, gamma):
        self.rho = float(rho)
        self.gamma = float(gamma)
        self.monotone = self.rho * self.gamma >= 0.0

    def coefficient(self, k):
        return k ** -self.rho * math.log(k + 1) ** -self.gamma


class Exponential:
    """lambda_k = exp(-mu * k^r); monotone in k."""

    monotone = True

    def __init__(self, mu, r):
        self.mu = float(mu)
        self.r = float(r)

    def coefficient(self, k):
        try:
            return math.exp(-self.mu * k**self.r)
        except OverflowError:  # k^r beyond the float range, or a growing kernel
            if self.mu < 0:
                raise
            return 0.0 if self.mu > 0 else 1.0


class MultiplierKernel:
    """Coefficient decay family (Polynomial, PolyLog or Exponential) cut off
    after `truncation` harmonics.

    A coefficient that overflows raises InvalidExponentError.  Construction
    evaluates lambda_1 and lambda_truncation, so no later one overflows: a
    monotone family peaks at one of them, and for k >= 2 a PolyLog with rho
    and gamma of opposite signs is at most its growing factor, which peaks at
    the truncation.
    """

    def __init__(self, family, truncation):
        if truncation < 1:
            raise InvalidDimensionError(f"'truncation' must be >= 1, got {truncation}")
        self.family, self.truncation = family, truncation
        self.coefficient(1)
        self.coefficient(truncation)

    def coefficient(self, k):
        try:
            lam = self.family.coefficient(k)
        except OverflowError:
            lam = math.inf
        if lam == math.inf:
            raise InvalidExponentError(f"kernel coefficient lambda_{k} overflows")
        return lam

    def lambdas(self, n=None):
        """lambda_1..lambda_n, by default up to the truncation."""
        if n is None:
            n = self.truncation
        return [self.coefficient(k) for k in range(1, n + 1)]

    def tail_argmax(self, n):
        """The first k with the largest lambda_k over n < k <= truncation, for
        0 <= n < truncation.

        A monotone family peaks at k = n+1 unless it grows, and then first
        reaches lambda_truncation at the k that bisection finds.
        """
        lo, hi = n + 1, self.truncation
        if not self.family.monotone:
            return max(range(lo, hi + 1), key=self.coefficient)
        top = self.coefficient(hi)
        if self.coefficient(lo) >= top:
            return lo
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if self.coefficient(mid) >= top else (mid, hi)
        return hi


def convolution_constant():
    """Ratio of convolution coefficients to the raw multiplier action.

    Convolving with cos kx integrates cos^2 to pi over a period,
    against the convolution's 1/2pi, so every coefficient comes out halved.
    """
    return 0.5


def _check_degree(n):
    if n < 0:
        raise InvalidDimensionError(f"need degree n >= 0, got n={n}")


def _check_exponents(p, q):
    """The (p, q) range of the lower estimate: 1 <= p < inf and 1 < q < inf."""
    if not (1 <= p < math.inf and 1 < q < math.inf):
        raise InvalidExponentError(f"need 1 <= p < inf and 1 < q < inf, got p={p}, q={q}")


def _cos_lp_norm(p):
    """||cos kx||_p over [0, 2pi), the same for every k >= 1: the p-th root of
    int |cos x|^p dx = 2 sqrt(pi) Gamma((p+1)/2) / Gamma(p/2+1).

    Above p = 341 Gamma overflows, and the ratio comes from lgamma instead.
    """
    try:
        integral = 2.0 * math.sqrt(math.pi) * math.gamma((p + 1) / 2) / math.gamma(p / 2 + 1)
    except OverflowError:
        log_integral = math.log(2.0 * math.sqrt(math.pi)) + math.lgamma((p + 1) / 2) - math.lgamma(p / 2 + 1)
        return math.exp(log_integral / p)
    return integral ** (1.0 / p)


class SearchReport(namedtuple("SearchReport", "value winner k", defaults=(None,))):
    """The value of one en_lower_search and its winner: "harmonic" with its k,
    or "none" when no harmonic lies within the truncation or the best scores 0."""

    __slots__ = ()


def en_lower_search(kernel, p, q, n):
    """Worst-case T_n error over K * U_p in L_q: exact at p = q = 2, else a
    lower estimate.

    The largest exact error of the unit-norm members K * cos kx / ||cos||_p,
    n < k <= truncation (0 when none lies within it): convolution_constant()
    lambda_k ||cos||_q / ||cos||_p, as for k > n the best L_q approximation of
    cos kx from T_n is 0.  Proof: the best approximations form a convex set
    that x -> x + 2pi/k maps onto itself; averaging one over those k shifts
    leaves a constant c, also a best approximation; x -> x + pi/k maps cos kx
    to -cos kx, so -c is one too, and by convexity so is 0.  At p = q = 2 no
    member of K * U_2 does better, by Parseval.  Returns a SearchReport.
    """
    _check_degree(n)
    _check_exponents(p, q)
    if n >= kernel.truncation:
        return SearchReport(0.0, "none")
    k = kernel.tail_argmax(n)
    value = convolution_constant() * kernel.coefficient(k)
    if p != q:
        value = value * _cos_lp_norm(q) / _cos_lp_norm(p)
    if value > 0.0:
        return SearchReport(value, "harmonic", k)
    return SearchReport(0.0, "none")
