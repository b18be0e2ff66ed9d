"""Worst-case approximation of convolution classes by trigonometric
polynomials, and the projection -> sampling -> finite-ball-width chain that
produces the logarithmic lower bound.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDimensionError, OutOfBranchError, TruncationExceededError
from .fourier import (
    MultiplierKernel,
    PolyLog,
    TrigPoly,
    apply_multiplier,
    convolution_constant,
    default_grid_size,
    synthesize,
)
from .norms import best_approx, poly_lp_norm
from .widths import BallWidthInstance, phi_gluskin

logger = logging.getLogger(__name__)

M_CAP = 10**6


def _check_degree(n):
    if n < 0:
        raise InvalidDimensionError(f"need degree n >= 0, got n={n}")


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


def en_lower_search(kernel, p, q, n, budget=100, seed=0):
    """Lower estimate of the worst-case T_n error over K * U_p in L_q.

    Maximizes best_approx(K * phi, n, q) over a candidate family of phi with
    unit L_p norm: single harmonics beyond degree n, random polynomials, and
    perturbation-improved candidates.  Deterministic given the seed.
    """
    _check_degree(n)
    rng = np.random.default_rng(seed)
    const = convolution_constant()
    degree = min(max(2 * n, n + 8), kernel.truncation)
    grid = default_grid_size(degree)

    def class_error(phi):
        norm = poly_lp_norm(phi, p)
        if norm == 0.0:
            return 0.0
        f_poly = apply_multiplier(kernel, phi)
        f_poly = TrigPoly(0.0, const * f_poly.a / norm, const * f_poly.b / norm)
        err, _ = best_approx(synthesize(f_poly, grid), n, q)
        return err

    evals = 0
    best_val = 0.0
    best_phi = None
    for k in range(n + 1, min(n + 9, kernel.truncation + 1)):
        if evals >= budget:
            break
        val = class_error(TrigPoly.harmonic(k))
        evals += 1
        if val > best_val:
            best_val, best_phi = val, TrigPoly.harmonic(k)

    n_random = max(0, (budget - evals) // 2)
    for _ in range(n_random):
        coeffs = rng.standard_normal(2 * degree + 1)
        phi = TrigPoly(coeffs[0], coeffs[1 : degree + 1], coeffs[degree + 1 :])
        val = class_error(phi)
        evals += 1
        if val > best_val:
            best_val, best_phi = val, phi

    while evals < budget and best_phi is not None:
        scale = 0.3 * rng.random()
        pert = rng.standard_normal(2 * best_phi.degree + 1) * scale
        cand = TrigPoly(
            best_phi.a0 + pert[0],
            best_phi.a + pert[1 : best_phi.degree + 1],
            best_phi.b + pert[best_phi.degree + 1 :],
        )
        val = class_error(cand)
        evals += 1
        if val > best_val:
            best_val, best_phi = val, cand
    if evals >= budget:
        logger.debug("en_lower_search exhausted budget of %d evaluations", budget)
    return float(best_val)


@dataclass(frozen=True)
class PipelineReport:
    n: int
    m_chosen: int
    log_factor: float
    phi_value: float
    lower_bound: float
    notes: str = ""


def lower_bound_pipeline(gamma, p, q, n, m_override=None):
    """Logarithmic lower bound via projection, sampling and the finite width.

    Chooses m = ceil(n^{q/2}) unless overridden, then multiplies the sampling
    log factor (ln m)^{-gamma} by the closed-form finite-ball width order.
    """
    in_branch_one = 2.0 <= p <= q < np.inf
    in_branch_two = 1.0 < p < 2.0 <= q < np.inf
    if not (in_branch_one or in_branch_two):
        raise OutOfBranchError(f"(p, q) = ({p}, {q}) outside both proof branches")
    if n < 2:
        raise OutOfBranchError("pipeline needs n >= 2")
    notes = []
    if m_override is not None:
        m = int(m_override)
    else:
        # q = 2 would give m = n; the width step needs m > n.
        m = max(math.ceil(n ** (q / 2.0)), n + 1)
        if m > M_CAP:
            m = M_CAP
            notes.append(f"m capped at {M_CAP}")
            logger.warning("pipeline m capped at %d for n=%d, q=%g", M_CAP, n, q)
    log_factor = math.log(m) ** (-gamma)
    phi_value = phi_gluskin(BallWidthInstance(m, n, p, q))
    return PipelineReport(
        n=n,
        m_chosen=m,
        log_factor=log_factor,
        phi_value=phi_value,
        lower_bound=log_factor * phi_value,
        notes="; ".join(notes),
    )


@dataclass(frozen=True)
class OptimalityReport:
    n_list: tuple
    upper: tuple
    lower: tuple
    ratios: tuple
    spread: float
    threshold: float
    verdict: str
    upper_label: str
    reference: tuple = field(default=())


def optimality_gap(gamma, p, q, n_list, budget=60, seed=0, threshold=4.0, rho=None):
    """Pair upper estimates with pipeline lower bounds over a range of n.

    The kernel is the slow-decay family lambda_k = k^{-rho} ln(k+1)^{-gamma}
    with rho = (1/p - 1/q)_+.  At p = q = 2 the upper estimate is exact;
    otherwise the catalog rate (ln n)^{-gamma} is the reference curve and the
    candidate search provides a floor.
    """
    if rho is None:
        rho = max(0.0, 1.0 / p - 1.0 / q)
    trunc = max(4096, 2 * (max(n_list) + 2))
    kernel = MultiplierKernel(PolyLog(rho, gamma), truncation=trunc)
    uppers, lowers, reference = [], [], []
    exact = p == 2.0 and q == 2.0
    seeds = np.random.SeedSequence(seed).spawn(len(n_list))
    for idx, n in enumerate(n_list):
        if exact:
            upper = en_exact_l2(kernel, n)
        else:
            upper = math.log(n) ** (-gamma) if n > 1 else float("inf")
            floor = en_lower_search(kernel, p, q, n, budget=budget, seed=seeds[idx])
            reference.append(floor)
        report = lower_bound_pipeline(gamma, p, q, n)
        uppers.append(upper)
        lowers.append(report.lower_bound)
    ratios = [u / l for u, l in zip(uppers, lowers)]
    spread = max(ratios) / min(ratios)
    verdict = "order-consistent" if spread <= threshold else "inconclusive"
    return OptimalityReport(
        n_list=tuple(n_list),
        upper=tuple(uppers),
        lower=tuple(lowers),
        ratios=tuple(ratios),
        spread=float(spread),
        threshold=float(threshold),
        verdict=verdict,
        upper_label="exact-l2" if exact else "catalog-rate (search floor in reference)",
        reference=tuple(reference),
    )
