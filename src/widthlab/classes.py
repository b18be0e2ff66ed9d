"""Worst-case approximation of convolution classes by trigonometric
polynomials, and the projection -> sampling -> finite-ball-width chain that
produces the logarithmic lower bound.
"""

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidDimensionError, OutOfBranchError, TruncationExceededError
from .fourier import (
    MultiplierKernel,
    PolyLog,
    TrigPoly,
    _multiplier_rows,
    convolution_constant,
    default_grid_size,
    synthesize_rows,
)
# best_approx is also looked up as classes.best_approx.
from .norms import best_approx, best_approx_rows, poly_lp_norms  # noqa: F401
from .widths import BallWidthInstance, phi_gluskin

logger = logging.getLogger(__name__)

M_CAP = 10**6
# Candidates scored per batch.  Eight rows hold the quadrature's largest
# transforms (49,664-point midpoint grids at degree 96) near 3 MB per array;
# whole candidate phases ran no faster and took 16 MB per batch.
SEARCH_ROWS = 8


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


@dataclass(frozen=True)
class SearchReport:
    """The value of one en_lower_search, how many candidates it evaluated and
    which phase found the winner ("harmonic" with its k, "random",
    "perturbation", or "none" when every candidate scored 0)."""

    value: float
    evaluated: int
    winner: str
    k: int | None = None


def _class_errors(kernel, rows, p, q, n, grid):
    """best_approx errors in L_q of K * phi / ||phi||_p for candidate rows phi,
    scored SEARCH_ROWS rows at a time."""
    errors = []
    for i in range(0, len(rows), SEARCH_ROWS):
        block = rows[i : i + SEARCH_ROWS]
        norms = poly_lp_norms(block, p)
        # A zero row has a zero image, and so the value 0.
        norms = np.where(norms > 0.0, norms, np.inf)[:, None]
        image = convolution_constant() * _multiplier_rows(kernel, block) / norms
        errors.append(best_approx_rows(synthesize_rows(image, grid), n, q)[0])
    return np.concatenate(errors)


def en_lower_search(kernel, p, q, n, budget=100, seed=0, detail=False):
    """Lower estimate of the worst-case T_n error over K * U_p in L_q.

    Maximizes best_approx(K * phi, n, q) over a candidate family of phi with
    unit L_p norm: the single harmonics n+1..n+8, then half the remaining
    budget in random polynomials, then perturbations of the best candidate,
    each kept when it scores higher.  Deterministic given the seed.

    Candidates are scored in batches of up to SEARCH_ROWS coefficient rows:
    one quadrature, one synthesis and one batched best_approx per batch.  The
    perturbations all keep the best candidate's degree, so their draws are
    made up front; after one is kept, the later draws are scored again about
    the new best, as a one-at-a-time search would score them.  With
    detail=True, returns a SearchReport instead of the value.
    """
    _check_degree(n)
    rng = np.random.default_rng(seed)
    degree = min(max(2 * n, n + 8), kernel.truncation)
    grid = default_grid_size(degree)
    best = SearchReport(0.0, 0, "none")
    best_phi = None

    ks = np.arange(n + 1, min(n + 9, kernel.truncation + 1))[: max(budget, 0)]
    if len(ks):
        rows = np.zeros((len(ks), 2 * ks[-1] + 1))
        rows[np.arange(len(ks)), ks] = 1.0
        vals = _class_errors(kernel, rows, p, q, n, grid)
        i = int(np.argmax(vals))
        if vals[i] > best.value:
            best = SearchReport(float(vals[i]), 0, "harmonic", int(ks[i]))
            best_phi = TrigPoly.harmonic(best.k).coeff_vector()
    evals = len(ks)

    n_random = max(0, (budget - evals) // 2)
    if n_random:
        rows = rng.standard_normal((n_random, 2 * degree + 1))
        vals = _class_errors(kernel, rows, p, q, n, grid)
        i = int(np.argmax(vals))
        if vals[i] > best.value:
            best = SearchReport(float(vals[i]), 0, "random")
            best_phi = rows[i]
        evals += n_random

    if best_phi is not None and evals < budget:
        perts = []
        for _ in range(budget - evals):
            scale = 0.3 * rng.random()
            perts.append(rng.standard_normal(len(best_phi)) * scale)
        perts = np.array(perts)
        evals = budget
        i = 0
        while i < len(perts):
            block = perts[i : i + SEARCH_ROWS]
            vals = _class_errors(kernel, best_phi + block, p, q, n, grid)
            kept = np.flatnonzero(vals > best.value)
            if not len(kept):
                i += SEARCH_ROWS
                continue
            # Keep the first better draw; the draws after it are scored
            # again about the new best.
            best = SearchReport(float(vals[kept[0]]), 0, "perturbation")
            best_phi = best_phi + block[kept[0]]
            i += int(kept[0]) + 1

    best = replace(best, evaluated=evals)
    return best if detail else best.value


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
