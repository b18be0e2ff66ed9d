"""L_p norms, best approximation from T_n in L_q, and equispaced sampling.

_lq_regress is the package's one L_q solver: batched iteratively reweighted
least squares (Burrus, Barreto & Selesnick, IEEE TSP 1994) over data rows
sharing one basis.  best_approx_rows runs it on the 2n+1 trigonometric basis
coefficients of many sample rows at once, warm-started from their Fourier
partial sums (already the exact q = 2 minimizers); best_approx is its
one-row case.  The p = 1 brute-force widths run it on the vertices of the
l_1 ball.
"""

import os

import numpy as np

from .errors import (
    GridTooCoarseError,
    InvalidExponentError,
    NonconvergenceError,
)
from .fourier import TrigPoly, _analyze_rows, analyze, synthesize_rows

QUADRATURE_TOL = 1e-10
QUADRATURE_CAP = 2**16
# The screening tolerance and band multiple of mz_ratio_stats.
MZ_SCREEN_TOL = 1e-5
MZ_BAND = 100.0
# Most samples synthesized at once, over all workers: a level's rows run in
# blocks of at most QUADRATURE_BLOCK // _WORKERS samples each, one block per
# worker thread (numpy's FFT and ufuncs release the GIL).  It also bounds one
# block of best_approx_rows' weighted basis.
QUADRATURE_BLOCK = 2**20
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_pool = None  # created by the first level that splits into blocks
IRLS_TOL = 1e-10
IRLS_MAX_ITER = 200


def _trapezoid_lp(samples, p):
    """Trapezoidal L_p norms over [0, 2pi) of the samples along the last axis."""
    n = samples.shape[-1]
    return (2.0 * np.pi / n * np.sum(np.abs(samples) ** p, axis=-1)) ** (1.0 / p)


def lp_norm(f, p):
    """Trapezoidal L_p norm of a grid function over [0, 2pi)."""
    if p < 1:
        raise InvalidExponentError(f"p must be >= 1, got {p}")
    return float(_trapezoid_lp(f.samples, p))


def _block_power_sums(rows, n_grid, p, shift):
    x = synthesize_rows(rows, n_grid, shift)
    np.abs(x, out=x)
    np.power(x, p, out=x)
    return np.sum(x, axis=-1)


def _power_sums(coeffs, n_grid, p, shift=0.0):
    """Sums of |t|^p over the points 2pi (j + shift) / n_grid of coefficient rows.

    Rows run in blocks of whole rows holding at most QUADRATURE_BLOCK // _WORKERS
    samples, on a pool of _WORKERS threads when there are several.  Each row's
    transform and sum are independent of the other rows, so the sums do not
    depend on the blocking or the worker count.
    """
    global _pool
    rows = coeffs.reshape(-1, coeffs.shape[-1])
    step = max(1, QUADRATURE_BLOCK // _WORKERS // n_grid)
    blocks = [rows[i : i + step] for i in range(0, len(rows), step)]
    if len(blocks) > 1 and _WORKERS > 1:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor  # kept off the start-up path
            _pool = ThreadPoolExecutor(_WORKERS)
        sums = list(_pool.map(lambda block: _block_power_sums(block, n_grid, p, shift), blocks))
    else:
        sums = [_block_power_sums(block, n_grid, p, shift) for block in blocks]
    return np.concatenate(sums).reshape(coeffs.shape[:-1])


def _grid_lp(coeffs, n_grid, p):
    """Trapezoidal L_p norms of coefficient rows (a0, a, b) on an n_grid-point grid."""
    return (2.0 * np.pi / n_grid * _power_sums(coeffs, n_grid, p)) ** (1.0 / p)


def _quadrature_lp(coeffs, p, tol=QUADRATURE_TOL):
    """L_p norms of coefficient rows (a0, a, b), refining a shared grid until stable.

    Returns the norms, the final grid and each row's change over the last
    doubling.  |t|^p is not band-limited for non-even p, so the grid is
    doubled until no row's norm moves by more than tol relative, or the grid
    reaches QUADRATURE_CAP; the change is inf where no doubling ran.  The
    ladder starts on a power of two, so it stops at the cap exactly.  It is
    nested: each doubling synthesizes only the midpoints of the old grid and
    adds their power sums to the old ones.  For even integer p, |t|^p is a
    trig polynomial, and one exact grid suffices: the change is 0, or inf
    where the cap stops the grid short of exact.
    """
    m = (coeffs.shape[-1] - 1) // 2
    # Even integer p: |t|^p has degree p*m, so the first grid with more than
    # p*m points integrates it exactly (below the cap, which bounds the work
    # for huge p).
    if p == int(p) and int(p) % 2 == 0:
        n_grid = max(256, 4 * (m + 1))
        while n_grid <= p * m and n_grid < QUADRATURE_CAP:
            n_grid *= 2
        norms = _grid_lp(coeffs, n_grid, p)
        return norms, n_grid, np.full(norms.shape, 0.0 if n_grid > p * m else np.inf)
    # The least power of two >= max(256, 4(m + 1)).
    n_grid = max(256, 1 << (4 * m + 3).bit_length())
    sums = _power_sums(coeffs, n_grid, p)
    cur = (2.0 * np.pi / n_grid * sums) ** (1.0 / p)
    change = np.full(cur.shape, np.inf)
    while n_grid < QUADRATURE_CAP:
        sums = sums + _power_sums(coeffs, n_grid, p, shift=0.5)
        n_grid *= 2
        prev, cur = cur, (2.0 * np.pi / n_grid * sums) ** (1.0 / p)
        change = np.abs(cur - prev)
        if np.all(change <= tol * cur):
            break
    return cur, n_grid, change


def poly_lp_norms(coeffs, p):
    """L_p norms of coefficient rows (a0, a, b) by grid-refined quadrature."""
    if not 1 <= p < np.inf:
        raise InvalidExponentError(f"p must be finite and >= 1, got {p}")
    return _quadrature_lp(np.asarray(coeffs, dtype=float), p)[0]


def poly_lp_norm(t, p):
    """L_p norm of a trigonometric polynomial: the one-row case of poly_lp_norms."""
    return float(poly_lp_norms(t.coeff_vector(), p))


def _design_matrix(x, n):
    k = np.arange(1, n + 1)
    kx = np.multiply.outer(x, k)
    return np.hstack([np.ones((len(x), 1)), np.cos(kx), np.sin(kx)])


def _lq_regress(phi, x, q, c):
    """Batched IRLS for min_c ||x_i - phi c_i||_q over the rows x_i, from the
    start rows c; returns the coefficient rows and a converged flag.

    Every step is taken in full, damped to the Newton step 1/(q-1) for q > 2,
    which keeps the iteration contractive.  The solve stops when the largest
    coefficient step, or every row's change in l_q error, is at most IRLS_TOL
    relative; it is unconverged after IRLS_MAX_ITER steps.  The error can
    settle while a coefficient is still off next to a sample of huge weight
    |r|^(q-2), so that exit also needs each row's first-order residual
    max_k |phi_k . sign(r)|r|^(q-1)| to be at most 1e-6 sum |r|^(q-1).  The
    problem is scale-invariant, so the loop runs on data scaled to a largest
    entry of 1, which makes the weight floor 1e-12 and the step test relative
    too.
    """
    scale = float(np.max(np.abs(x))) or 1.0
    x, c = x / scale, c / scale
    damping = 1.0 if q <= 2.0 else 1.0 / (q - 1.0)
    resid = x - c @ phi.T
    err = np.sum(np.abs(resid) ** q, axis=-1) ** (1.0 / q)
    for _ in range(IRLS_MAX_ITER):
        wphi = phi * (np.maximum(np.abs(resid), 1e-12) ** (q - 2.0))[..., None]
        c_ls = np.linalg.solve(phi.T @ wphi, np.swapaxes(wphi, -1, -2) @ x[..., None])[..., 0]
        delta = damping * (c_ls - c)
        c = c + delta
        resid = x - c @ phi.T
        err_new = np.sum(np.abs(resid) ** q, axis=-1) ** (1.0 / q)
        settled = np.all(np.abs(err_new - err) <= IRLS_TOL * err_new)
        if settled:
            power = np.abs(resid) ** (q - 1.0)
            grad = np.max(np.abs((np.sign(resid) * power) @ phi), axis=-1)
            settled = np.all(grad <= 1e-6 * np.sum(power, axis=-1))
        if settled or np.max(np.abs(delta)) <= IRLS_TOL * max(1.0, np.max(np.abs(c))):
            return c * scale, True
        err = err_new
    return c * scale, False


def best_approx_rows(samples, n, q, start=None):
    """Best approximations from T_n in L_q of sample rows on one uniform grid.

    Returns the L_q errors and the argmin coefficient rows (a0, a, b).  The
    start rows default to the Fourier partial sums, already the q = 2
    answers; other q reweight from there (_lq_regress), in blocks of rows
    whose weighted basis (rows x grid points x basis functions) holds at most
    QUADRATURE_BLOCK samples.  Convex in the coefficients for 1 < q < infinity.
    """
    if not 1.0 < q < np.inf:
        raise InvalidExponentError(f"q must lie in (1, inf), got {q}")
    samples = np.asarray(samples, dtype=float)
    size = samples.shape[-1]
    if size < 2 * n + 1:
        raise GridTooCoarseError(f"grid of {size} points too coarse for degree {n}")

    c = _analyze_rows(samples, n) if start is None else start
    phi = _design_matrix(2.0 * np.pi * np.arange(size) / size, n)
    converged = True
    if q != 2.0:
        step = max(1, QUADRATURE_BLOCK // phi.size)
        blocks = [
            _lq_regress(phi, samples[i : i + step], q, c[i : i + step]) for i in range(0, len(samples), step)
        ]
        c = np.concatenate([block for block, _ in blocks])
        converged = all(ok for _, ok in blocks)
    errors = _trapezoid_lp(samples - c @ phi.T, q)
    if not converged:
        raise NonconvergenceError(
            "best_approx IRLS did not converge",
            diagnostics={"iterations": IRLS_MAX_ITER, "error": float(np.max(errors)), "q": q, "n": n},
        )
    return errors, c


def best_approx(f, n, q):
    """Best approximation of f from T_n in L_q; returns (error, argmin).

    The one-row case of best_approx_rows, started from analyze(f, n).
    """
    (err,), (c,) = best_approx_rows(f.samples[None, :], n, q, analyze(f, n).coeff_vector()[None, :])
    return float(err), TrigPoly.from_coeffs(c)


def _check_mz(m, p):
    if m < 1:
        raise InvalidExponentError("sampling needs degree m >= 1")
    if not 1.0 < p < np.inf:
        raise InvalidExponentError(f"p must lie in (1, inf), got {p}")


def _random_unit_polys(m, trials, rng):
    """Coefficient vectors drawn uniformly from the unit sphere in R^{2m+1}."""
    coeffs = rng.standard_normal((trials, 2 * m + 1))
    coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
    return coeffs


def mz_ratio_stats(m, p, trials, seed):
    """Extremes of scaled-discrete-norm / continuous-norm over random polynomials.

    Deterministic given the seed; brackets the two-sided sampling constants
    empirically for one (m, p) cell.  Returns (min, max, quadrature), where
    quadrature holds the final grid of the extremes' continuous norms and
    whether they converged to QUADRATURE_TOL (else they stopped at
    QUADRATURE_CAP).

    Only the extremes are refined.  The ladder first runs on all rows until
    no norm moves by more than MZ_SCREEN_TOL relative, and each ratio gets a
    band of MZ_BAND times its norm's last relative change.  The rows whose
    band reaches the lowest or the highest band are refined alone.  If a
    refined ratio lands outside its own band, the bands are not trusted and
    every row is refined.
    """
    _check_mz(m, p)
    if trials < 1:
        raise InvalidExponentError("trials must be >= 1")
    coeffs = _random_unit_polys(m, trials, np.random.default_rng(seed))
    # The sampling points 2pi k/(2m+1), k = 1..2m+1, form the uniform grid.
    discrete = m ** (-1.0 / p) * _power_sums(coeffs, 2 * m + 1, p) ** (1.0 / p)
    screened, _, change = _quadrature_lp(coeffs, p, MZ_SCREEN_TOL)
    ratios = discrete / screened
    band = MZ_BAND * change / screened * ratios
    low, high = ratios - band, ratios + band
    rows = (low <= np.min(high)) | (high >= np.max(low))
    norms, grid, change = _quadrature_lp(coeffs[rows], p)
    refined = discrete[rows] / norms
    if np.any(np.abs(refined - ratios[rows]) > band[rows]):
        norms, grid, change = _quadrature_lp(coeffs, p)
        refined = discrete / norms
    converged = bool(np.all(change <= QUADRATURE_TOL * norms))
    return float(np.min(refined)), float(np.max(refined)), {"grid": grid, "converged": converged}
