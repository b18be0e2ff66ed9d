"""L_p norms, best approximation from T_n in L_q, and equispaced sampling.

_lq_regress is the package's one L_q solver: batched iteratively reweighted
least squares (Burrus, Barreto & Selesnick, IEEE TSP 1994) over data rows
sharing one basis.  best_approx runs it on one sample row's 2n+1
trigonometric basis coefficients, warm-started from the Fourier partial sum
(already the exact q = 2 minimizer).  The p = 1 brute-force widths run it on
the vertices of the l_1 ball.
"""

import numpy as np

from .errors import InvalidExponentError, NonconvergenceError
from .fourier import TrigPoly, _design_matrix, analyze, synthesize_rows

QUADRATURE_TOL = 1e-10
QUADRATURE_CAP = 2**16
# The screening tolerance and band multiple of mz_ratio_stats.
MZ_SCREEN_TOL = 1e-5
MZ_BAND = 100.0
# Most samples synthesized at once: a grid level's rows run in blocks of at
# most QUADRATURE_BLOCK samples.  It also bounds one group of the widths
# ascent's problems.
QUADRATURE_BLOCK = 2**20
IRLS_TOL = 1e-10
IRLS_MAX_ITER = 200


def _trapezoid_lp(samples, p):
    """Trapezoidal L_p norms over [0, 2pi) of the samples along the last axis."""
    n = samples.shape[-1]
    return (2.0 * np.pi / n * np.sum(np.abs(samples) ** p, axis=-1)) ** (1.0 / p)


def _check_p(p):
    if not 1 <= p < np.inf:
        raise InvalidExponentError(f"p must be finite and >= 1, got {p}")


def lp_norm(f, p):
    """Trapezoidal L_p norm of a grid function over [0, 2pi)."""
    _check_p(p)
    return float(_trapezoid_lp(f.samples, p))


def _power_sums(coeffs, n_grid, p, shift=0.0):
    """Sums of |t|^p over the points 2pi (j + shift) / n_grid of coefficient rows.

    Rows run in blocks of whole rows holding at most QUADRATURE_BLOCK samples
    (a row longer than that runs alone).  Each row's transform and sum are
    independent of the other rows, so the sums do not depend on the blocking.
    """
    rows = coeffs.reshape(-1, coeffs.shape[-1])
    step = max(1, QUADRATURE_BLOCK // n_grid)
    sums = []
    for i in range(0, len(rows), step):
        x = synthesize_rows(rows[i : i + step], n_grid, shift)
        np.abs(x, out=x)
        np.power(x, p, out=x)
        sums.append(np.sum(x, axis=-1))
        del x  # freed before the next block is synthesized
    return np.concatenate(sums).reshape(coeffs.shape[:-1])


def _quadrature_lp(coeffs, p, tol=QUADRATURE_TOL):
    """L_p norms of coefficient rows (a0, a, b) on a shared grid ladder.

    Returns the norms, the final grid and each row's change over the last
    doubling.  The ladder starts on the least power of two >= max(256,
    4(m + 1)) and doubles no grid past QUADRATURE_CAP, which it reaches
    exactly (a degree m above 16383 starts beyond the cap and stays on its
    start grid).  For even integer p, |t|^p is a trig polynomial of degree p*m,
    so the ladder doubles straight to the first grid above p*m, which
    integrates it exactly: the change is 0, or inf where the cap stops the
    grid short.  For other p, |t|^p is not band-limited, so the grid doubles
    until no row's norm moves by more than tol relative, or it reaches the
    cap; the change is inf where no doubling ran.  This ladder is nested:
    each doubling synthesizes only the midpoints of the old grid and adds
    their power sums to the old ones.
    """
    m = (coeffs.shape[-1] - 1) // 2
    even = p == int(p) and int(p) % 2 == 0
    n_grid = max(256, 1 << (4 * m + 3).bit_length())
    while even and n_grid <= p * m and n_grid < QUADRATURE_CAP:
        n_grid *= 2
    sums = _power_sums(coeffs, n_grid, p)
    cur = (2.0 * np.pi / n_grid * sums) ** (1.0 / p)
    change = np.full(cur.shape, 0.0 if even and n_grid > p * m else np.inf)
    while not even and n_grid < QUADRATURE_CAP:
        sums = sums + _power_sums(coeffs, n_grid, p, shift=0.5)
        n_grid *= 2
        prev, cur = cur, (2.0 * np.pi / n_grid * sums) ** (1.0 / p)
        change = np.abs(cur - prev)
        if np.all(change <= tol * cur):
            break
    return cur, n_grid, change


def poly_lp_norm(t, p):
    """L_p norm of a trigonometric polynomial by grid-refined quadrature."""
    _check_p(p)
    return float(_quadrature_lp(t.coeff_vector(), p)[0])


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


def best_approx(f, n, q):
    """Best approximation of f from T_n in L_q; returns (error, argmin).

    Starts from the Fourier partial sum analyze(f, n), already the q = 2
    answer; other q reweight from there (_lq_regress).  Convex in the
    coefficients for 1 < q < infinity.
    """
    c = analyze(f, n).coeff_vector()[None, :]
    if not 1.0 < q < np.inf:
        raise InvalidExponentError(f"q must lie in (1, inf), got {q}")
    phi = _design_matrix(f.grid, n)
    converged = True
    if q != 2.0:
        c, converged = _lq_regress(phi, f.samples[None, :], q, c)
    # The 2-D product, as in _lq_regress: the 1-D c[0] @ phi.T can round
    # differently in the last place.
    err = float(_trapezoid_lp(f.samples - c @ phi.T, q)[0])
    if not converged:
        raise NonconvergenceError(
            "best_approx IRLS did not converge",
            diagnostics={"iterations": IRLS_MAX_ITER, "error": err, "q": q, "n": n},
        )
    return err, TrigPoly.from_coeffs(c[0])


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
