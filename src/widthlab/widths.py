"""Kolmogorov widths of l_p balls in l_q: the two-branch closed-form order
estimate and a desk-scale brute-force optimizer over subspaces.

The brute-force path parametrizes an n-dimensional subspace by an
orthonormalized m x n frame and runs multi-restart subgradient descent on
sup_{x in bd B_p} dist_q(x, span A).  The supremum of a convex function over
the ball sits at extreme points, so the inner maximization works from the
+-e_i vertices and random boundary points with projected ascent.  The
coordinate frame is always among the restarts, which keeps the result at or
below the explicit coordinate-subspace bound.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionGuardError,
    InvalidDimensionError,
    InvalidExponentError,
    OutOfBranchError,
)

DESK_SCALE_MAX_DIM = 8


@dataclass(frozen=True)
class BallWidthInstance:
    """Width of B_p^m in l_q^m approximated by n-dimensional subspaces."""

    m: int
    n: int
    p: float
    q: float

    def __post_init__(self):
        if not 0 <= self.n <= self.m:
            raise InvalidDimensionError(f"need 0 <= n <= m, got n={self.n}, m={self.m}")
        if self.p < 1 or self.q < 1:
            raise InvalidExponentError("exponents must be >= 1")


@dataclass(frozen=True)
class WidthEstimate:
    value: float
    direction: str  # 'upper-bound', 'lower-bound' or 'two-sided'
    method: str
    diagnostics: dict = field(default_factory=dict)


def phi_gluskin(inst):
    """Closed-form order of the width of B_p^m in l_q^m (two branches).

    Branch one covers 2 <= p <= q <= inf (p = q included; the exponent
    degenerates to 0 there and the value is 1), branch two covers
    1 <= p < 2 <= q <= inf.  Requires m > n; n = 0 clamps the min to 1.
    """
    m, n, p, q = inst.m, inst.n, inst.p, inst.q
    if m <= n:
        raise OutOfBranchError(f"need m > n, got m={m}, n={n}")
    inv_q = 0.0 if math.isinf(q) else 1.0 / q
    clamp = 1.0 if n == 0 else min(1.0, m**inv_q / math.sqrt(n))
    if 2.0 <= p <= q:
        if p == q:
            return 1.0
        exponent = (1.0 / p - inv_q) / (0.5 - inv_q)
        return clamp**exponent
    if 1.0 <= p < 2.0 <= q:
        return max(m ** (inv_q - 1.0 / p), clamp * math.sqrt(1.0 - n / m))
    raise OutOfBranchError(f"(p, q) = ({p}, {q}) outside both branches")


def coordinate_subspace_bound(inst):
    """Worst l_q distance from B_p^m to the span of the first n coordinates."""
    m, n, p, q = inst.m, inst.n, inst.p, inst.q
    if n == m:
        return 0.0
    if q < p:
        return float((m - n) ** (1.0 / q - 1.0 / p))
    return 1.0


def _normalize_rows_p(x, p):
    norms = np.sum(np.abs(x) ** p, axis=1) ** (1.0 / p)
    return x / norms[:, None]


def _dists_and_grads(frame, x, q, c0=None, max_iter=80):
    """l_q distances from rows of x to span(frame), plus gradients in x.

    frame has orthonormal columns.  Returns (dists, grads, coeffs) where grads
    are the envelope-theorem gradients of the distance at the optimal
    coefficients; pass the previous coefficients back in as c0 to warm-start.
    """
    if frame.shape[1] == 0:
        resid = x
        coeffs = np.zeros((len(x), 0))
    elif q == 2.0:
        coeffs = x @ frame
        resid = x - coeffs @ frame.T
    else:
        coeffs = _lq_regress(frame, x, q, c0=c0, max_iter=max_iter)
        resid = x - coeffs @ frame.T
    absr = np.abs(resid)
    dists = np.sum(absr**q, axis=1) ** (1.0 / q)
    safe = np.maximum(dists, 1e-30)[:, None]
    grads = np.sign(resid) * (absr / safe) ** (q - 1.0)
    return dists, grads, coeffs


def _lq_regress(frame, x, q, c0=None, tol=1e-11, max_iter=80):
    """Batched IRLS for min_c ||x_i - frame c_i||_q over every row of x.

    Damping 1/(q-1) keeps the q > 2 iteration contractive.
    """
    c = x @ frame if c0 is None else c0.copy()
    eps = 1e-12 * max(1.0, float(np.max(np.abs(x))))
    damping = 1.0 if q <= 2.0 else 1.0 / (q - 1.0)
    for _ in range(max_iter):
        resid = x - c @ frame.T
        w = np.maximum(np.abs(resid), eps) ** (q - 2.0)
        lhs = np.einsum("mi,bm,mj->bij", frame, w, frame)
        rhs = np.einsum("mi,bm,bm->bi", frame, w, x)
        c_new = np.linalg.solve(lhs, rhs[..., None])[..., 0]
        delta = damping * (c_new - c)
        c = c + delta
        if np.max(np.abs(delta)) <= tol * max(1.0, np.max(np.abs(c))):
            break
    return c


def _sup_over_ball(frame, m, p, q, rng, n_random, ascent_iters=12):
    """Estimate sup over bd B_p^m of the l_q distance to span(frame).

    Exact for p = 1 (only the +-e_i vertices matter); otherwise projected
    ascent from the vertices plus random boundary points.  Never exceeds the
    true supremum (every iterate is feasible).
    """
    vertices = np.eye(m)
    if p == 2.0 and q == 2.0:
        # Exact: the worst unit vector is the top right singular vector of the
        # complement projector.
        resid_proj = np.eye(m) - frame @ frame.T
        _, s, vt = np.linalg.svd(resid_proj)
        x_best = vt[0]
        resid = resid_proj @ x_best
        norm = max(float(np.linalg.norm(resid)), 1e-300)
        return float(s[0]), x_best, resid / norm
    if p == 1.0:
        dists, grads, _ = _dists_and_grads(frame, vertices, q, max_iter=200)
        best = int(np.argmax(dists))
        return float(dists[best]), vertices[best], grads[best]
    starts = [vertices]
    if n_random > 0:
        starts.append(_normalize_rows_p(rng.standard_normal((n_random, m)), p))
    x = np.vstack(starts)
    best_val, best_x, best_grad = -1.0, None, None
    coeffs = None
    for it in range(ascent_iters + 1):
        dists, grads, coeffs = _dists_and_grads(frame, x, q, c0=coeffs)
        top = int(np.argmax(dists))
        if dists[top] > best_val:
            best_val, best_x, best_grad = float(dists[top]), x[top].copy(), grads[top].copy()
        if it == ascent_iters:
            break
        x = _normalize_rows_p(x + (0.5 / (1.0 + it)) * grads, p)
    return best_val, best_x, best_grad


def _orthonormalize(a):
    qmat, r = np.linalg.qr(a)
    # Fix the sign convention so the map is continuous along descent paths.
    return qmat * np.sign(np.where(np.diag(r) == 0, 1.0, np.diag(r)))


def ball_width_bruteforce(
    inst,
    restarts=64,
    seed=0,
    allow_large=False,
    max_iter=60,
    inner_starts=64,
    final_starts=256,
):
    """Direct minimization of the worst-case l_q distance over n-subspaces.

    Returns an upper-bound estimate (it exhibits a concrete subspace).  The
    coordinate frame seeds one restart, so the value never lands above the
    coordinate-subspace bound.
    """
    m, n, p, q = inst.m, inst.n, inst.p, inst.q
    if m > DESK_SCALE_MAX_DIM and not allow_large:
        raise DimensionGuardError(f"m={m} above desk-scale cap {DESK_SCALE_MAX_DIM}")
    if not (1.0 <= p < np.inf and 1.0 <= q < np.inf):
        raise InvalidExponentError("brute force needs finite exponents")

    if n == m:
        return WidthEstimate(0.0, "two-sided", "full-space", {"restarts": 0})
    if n == 0:
        value = m ** (1.0 / q - 1.0 / p) if q < p else 1.0
        return WidthEstimate(float(value), "two-sided", "no-subspace", {"restarts": 0})

    seeds = np.random.SeedSequence(seed).spawn(restarts)
    per_restart = []
    frames = []
    converged_any = False
    for r_idx in range(restarts):
        rng = np.random.default_rng(seeds[r_idx])
        if r_idx == 0:
            frame = np.eye(m, n)
        else:
            frame = _orthonormalize(rng.standard_normal((m, n)))
        # One fixed random start block per restart keeps the objective
        # deterministic along the descent path.
        inner_rng_state = rng.bit_generator.state

        def objective(fr, n_starts):
            local = np.random.default_rng()
            local.bit_generator.state = inner_rng_state
            return _sup_over_ball(fr, m, p, q, local, n_starts)

        val, x_star, grad_x = objective(frame, inner_starts)
        step = 0.25
        converged = False
        for _ in range(max_iter):
            if frame.shape[1] and x_star is not None:
                if q == 2.0:
                    coef = x_star @ frame
                else:
                    coef = _lq_regress(frame, x_star[None, :], q, max_iter=200)[0]
                grad_frame = -np.outer(grad_x, coef)
            else:
                break
            accepted = False
            for _ in range(8):
                trial = _orthonormalize(frame - step * grad_frame)
                tval, tx, tgrad = objective(trial, inner_starts)
                if tval < val - 1e-14:
                    frame, val, x_star, grad_x = trial, tval, tx, tgrad
                    step = min(step * 1.5, 1.0)
                    accepted = True
                    break
                step *= 0.5
                if step < 1e-10:
                    break
            if not accepted:
                converged = True
                break
        converged_any = converged_any or converged
        final_val, _, _ = objective(frame, final_starts)
        # The richer final candidate set can only raise the sup estimate.
        final_val = max(final_val, val)
        per_restart.append(final_val)
        frames.append(frame)

    # The undescended coordinate frame is always a candidate; its sup estimate
    # can never exceed the coordinate-subspace bound.
    coord_frame = np.eye(m, n)
    coord_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(restarts + 1)[-1])
    coord_val, _, _ = _sup_over_ball(coord_frame, m, p, q, coord_rng, final_starts)
    per_restart.append(coord_val)
    frames.append(coord_frame)

    values = np.asarray(per_restart)
    best_idx = int(np.argmin(values))
    return WidthEstimate(
        float(values[best_idx]),
        "upper-bound",
        "bruteforce",
        {
            "restarts": restarts,
            "best": float(values[best_idx]),
            "median": float(np.median(values[:restarts])),
            "converged": converged_any,
            "frame": frames[best_idx],
        },
    )
