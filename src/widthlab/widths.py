"""Kolmogorov widths of l_p balls in l_q: a desk-scale brute-force optimizer
over subspaces.  The closed forms live in rates.

The brute-force path runs multi-restart descent over n-dimensional subspaces
V of R^m on the worst-case distance sup_{x in B_p} dist_q(x, V).

- p = 1: V is an orthonormalized m x n frame.  The distance is convex, so the
  supremum sits at the +-e_i vertices, each measured by a small l_q
  regression (the IRLS solver that norms.best_approx uses, batched over the
  vertices).
- p > 1: by the Kolmogorov-Gelfand duality (Pinkus, n-Widths in
  Approximation Theory, 1985, ch. II)

      sup_{x in B_p} dist_q(x, V) = max_{0 != y in V^perp} ||y||_{p'} / ||y||_{q'},

  so V is carried by an orthonormal m x (m - n) frame W of its complement,
  and the inner supremum is a ratio of two norms over span W, maximized by
  projected gradient ascent from the rows of W and random directions.

n = 0, n >= m - 1, every q <= p and (p, q) = (1, 2) are closed forms
(rates.closed_form_width).  So the vertex path only sees q != 2, and the
dual path only sees 1 < p < q < inf, where both dual exponents are finite,
with a complement of m - n >= 2 columns.  The coordinate subspace is
restart 0, scored by coordinate_subspace_bound, so the result never exceeds
it.  An ascent can only underestimate a supremum, so a descended value is a
proven upper bound where the inner problem is solved exactly: p = 1.
"""

import numpy as np

from .errors import NonconvergenceError
from .norms import _lq_regress
from .rates import WidthEstimate, closed_form_width, coordinate_subspace_bound

# Projected-ascent steps of the dual inner maximization, during the descent
# and in each restart's final evaluation.
ASCENT_STEPS = 40
FINAL_ASCENT_STEPS = 80


def _vertex_sup(frame, q):
    """Sup over B_1^m of the l_q distance to span(frame), with the two factors
    of its frame gradient.

    Exact: the distance is convex, so only the +-e_i vertices matter, each
    one l_q regression on the frame (one batched _lq_regress from the
    orthogonal projections).  frame has orthonormal columns.  By the envelope
    theorem the frame gradient at the worst vertex is the outer product of
    minus the distance gradient there and its optimal coefficients.
    """
    vertices = np.eye(frame.shape[0])
    coeffs, converged = _lq_regress(frame, vertices, q, vertices @ frame)
    if not converged:
        raise NonconvergenceError(
            "vertex l_q regression did not converge",
            diagnostics={"q": q, "m": frame.shape[0], "n": frame.shape[1]},
        )
    resid = vertices - coeffs @ frame.T
    absr = np.abs(resid)
    dists = np.sum(absr**q, axis=1) ** (1.0 / q)
    grads = np.sign(resid) * (absr / np.maximum(dists, 1e-30)[:, None]) ** (q - 1.0)
    best = int(np.argmax(dists))
    return float(dists[best]), (-grads[best], coeffs[best])


def _dual_ratios(frame, z, p_dual, q_dual):
    """||y||_{p'} / ||y||_{q'} at y = frame z for the rows z, and the
    gradients of the log ratios in y.

    Finite exponents only.  Both norms share |y|, its row max and the sign
    of y; each is scaled by the row max, so no power overflows.
    """
    y = z @ frame.T
    absy = np.abs(y)
    scale = absy.max(axis=1, keepdims=True)
    u = absy / scale
    sign = np.sign(y)
    sum_p = (u**p_dual).sum(axis=1, keepdims=True)
    sum_q = (u**q_dual).sum(axis=1, keepdims=True)
    num = (scale * sum_p ** (1.0 / p_dual))[:, 0]
    den = (scale * sum_q ** (1.0 / q_dual))[:, 0]
    grads = sign * u ** (p_dual - 1.0) / (scale * sum_p) - sign * u ** (q_dual - 1.0) / (scale * sum_q)
    return num / den, grads


def _dual_sup(frame, p_dual, q_dual, z, steps):
    """Max over the unit sphere of ||frame z||_{p'} / ||frame z||_{q'} by
    projected gradient ascent from every row of z, with the ratio's gradient
    in y = frame z and the maximizing z.  p' and q' are finite.

    The log ratio is homogeneous of degree 0, so its gradient is tangent to
    the sphere.  Each start keeps its own step, which grows after an
    improving move and halves after a rejected one, so no start's value ever
    falls.  Every iterate is feasible: the result never exceeds the true max.
    """
    z = z / np.sqrt(np.sum(z * z, axis=1, keepdims=True))
    vals, grads = _dual_ratios(frame, z, p_dual, q_dual)
    step = np.full((len(z), 1), 0.5)
    for _ in range(steps):
        trial = z + step * (grads @ frame)
        trial /= np.sqrt(np.sum(trial * trial, axis=1, keepdims=True))
        tvals, tgrads = _dual_ratios(frame, trial, p_dual, q_dual)
        up = tvals > vals
        z = np.where(up[:, None], trial, z)
        vals = np.where(up, tvals, vals)
        grads = np.where(up[:, None], tgrads, grads)
        step = np.where(up[:, None], 1.5 * step, 0.5 * step)
    best = int(np.argmax(vals))
    return float(vals[best]), (vals[best] * grads[best], z[best])


def _dual_starts(frame, z):
    """Ascent starts: the nonzero rows of frame (the directions of the
    projections of the e_i onto its span), then the random rows z."""
    return np.vstack([frame[np.any(frame != 0.0, axis=1)], z])


def _orthonormalize(a):
    qmat, r = np.linalg.qr(a)
    # Fix the sign convention so the map is continuous along descent paths.
    return qmat * np.sign(np.where(np.diag(r) == 0, 1.0, np.diag(r)))


def _complement(frame):
    """Orthonormal frame of the orthogonal complement of span(frame)."""
    u, _, _ = np.linalg.svd(frame)
    return u[:, frame.shape[1] :]


def ball_width_bruteforce(
    inst,
    restarts=64,
    seed=0,
    max_iter=60,
    inner_starts=64,
    final_starts=256,
):
    """Direct minimization of the worst-case l_q distance over n-subspaces.

    The cells rates.closed_form_width knows return its exact value,
    labelled 'two-sided' with no restarts.  The others (p < q, 1 <= n <=
    m - 2, (p, q) != (1, 2)) return an upper-bound estimate: it exhibits a
    concrete subspace, and is a proven upper bound where its inner sup is
    exact, at p = 1 only.  Restart 0 is the coordinate subspace, scored by
    coordinate_subspace_bound without a descent, so the value never lands
    above that bound and restarts=1 runs no descent.  Restarts 1.. descend
    from random frames; for p > 1 on a frame of the complement (see the
    module docstring).  inner_starts and final_starts random directions join
    the ascent during the descent and in each restart's final evaluation.
    diagnostics['stops'] gives, per descended restart, 'stationary' when no
    backtracking step lowered its value, else 'max_iter'.
    diagnostics['frame'] is an orthonormal m x n frame of the best subspace.
    """
    exact = closed_form_width(inst)
    if exact is not None:
        return exact
    m, n, p, q = inst.m, inst.n, inst.p, inst.q
    # p = 1 descends on a frame of the subspace itself, p > 1 on a frame of
    # its complement, with the finite Hoelder conjugates of 1 < p < q.
    dual = p > 1.0
    cols = m - n if dual else n

    def sup(frame, z, steps):
        """Inner sup estimate of one frame and the state its gradient needs."""
        if dual:
            return _dual_sup(frame, p / (p - 1.0), q / (q - 1.0), _dual_starts(frame, z), steps)
        return _vertex_sup(frame, q)

    # Restart 0: the coordinate frame at its exact value.  Its envelope
    # gradient is 0, so descent would not move it.
    per_restart = [coordinate_subspace_bound(inst)]
    frames = [np.eye(m)[:, n:] if dual else np.eye(m, n)]
    stops = []
    for child in np.random.SeedSequence(seed).spawn(restarts)[1:]:
        rng = np.random.default_rng(child)
        frame = _orthonormalize(rng.standard_normal((m, cols)))
        # Fixed random starts per restart keep the objective deterministic
        # along the descent path.
        z_inner = rng.standard_normal((inner_starts, cols))
        z_final = rng.standard_normal((final_starts, cols))

        val, state = sup(frame, z_inner, ASCENT_STEPS)
        step = 0.25
        stop = "max_iter"
        for _ in range(max_iter):
            # Envelope theorem: the inner maximizer's gradient, taken as fixed.
            grad_frame = np.outer(*state)
            accepted = False
            for _ in range(8):
                trial = _orthonormalize(frame - step * grad_frame)
                tval, tstate = sup(trial, z_inner, ASCENT_STEPS)
                if tval < val - 1e-14:
                    frame, val, state = trial, tval, tstate
                    step = min(step * 1.5, 1.0)
                    accepted = True
                    break
                step *= 0.5
                if step < 1e-10:
                    break
            if not accepted:
                stop = "stationary"
                break
        stops.append(stop)
        final_val, _ = sup(frame, z_final, FINAL_ASCENT_STEPS)
        # The richer final start set can only raise the sup estimate.
        per_restart.append(max(final_val, val))
        frames.append(frame)

    values = np.asarray(per_restart)
    best_idx = int(np.argmin(values))
    best_frame = _complement(frames[best_idx]) if dual else frames[best_idx]
    return WidthEstimate(
        float(values[best_idx]),
        "upper-bound",
        "bruteforce",
        {
            "restarts": restarts,
            "median": float(np.median(values)),
            "stops": stops,
            "frame": best_frame,
        },
    )
