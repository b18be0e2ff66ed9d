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
  projected gradient ascent from the projections of the e_i and random
  directions.  The ascent runs in y = W z space with the projector
  P = W W^T, so every problem has the same (m, starts) shape whatever m - n.

All descents of one ball_widths_bruteforce call, one per (n, restart), run in
lockstep.  Each round every active descent proposes its next backtracking
trial frame, and one call scores every trial: for p > 1 one batched dual
ascent, run on groups of problems that hold at most norms.QUADRATURE_BLOCK
samples of ascent state, so memory does not grow with the restarts; for
p = 1 each trial's own vertex regressions.  A problem's result does not
depend on which other problems share its batch.

n = 0, n >= m - 1, every q <= p and (p, q) = (1, 2) are closed forms
(rates.closed_form_width).  So the vertex path only sees q != 2, and the
dual path only sees 1 < p < q < inf, where both dual exponents are finite,
with a complement of m - n >= 2 columns.  The coordinate subspace is
restart 0, scored by coordinate_subspace_bound, so the result never exceeds
it.  An ascent can only underestimate a supremum, so a descended value is an
'upper-bound' only where the inner sup is exact, p = 1, else an 'upper-estimate'.
"""

import numpy as np

from .errors import NonconvergenceError
from .norms import QUADRATURE_BLOCK, _lq_regress
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


def _dual_ratios(y, p_dual, q_dual):
    """||y||_{p'} / ||y||_{q'} over the columns of y (axis -2), and the
    gradients of the log ratios in y; the ratios keep that axis as 1.

    Finite exponents only.  Both norms share |y|, its column max and the
    sign of y; each is scaled by the column max, so no power overflows or
    underflows.
    """
    absy = np.abs(y)
    scale = absy.max(axis=-2, keepdims=True)
    u = absy / scale
    pow_p = u ** (p_dual - 1.0)
    pow_q = u ** (q_dual - 1.0)
    sum_p = (pow_p * u).sum(axis=-2, keepdims=True)
    sum_q = (pow_q * u).sum(axis=-2, keepdims=True)
    grads = np.sign(y) * (pow_p / sum_p - pow_q / sum_q) / scale
    return sum_p ** (1.0 / p_dual) / sum_q ** (1.0 / q_dual), grads


def _dual_ascent(proj, y, p_dual, q_dual, steps):
    """Projected gradient ascent of ||y||_{p'} / ||y||_{q'} over the unit
    sphere of span(proj[k]), from every start column y[k, :, s] of every
    problem k.

    proj holds the orthogonal projectors P = W W^T of the problems' frames W,
    so the ascent runs in y = W z space, where every problem has the same
    (m, starts) shape whatever its number of columns.  The starts are
    columns, so each reduction over the m entries of a start adds m rows of
    starts at a time, where a reduction over a last axis of m <= 8 entries
    costs several times more.  The log ratio is homogeneous of degree 0, so
    its gradient is tangent to the sphere, and P keeps each step inside
    span(W).  Each start keeps its own step, which grows after an improving
    move and halves after a rejected one, so no start's value ever falls.  A
    move must raise the ratio by more than 1e-15 relative, above its
    rounding of a few units in the last place, so a step that only moves
    rounding (any step of a one-column frame, whose sphere is two points)
    is rejected.  Every iterate is feasible: no value exceeds the true max.
    Returns the values (with an axis of 1 for m), their log gradients and
    the columns y.
    """
    y = y / np.sqrt((y * y).sum(axis=-2, keepdims=True))
    vals, grads = _dual_ratios(y, p_dual, q_dual)
    step = np.full(vals.shape, 0.5)
    for _ in range(steps):
        trial = proj @ grads
        trial *= step
        trial += y
        trial /= np.sqrt((trial * trial).sum(axis=-2, keepdims=True))
        tvals, tgrads = _dual_ratios(trial, p_dual, q_dual)
        up = tvals > vals * (1.0 + 1e-15)
        y = np.where(up, trial, y)
        vals = np.where(up, tvals, vals)
        grads = np.where(up, tgrads, grads)
        step *= np.where(up, 1.5, 0.5)
    return vals, grads, y


def _dual_sups(frames, zs, p_dual, q_dual, steps):
    """Inner sup estimate of each complement frame W with the two factors of
    its frame gradient, by one batched _dual_ascent per group of problems.

    A frame's starts are the projections P e_i of the vertices (zero ones
    replaced by repeats of the others, so every problem has m of them), then
    its random rows z mapped to W z.  A group holds at most QUADRATURE_BLOCK
    samples of ascent state.  At the best start y, the gradient of the ratio
    R(W z) in W is the outer product of R times its log gradient in y and
    z = W^T y.
    """
    if not frames:
        return []
    m = frames[0].shape[0]
    group = max(1, QUADRATURE_BLOCK // (m * (m + len(zs[0]))))
    out = []
    for lo in range(0, len(frames), group):
        chunk = frames[lo : lo + group]
        proj = np.stack([w @ w.T for w in chunk])
        starts = np.stack(
            [np.hstack([np.resize(p[np.any(p != 0.0, axis=1)], p.shape).T, w @ z.T])
             for w, p, z in zip(chunk, proj, zs[lo : lo + group])]
        )
        vals, grads, y = _dual_ascent(proj, starts, p_dual, q_dual, steps)
        for w, v, g, yk in zip(chunk, vals[:, 0], grads, y):
            best = int(np.argmax(v))
            out.append((float(v[best]), (v[best] * g[:, best], w.T @ yk[:, best])))
    return out


def _orthonormalize(a):
    qmat, r = np.linalg.qr(a)
    # Fix the sign convention so the map is continuous along descent paths.
    return qmat * np.sign(np.where(np.diag(r) == 0, 1.0, np.diag(r)))


def _complement(frame):
    """Orthonormal frame of the orthogonal complement of span(frame)."""
    u, _, _ = np.linalg.svd(frame)
    return u[:, frame.shape[1] :]


def _descend(frames, zs, sups, max_iter):
    """Backtracking descent of every frame in lockstep; returns the values
    and stops, and leaves each frame's last accepted iterate in frames.

    Per frame: step 0.25, times 1.5 (at most 1) after an accepted step and
    0.5 after a rejected one; a trial is accepted when it lowers the value by
    more than 1e-14.  A frame stops 'stationary' when 8 tries in a row, or a
    step below 1e-10, found no lower value, and 'max_iter' after max_iter
    accepted steps.  Each round, every active frame proposes its next trial
    and one sups(trials, zs, ASCENT_STEPS) call scores them all.
    """
    count = len(frames)
    vals, states = [None] * count, [None] * count
    steps, accepted, tries = [0.25] * count, [0] * count, [0] * count
    stops = ["max_iter"] * count
    trials, active = list(frames), list(range(count))
    while active:
        scored = sups([trials[j] for j in active], [zs[j] for j in active], ASCENT_STEPS)
        still = []
        for j, (tval, tstate) in zip(active, scored):
            if vals[j] is None:
                vals[j], states[j] = tval, tstate
            elif tval < vals[j] - 1e-14:
                frames[j], vals[j], states[j] = trials[j], tval, tstate
                steps[j] = min(steps[j] * 1.5, 1.0)
                accepted[j], tries[j] = accepted[j] + 1, 0
            else:
                steps[j] *= 0.5
                tries[j] += 1
                if tries[j] == 8 or steps[j] < 1e-10:
                    stops[j] = "stationary"
                    continue
            if accepted[j] == max_iter:
                continue
            # Envelope theorem: the inner maximizer's gradient, taken as fixed.
            trials[j] = _orthonormalize(frames[j] - steps[j] * np.outer(*states[j]))
            still.append(j)
        active = still
    return vals, stops


def ball_widths_bruteforce(
    instances,
    restarts=64,
    seed=0,
    max_iter=60,
    inner_starts=64,
    final_starts=256,
):
    """Direct minimization of the worst-case l_q distance over n-subspaces,
    for each of the instances.

    The cells rates.closed_form_width knows return its exact value,
    labelled 'two-sided' with no restarts.  The others (p < q, 1 <= n <=
    m - 2, (p, q) != (1, 2)) must share m, p and q.  Each exhibits a
    concrete subspace.  It is labelled 'upper-bound' at p = 1, where its
    inner sup is exact, and 'upper-estimate' at p > 1.  Restart 0 is
    the coordinate subspace, scored by coordinate_subspace_bound without a
    descent, so the value never lands above that bound and restarts=1 runs
    no descent.  Restarts 1.. descend from random frames; for p > 1 on a
    frame of the complement (see the module docstring).  Restart r draws
    its frame from the same seed for every instance.  inner_starts and
    final_starts random directions feed only the p > 1 ascent, during the
    descent and in each restart's final evaluation.  diagnostics['stops']
    gives, per descended restart, 'stationary' when no backtracking step
    lowered its value, else 'max_iter'.  diagnostics['frame'] is an
    orthonormal m x n frame of the best subspace.
    """
    results = [closed_form_width(inst) for inst in instances]
    todo = [inst for inst, est in zip(instances, results) if est is None]
    if not todo:
        return results
    m, p, q = todo[0].m, todo[0].p, todo[0].q
    if any((inst.m, inst.p, inst.q) != (m, p, q) for inst in todo):
        raise ValueError("descended instances must share m, p and q")
    # p = 1 descends on a frame of the subspace itself, p > 1 on a frame of
    # its complement, with the finite Hoelder conjugates of 1 < p < q.
    dual = p > 1.0

    def sups(frames, zs, steps):
        """Inner sup estimates of the frames and the states their gradients need."""
        if dual:
            return _dual_sups(frames, zs, p / (p - 1.0), q / (q - 1.0), steps)
        return [_vertex_sup(frame, q) for frame in frames]

    frames, z_inner, z_final = [], [], []
    children = np.random.SeedSequence(seed).spawn(restarts)[1:]
    for inst in todo:
        cols = m - inst.n if dual else inst.n
        for child in children:
            rng = np.random.default_rng(child)
            frames.append(_orthonormalize(rng.standard_normal((m, cols))))
            # Fixed random starts per restart keep the objective
            # deterministic along the descent path; the p = 1 vertex sup takes none.
            z_inner.append(rng.standard_normal((inner_starts, cols)) if dual else None)
            z_final.append(rng.standard_normal((final_starts, cols)) if dual else None)
    found, stops = _descend(frames, z_inner, sups, max_iter)
    if dual:  # The richer final start set can only raise the sup estimate.
        found = [max(final, val) for (final, _), val in zip(sups(frames, z_final, FINAL_ASCENT_STEPS), found)]

    descended = []
    for k, inst in enumerate(todo):
        mine = slice(k * (restarts - 1), (k + 1) * (restarts - 1))
        # Restart 0: the coordinate frame at its exact value.  Its envelope
        # gradient is 0, so descent would not move it.
        values = np.asarray([coordinate_subspace_bound(inst)] + found[mine])
        candidates = [np.eye(m)[:, inst.n :] if dual else np.eye(m, inst.n)] + frames[mine]
        best = int(np.argmin(values))
        diagnostics = {
            "restarts": restarts,
            "median": float(np.median(values)),
            "stops": stops[mine],
            "frame": _complement(candidates[best]) if dual else candidates[best],
        }
        label = "upper-estimate" if dual else "upper-bound"  # the inner sup is exact only at p = 1
        descended.append(WidthEstimate(float(values[best]), label, "bruteforce", diagnostics))
    descended = iter(descended)
    return [next(descended) if est is None else est for est in results]


def ball_width_bruteforce(inst, **budget):
    """The one-instance case of ball_widths_bruteforce, with its budget
    keywords and defaults."""
    (est,) = ball_widths_bruteforce([inst], **budget)
    return est
