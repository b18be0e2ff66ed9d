"""The lab's closed forms, and log-space fitting of measured sequences.

Rate tables and optimality verdicts of three families: "sobolev"
(coefficients k^-r), "exponential" (exp(-mu k^r); r >= 1 is the
analytic/entire regime) and "polylog" (k^{-(1/p-1/q)_+} ln(k+1)^{-gamma}).
Widths of l_p balls in l_q where they have a closed form, and the
logarithmic lower bound built on them.  Everything here, the fit included,
runs on the standard library alone.
"""

import math
from typing import NamedTuple, Optional

from .errors import DegenerateDataError, DimensionGuardError, InvalidDimensionError, InvalidExponentError
from .errors import OutOfBranchError, UncoveredRegimeError

FIT_MIN_POINTS = 6
FIT_MIN_N = 8
RESIDUAL_FLOOR = 1e-14
PARSIMONY_RATIO = 10.0
FIT_XATOL = 1e-12
# The exp family's r grid, numpy.linspace(0.05, 2.0, 40) point for point.
R_GRID = [0.05 + i * ((2.0 - 0.05) / 39) for i in range(39)] + [2.0]
# The exponents that fix a model's order, by kind.
ORDER_FIELDS = {"poly": ("a",), "polylog": ("a", "g"), "exp": ("mu", "r", "b")}


class RateModel(NamedTuple):
    """c * n^-a, c * n^-a (ln n)^-g, or c * exp(-mu n^r) n^b."""

    kind: str  # 'poly', 'polylog' or 'exp'
    c: float = 1.0
    a: float = 0.0
    g: float = 0.0
    mu: float = 0.0
    r: float = 0.0
    b: float = 0.0

    def __call__(self, n):
        """The model at one n; nan or +-inf, as numpy gives them, off its domain."""
        if self.kind == "poly":
            return self.c * _pow(n, -self.a)
        if self.kind == "polylog":
            return self.c * _pow(n, -self.a) * _pow(_log(n), -self.g)
        return self.c * _exp(-self.mu * _pow(n, self.r)) * _pow(n, self.b)

    def describe(self):
        if self.kind == "poly":
            return f"n^{-self.a:g}"
        if self.kind == "polylog":
            if self.a == 0:
                return f"(ln n)^{-self.g:g}"
            return f"n^{-self.a:g}·(ln n)^{-self.g:g}"
        body = f"exp(-{self.mu:g}·n^{self.r:g})"
        return body if self.b == 0 else f"{body}·n^{self.b:g}"

    def same_order(self, other):
        """True when the two models share kind and that kind's exponents (constants ignored)."""
        fields = ORDER_FIELDS[self.kind]
        return self.kind == other.kind and all(abs(getattr(self, f) - getattr(other, f)) < 1e-12 for f in fields)


class RegimeVerdict(NamedTuple):
    width_rate: RateModel
    en_rate: RateModel
    optimal: str  # 'optimal' or 'not-optimal'
    regime: str
    critical_beta: Optional[float] = None


def _check_pq(p, q):
    if not (1.0 < p < math.inf and 1.0 < q < math.inf):
        raise InvalidExponentError(f"need 1 < p, q < inf, got ({p}, {q})")


def _small_smoothness_beta(p, q):
    if p == q:
        return 0.0
    return (1.0 / p - 1.0 / q) / (2.0 * (0.5 - 1.0 / q))


def _sobolev_regime(p, q, r):
    """Classify a Sobolev cell into its table row: (tag, width exponent), or raise."""
    if r is None:
        raise UncoveredRegimeError("sobolev family needs r")
    if q < p:
        if r > 0:
            return "sobolev q<p", r
        raise UncoveredRegimeError(f"sobolev needs r > 0 for q < p, got r={r}")
    if q <= 2.0:  # p <= q <= 2
        if r > 1.0 / p - 1.0 / q:
            return "sobolev p<=q<=2", r - (1.0 / p - 1.0 / q)
        raise UncoveredRegimeError(f"sobolev needs r > 1/p - 1/q, got r={r}")
    if p < 2.0:  # p < 2 < q
        if r > 1.0 / p:
            return "sobolev p<=2<=q", r - 1.0 / p + 0.5
        if 1.0 / p - 1.0 / q < r < 1.0 / p:
            return "small-smoothness p<2<q", q * (r - 1.0 / p + 1.0 / q) / 2.0
        raise UncoveredRegimeError(f"sobolev cell (p={p}, q={q}, r={r}) not covered")
    # 2 <= p <= q
    if r > 1.0 / p:
        return "sobolev 2<=p<=q", r
    if 1.0 / p - 1.0 / q < r < 1.0 / p:
        if r == _small_smoothness_beta(p, q):
            raise UncoveredRegimeError("small smoothness excluded at the critical exponent")
        return "small-smoothness 2<=p<=q", -max(-r, q * (-r + 1.0 / p - 1.0 / q) / 2.0)
    raise UncoveredRegimeError(f"sobolev cell (p={p}, q={q}, r={r}) not covered")


def _check_family(family, r, mu, gamma):
    """A known family with its parameters in range; each rate checks sobolev's r itself."""
    if family == "exponential":
        if r is None or mu is None or not (r > 0 and mu > 0):
            raise UncoveredRegimeError("exponential family needs mu > 0, r > 0")
    elif family == "polylog":
        if gamma is None or not gamma >= 0:
            raise UncoveredRegimeError("polylog family needs gamma >= 0")
    elif family != "sobolev":
        raise UncoveredRegimeError(f"unknown family {family!r}")


def width_rate(family, p, q, r=None, mu=None, gamma=None):
    """Width order for the family at (p, q); constants are normalized to 1."""
    _check_pq(p, q)
    _check_family(family, r, mu, gamma)
    if family == "sobolev":
        return RateModel("poly", a=_sobolev_regime(p, q, r)[1])
    if family == "polylog":
        return RateModel("polylog", g=gamma)
    if r < 1.0 and q < 2.0 < p:  # the one exponential cell with no known width
        raise UncoveredRegimeError(f"exponential cell (p={p}, q={q}) not covered")
    return RateModel("exp", mu=mu, r=r, b=max(0.0, 1.0 - r) * max(0.0, 1.0 / p - 1.0 / min(q, 2.0)))


def en_rate(family, p, q, r=None, mu=None, gamma=None):
    """Order of the worst-case T_n approximation error for the family."""
    _check_pq(p, q)
    _check_family(family, r, mu, gamma)
    gap = max(0.0, 1.0 / p - 1.0 / q)
    if family == "sobolev":
        if r is None or r <= gap:
            raise UncoveredRegimeError("sobolev error rate needs r > (1/p - 1/q)_+")
        return RateModel("poly", a=r - gap)
    if family == "polylog":
        return RateModel("polylog", g=gamma)
    return RateModel("exp", mu=mu, r=r, b=max(0.0, 1.0 - r) * gap)


def optimality_verdict(family, p, q, r=None, mu=None, gamma=None):
    """Is the trigonometric sequence order-optimal for this cell?  In every
    family, exactly where the width and the T_n error share an order."""
    wr = width_rate(family, p, q, r=r, mu=mu, gamma=gamma)
    er = en_rate(family, p, q, r=r, mu=mu, gamma=gamma)
    optimal = "optimal" if wr.same_order(er) else "not-optimal"
    critical_beta = None
    if family == "sobolev":
        regime = _sobolev_regime(p, q, r)[0]
        if regime == "small-smoothness 2<=p<=q":
            critical_beta = _small_smoothness_beta(p, q)
    elif family == "exponential":
        regime = "analytic-entire" if r >= 1.0 else "exponential 0<r<1"
    else:
        regime = "polylog slow decay"
    return RegimeVerdict(wr, er, optimal, regime, critical_beta)


def catalog_record(family, p, q, r=None, mu=None, gamma=None):
    """One machine-readable catalog record for a single parameter cell."""
    verdict = optimality_verdict(family, p, q, r=r, mu=mu, gamma=gamma)
    record = {
        "family": family,
        "params": {key: value for key, value in (("r", r), ("mu", mu), ("gamma", gamma)) if value is not None},
        "p": p,
        "q": q,
        "width_rate": verdict.width_rate.describe(),
        "en_rate": verdict.en_rate.describe(),
        "verdict": verdict.optimal,
        "regime": verdict.regime,
    }
    if verdict.critical_beta is not None:
        record["critical_beta"] = verdict.critical_beta
    return record


def catalog_records():
    """Records over a standard grid of cells, one per covered regime."""
    cells = []
    for p, q in [(1.5, 1.2), (4.0, 2.0), (1.5, 1.8), (1.2, 2.0), (1.5, 3.0), (2.5, 4.0), (3.0, 3.0)]:
        for r in (0.5, 1.0, 2.0):
            cells.append(("sobolev", p, q, {"r": r}))
    for p, q in [(1.5, 1.2), (1.2, 1.8), (1.5, 3.0), (3.0, 4.0), (3.0, 3.0)]:
        for r in (0.5, 1.0, 2.0):
            cells.append(("exponential", p, q, {"mu": 1.0, "r": r}))
    for p, q in [(1.5, 3.0), (3.0, 1.5), (2.5, 4.0), (3.0, 3.0)]:
        cells.append(("polylog", p, q, {"gamma": 1.0}))
    records = []
    for family, p, q, params in cells:
        try:
            records.append(catalog_record(family, p, q, **params))
        except UncoveredRegimeError as exc:
            records.append(
                {
                    "family": family,
                    "params": params,
                    "p": p,
                    "q": q,
                    "verdict": "uncovered",
                    "regime": str(exc),
                }
            )
    return records


DESK_SCALE_MAX_DIM = 8


class BallWidthInstance:
    """Width of B_p^m in l_q^m approximated by n-dimensional subspaces."""

    def __init__(self, m, n, p, q):
        if not 0 <= n <= m:
            raise InvalidDimensionError(f"need 0 <= n <= m, got n={n}, m={m}")
        if p < 1 or q < 1:
            raise InvalidExponentError("exponents must be >= 1")
        self.m, self.n, self.p, self.q = m, n, p, q


class WidthEstimate(NamedTuple):
    value: float
    direction: str  # 'two-sided' (exact), 'upper-bound' (proven) or 'upper-estimate'
    method: str
    diagnostics: dict


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


def closed_form_width(inst):
    """The exact width of a cell the brute force needs no descent for, else None.

    Checks in order: m within DESK_SCALE_MAX_DIM, finite exponents, then the
    cells with a classical value, each labelled 'two-sided' with no restarts:

    - n = 0, n = m or q <= p: the coordinate subspace is optimal (Pietsch
      1974, Stesin 1975; Pinkus, n-Widths in Approximation Theory, 1985,
      ch. VI), so the width is coordinate_subspace_bound;
    - p = 1, q = 2: sqrt(1 - n/m) (Pinkus, ch. VI);
    - n = m - 1, p < q: m^(1/q - 1/p).  Proof: for V = w^perp,
      dist_q(x, V) = |<x, w>| / ||w||_{q'}, so the worst case over B_p is
      ||w||_{p'} / ||w||_{q'}.  As p' >= q', Hoelder's inequality bounds it
      below by m^(1/p' - 1/q') = m^(1/q - 1/p), with equality at the flat
      w = (1, ..., 1).
    """
    m, n, p, q = inst.m, inst.n, inst.p, inst.q
    if m > DESK_SCALE_MAX_DIM:
        raise DimensionGuardError(f"m={m} above desk-scale cap {DESK_SCALE_MAX_DIM}")
    if not (1.0 <= p < math.inf and 1.0 <= q < math.inf):
        raise InvalidExponentError("brute force needs finite exponents")
    if n in (0, m) or q <= p:
        value = coordinate_subspace_bound(inst)
    elif p == 1.0 and q == 2.0:
        value = math.sqrt(1 - n / m)
    elif n == m - 1:
        value = m ** (1 / q - 1 / p)
    else:
        return None
    return WidthEstimate(value, "two-sided", "closed-form", {"restarts": 0})


M_CAP = 10**6


class PipelineReport(NamedTuple):
    n: int
    m_chosen: int
    log_factor: float
    phi_value: float
    lower_bound: float
    notes: str = ""


def lower_bound_pipeline(gamma, p, q, n, m_override=None):
    """Logarithmic lower bound via projection, sampling and the finite width.

    Chooses m = ceil(n^{q/2}) unless overridden, capped at M_CAP with a
    line in `notes`, then multiplies the sampling log factor (ln m)^{-gamma}
    by the closed-form finite-ball width order.  Needs a finite gamma >= 0
    and m > n.
    """
    in_branch_one = 2.0 <= p <= q < math.inf
    in_branch_two = 1.0 < p < 2.0 <= q < math.inf
    if not (in_branch_one or in_branch_two):
        raise OutOfBranchError(f"(p, q) = ({p}, {q}) outside both proof branches")
    if n < 2:
        raise OutOfBranchError("pipeline needs n >= 2")
    if not 0.0 <= gamma < math.inf:
        raise InvalidExponentError(f"pipeline needs a finite gamma >= 0, got gamma={gamma}")
    notes = []
    if m_override is not None:
        m = int(m_override)
    else:
        # q = 2 would give m = n; the width step needs m > n.
        try:  # an n^{q/2} beyond the float range is above the cap too
            m = max(math.ceil(n ** (q / 2.0)), n + 1)
        except OverflowError:
            m = math.inf
        if m > M_CAP:
            m = M_CAP
            notes.append(f"m capped at {M_CAP}")
    if m <= n:
        raise OutOfBranchError(f"pipeline needs m > n, got m={m}, n={n}")
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


def _pow(x, y):
    """x ** y, with C99 pow's values (numpy's) where math.pow raises: +-inf on
    overflow and for a zero base with a negative exponent, nan for a negative
    base with a non-integer exponent."""
    try:
        return math.pow(x, y)
    except (OverflowError, ValueError):
        integer = float(y).is_integer()
        if x < 0 and not integer:
            return math.nan
        return math.copysign(math.inf, x) if integer and y % 2 == 1 else math.inf


def _log(x):
    """math.log, with numpy's -inf at 0 and nan below it."""
    return math.log(x) if x > 0 else -math.inf if x == 0 else math.nan


def _exp(x):
    """math.exp, with numpy's inf on overflow."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _constant(log_c):
    """A fitted constant e^log_c; beyond the float range, DegenerateDataError."""
    try:
        return math.exp(log_c)
    except OverflowError:
        raise DegenerateDataError("a fitted constant exceeds the float range; rescale the values") from None


def _lstsq(columns, target):
    """Least squares by Householder QR (Golub & Van Loan, Matrix Computations,
    sec. 5.2) over the design's columns: (coefficients, RMS residual).

    QR keeps the design's condition number (about 1e4 for the exp design),
    where the normal equations would square it.  Column norms come from
    math.hypot and each reflector is normalized as in LAPACK's dlarfg, so no
    step squares an entry.  The residual is target - design @ coef, each entry
    summed by math.fsum.  A rank-deficient design raises DegenerateDataError.
    """
    cols, y = [list(col) for col in columns], list(target)
    for j, col in enumerate(cols):
        alpha = col[j]
        beta = -math.copysign(math.hypot(*col[j:]), alpha)
        if beta == 0.0:
            raise DegenerateDataError("the n values are too close together to fit a rate")
        v = [1.0] + [x / (alpha - beta) for x in col[j + 1 :]]
        tau = (beta - alpha) / beta
        for other in cols[j + 1 :] + [y]:
            s = tau * sum(vi * xi for vi, xi in zip(v, other[j:]))
            other[j:] = [xi - s * vi for vi, xi in zip(v, other[j:])]
        col[j] = beta
    k = len(cols)
    coef = [0.0] * k
    for j in reversed(range(k)):
        coef[j] = (y[j] - sum(cols[i][j] * coef[i] for i in range(j + 1, k))) / cols[j][j]
    resid = [math.fsum([t] + [-x * c for x, c in zip(row, coef)]) for t, *row in zip(target, *columns)]
    return coef, math.sqrt(math.fsum(r * r for r in resid) / len(resid))


def _fit_exp_at_r(r, n, logv):
    """The exp family's fit at a fixed r.  n increases, so n^r is largest at
    the last n; where that overflows, the residual is inf."""
    decay = [-_pow(x, r) for x in n]
    if math.isinf(decay[-1]):
        return [math.nan] * 3, math.inf
    return _lstsq([[1.0] * len(decay), decay, [math.log(x) for x in n]], logv)


def _golden_min(f, lo, hi):
    """Golden-section search (Kiefer 1953) for the minimum of f on [lo, hi],
    taken to be unimodal there, down to a bracket of FIT_XATOL."""
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > FIT_XATOL:
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - shrink * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + shrink * (hi - lo)
            fd = f(d)
    return float(c if fc <= fd else d)


def fit_rate(points):
    """Least-squares fit in log space over the three families.

    Returns (model, residual) for the winning family.  Simpler families win
    ties: a richer family is chosen only when it beats the simpler one's
    residual by a factor of 10.
    """
    pts = sorted((float(n), float(v)) for n, v in points)
    if len(pts) < FIT_MIN_POINTS:
        raise DegenerateDataError(f"need at least {FIT_MIN_POINTS} points, got {len(pts)}")
    if not all(math.isfinite(n) and math.isfinite(v) for n, v in pts):
        raise DegenerateDataError("n and values must be finite")
    if any(v <= 0 for _, v in pts):
        raise DegenerateDataError("values must be positive")
    if all(v == pts[0][1] for _, v in pts):
        raise DegenerateDataError("constant values carry no rate information")
    if any(b[0] <= a[0] for a, b in zip(pts, pts[1:])):
        raise DegenerateDataError("n must be strictly increasing")
    kept = [pt for pt in pts if pt[0] >= FIT_MIN_N]
    if len(kept) >= FIT_MIN_POINTS:
        pts = kept
    n = [x for x, _ in pts]
    if n[0] <= 1:
        raise DegenerateDataError(f"the fit needs n > 1 (log log n), got n = {n[0]:g}")
    logv = [math.log(v) for _, v in pts]
    logn = [math.log(x) for x in n]
    ones = [1.0] * len(n)

    coef_p, res_p = _lstsq([ones, [-x for x in logn]], logv)
    poly = RateModel("poly", c=_constant(coef_p[0]), a=coef_p[1])

    coef_l, res_l = _lstsq([ones, [-x for x in logn], [-math.log(x) for x in logn]], logv)
    polylog = RateModel("polylog", c=_constant(coef_l[0]), a=coef_l[1], g=coef_l[2])

    grid_res = [_fit_exp_at_r(r, n, logv)[1] for r in R_GRID]
    best_idx = min(range(len(R_GRID)), key=grid_res.__getitem__)
    lo = R_GRID[max(best_idx - 1, 0)]
    hi = R_GRID[min(best_idx + 1, len(R_GRID) - 1)]
    r_best = _golden_min(lambda r: _fit_exp_at_r(r, n, logv)[1], lo, hi)
    coef_e, res_e = _fit_exp_at_r(r_best, n, logv)
    exp_model = RateModel(
        "exp", c=_constant(coef_e[0]), mu=coef_e[1], r=r_best, b=coef_e[2]
    )

    # The exponential family is only a genuine candidate when its decay term
    # actually spans the data range; otherwise it degenerates into a smooth
    # log-polynomial absorber and would shadow the simpler families.
    exp_span = exp_model.mu * (_pow(n[-1], r_best) - _pow(n[0], r_best))
    if not exp_span >= 0.5:
        res_e = math.inf

    fp = max(res_p, RESIDUAL_FLOOR)
    fl = max(res_l, RESIDUAL_FLOOR)
    fe = max(res_e, RESIDUAL_FLOOR)
    if fp <= PARSIMONY_RATIO * min(fl, fe):
        return poly, res_p
    if fl <= PARSIMONY_RATIO * fe:
        return polylog, res_l
    return exp_model, res_e
