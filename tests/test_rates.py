import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from widthlab import (
    DegenerateDataError,
    UncoveredRegimeError,
    catalog_record,
    catalog_records,
    en_rate,
    fit_rate,
    optimality_verdict,
    width_rate,
)
from widthlab import rates


class TestWidthRate:
    def test_sobolev_q_below_p(self):
        model = width_rate("sobolev", 4.0, 2.0, r=2.0)
        assert model.kind == "poly" and model.a == pytest.approx(2.0)

    def test_sobolev_p_q_below_2(self):
        model = width_rate("sobolev", 1.5, 2.0, r=1.0)
        assert model.a == pytest.approx(1 - (2 / 3 - 1 / 2))

    def test_sobolev_p_below_2_below_q(self):
        model = width_rate("sobolev", 1.5, 4.0, r=1.0)
        assert model.a == pytest.approx(1 - 2 / 3 + 1 / 2)

    def test_sobolev_both_above_2(self):
        model = width_rate("sobolev", 2.5, 3.0, r=1.0)
        assert model.a == pytest.approx(1.0)

    def test_exponential_b_exponent(self):
        model = width_rate("exponential", 1.5, 4.0, mu=1.0, r=0.5)
        assert model.kind == "exp"
        assert model.b == pytest.approx((1 - 0.5) * (2 / 3 - 0.5))
        assert model.b == pytest.approx(1 / 12)

    def test_analytic_entire(self):
        for r in (1.0, 2.0):
            model = width_rate("exponential", 3.0, 1.5, mu=2.0, r=r)
            assert model.b == 0.0 and model.mu == 2.0

    def test_polylog(self):
        model = width_rate("polylog", 3.0, 3.0, gamma=1.0)
        assert model.kind == "polylog" and model.g == 1.0 and model.a == 0.0

    def test_small_smoothness_branch_switch(self):
        p, q = 2.5, 4.0
        beta = (1 / p - 1 / q) / (2 * (0.5 - 1 / q))
        window = (1 / p - 1 / q, 1 / p)
        assert window[0] < beta < window[1]
        for r in (beta - 0.05, beta + 0.05):
            model = width_rate("sobolev", p, q, r=r)
            expected = max(-r, q * (-r + 1 / p - 1 / q) / 2)
            assert model.a == pytest.approx(-expected)
        # branch identity: below beta the q-branch wins, above it -r wins
        below = width_rate("sobolev", p, q, r=beta - 0.05)
        assert below.a == pytest.approx(-q * (-(beta - 0.05) + 1 / p - 1 / q) / 2)
        above = width_rate("sobolev", p, q, r=beta + 0.05)
        assert above.a == pytest.approx(beta + 0.05)

    def test_boundary_rows_rejected(self):
        with pytest.raises(UncoveredRegimeError):
            width_rate("sobolev", 1.5, 4.0, r=1 / 1.5)  # r = 1/p exactly
        p, q = 2.5, 4.0
        beta = (1 / p - 1 / q) / (2 * (0.5 - 1 / q))
        with pytest.raises(UncoveredRegimeError):
            width_rate("sobolev", p, q, r=beta)
        with pytest.raises(UncoveredRegimeError):
            width_rate("exponential", 3.0, 1.5, mu=1.0, r=0.5)  # q < 2 < p


class TestEnRate:
    def test_sobolev_no_gap(self):
        model = en_rate("sobolev", 2.0, 2.0, r=2.0)
        assert model.a == pytest.approx(2.0)

    def test_sobolev_with_gap(self):
        model = en_rate("sobolev", 1.5, 3.0, r=1.0)
        assert model.a == pytest.approx(1 - (2 / 3 - 1 / 3))

    def test_entire_no_polynomial_factor(self):
        model = en_rate("exponential", 1.5, 4.0, mu=1.0, r=2.0)
        assert model.b == 0.0

    def test_polylog_theorem_family(self):
        model = en_rate("polylog", 3.0, 3.0, gamma=1.0)
        assert model.kind == "polylog" and model.g == 1.0

    def test_requires_r_above_gap(self):
        with pytest.raises(UncoveredRegimeError):
            en_rate("sobolev", 1.5, 4.0, r=0.3)


class TestOptimalityVerdict:
    def test_sobolev_q_below_p_optimal(self):
        assert optimality_verdict("sobolev", 4.0, 3.0, r=3.0).optimal == "optimal"

    def test_sobolev_small_q_optimal(self):
        assert optimality_verdict("sobolev", 1.5, 1.8, r=1.0).optimal == "optimal"

    def test_sobolev_large_q_not_optimal(self):
        assert optimality_verdict("sobolev", 1.5, 3.0, r=1.0).optimal == "not-optimal"
        assert optimality_verdict("sobolev", 2.5, 3.0, r=1.0).optimal == "not-optimal"

    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0, 6.0])
    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    def test_sobolev_p_equals_q_optimal(self, p, r):
        # d_n(W^r_p, L_p) and E_n are both n^-r (Pinkus 1985, ch. VII).
        assert optimality_verdict("sobolev", p, p, r=r).optimal == "optimal"

    def test_exponential_not_optimal(self):
        assert (
            optimality_verdict("exponential", 1.5, 3.0, mu=1.0, r=0.5).optimal
            == "not-optimal"
        )
        # At p = q the width and E_n are both exp(-mu n^r): no power of n
        # separates them, so the cell is optimal.
        assert (
            optimality_verdict("exponential", 3.0, 3.0, mu=1.0, r=0.5).optimal
            == "optimal"
        )

    def test_exponential_small_exponents_optimal(self):
        assert (
            optimality_verdict("exponential", 1.5, 1.8, mu=1.0, r=0.5).optimal
            == "optimal"
        )

    def test_analytic_optimal(self):
        assert (
            optimality_verdict("exponential", 3.0, 1.5, mu=1.0, r=1.0).optimal
            == "optimal"
        )

    def test_polylog_optimal_everywhere(self):
        for p, q in [(1.5, 3.0), (3.0, 1.5), (2.5, 2.5), (4.0, 4.0)]:
            assert optimality_verdict("polylog", p, q, gamma=1.0).optimal == "optimal"

    @settings(max_examples=300, deadline=None)
    @given(
        family=st.sampled_from(["sobolev", "exponential", "polylog"]),
        p=st.one_of(st.just(2.0), st.floats(1.1, 8.0)),
        q=st.one_of(st.just(2.0), st.floats(1.1, 8.0)),
        diagonal=st.booleans(),
        r=st.floats(0.05, 4.0),
        mu=st.floats(0.1, 4.0),
        gamma=st.floats(0.0, 4.0),
    )
    @example(family="exponential", p=3.0, q=3.0, diagonal=False, r=0.5, mu=1.0, gamma=0.0)
    @example(family="exponential", p=1.5, q=2.0, diagonal=False, r=0.5, mu=1.0, gamma=0.0)
    def test_optimal_exactly_where_width_and_error_share_an_order(self, family, p, q, diagonal, r, mu, gamma):
        q = p if diagonal else q
        params = {"sobolev": {"r": r}, "exponential": {"r": r, "mu": mu}, "polylog": {"gamma": gamma}}[family]
        try:
            verdict = optimality_verdict(family, p, q, **params)
        except UncoveredRegimeError:
            return
        same = width_rate(family, p, q, **params).same_order(en_rate(family, p, q, **params))
        assert verdict.optimal == ("optimal" if same else "not-optimal")

    def test_critical_beta_only_in_small_smoothness(self):
        verdict = optimality_verdict("sobolev", 2.5, 4.0, r=0.2)
        assert verdict.critical_beta == pytest.approx(
            (1 / 2.5 - 1 / 4) / (2 * (1 / 2 - 1 / 4))
        )
        assert optimality_verdict("sobolev", 4.0, 2.0, r=2.0).critical_beta is None


class TestCatalog:
    def test_every_cell_resolves(self):
        records = catalog_records()
        assert len(records) >= 40
        for rec in records:
            assert rec["verdict"] in ("optimal", "not-optimal", "uncovered")

    def test_record_shape(self):
        rec = catalog_record("sobolev", 4.0, 2.0, r=2.0)
        assert rec["verdict"] == "optimal"
        assert rec["width_rate"] == "n^-2"
        assert rec["regime"] == "sobolev q<p"


def synth(model_fn, ns):
    return [(n, model_fn(n)) for n in ns]


class TestFitRate:
    NS = [8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512]

    def test_exact_poly(self):
        model, residual = fit_rate(synth(lambda n: 3.0 * n**-2.0, self.NS))
        assert model.kind == "poly"
        assert model.a == pytest.approx(2.0, abs=1e-10)
        assert model.c == pytest.approx(3.0, rel=1e-10)
        assert residual < 1e-10

    def test_exact_exponential(self):
        model, _ = fit_rate(synth(lambda n: math.exp(-0.5 * n**0.5), self.NS))
        assert model.kind == "exp"
        assert model.mu == pytest.approx(0.5, rel=0.05)
        assert model.r == pytest.approx(0.5, rel=0.05)

    def test_exact_polylog(self):
        points = synth(lambda n: math.log(n) ** -1.0, self.NS)
        model, residual = fit_rate(points)
        assert model.kind == "polylog"
        assert model.g == pytest.approx(1.0, abs=1e-8)
        assert residual < 1e-10

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateDataError):
            fit_rate([(n, 1.0) for n in self.NS])
        with pytest.raises(DegenerateDataError):
            fit_rate([(n, -(n**-1.0)) for n in self.NS])
        with pytest.raises(DegenerateDataError):
            fit_rate([(8, 1.0), (16, 0.5)])
        # Six n one float step apart share one ln n: the design has rank 1.
        with pytest.raises(DegenerateDataError, match="too close together"):
            fit_rate([(1e17 + 16 * k, 1 / (k + 1)) for k in range(6)])

    def test_n_whose_powers_overflow(self):
        # n^r overflows for r > 308/250 at the last n; those r score inf, and
        # the exact power law still wins.
        model, residual = fit_rate([(10.0**k, 10.0**-k) for k in (10, 50, 100, 150, 200, 250)])
        assert model.kind == "poly"
        assert model.a == pytest.approx(1.0, rel=1e-12)
        assert residual < 1e-12

    def test_r_grid_is_the_linspace(self):
        assert rates.R_GRID == np.linspace(0.05, 2.0, 40).tolist()


def numpy_evaluation(model, n):
    """RateModel's evaluation as numpy gives it, with its warnings off."""
    n = np.asarray(n, dtype=float)
    with np.errstate(all="ignore"):
        if model.kind == "poly":
            return float(model.c * n ** (-model.a))
        if model.kind == "polylog":
            return float(model.c * n ** (-model.a) * np.log(n) ** (-model.g))
        return float(model.c * np.exp(-model.mu * n**model.r) * n**model.b)


# Integer exponents take pow's odd/even branches for a negative base.
EXPONENT = st.one_of(st.sampled_from([-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0]), st.floats(-3.0, 3.0))


class TestRateModelEvaluation:
    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(["poly", "polylog", "exp"]),
        n=st.one_of(st.sampled_from([-4.0, -1.0, 0.0, 0.5, 1.0, 600.0]), st.floats(-4.0, 600.0)),
        c=st.floats(1e-3, 1e3),
        a=EXPONENT,
        g=EXPONENT,
        mu=st.floats(-2.0, 2.0),
        r=st.one_of(EXPONENT, st.floats(0.05, 2.0)),
        b=EXPONENT,
    )
    def test_matches_numpy(self, kind, n, c, a, g, mu, r, b):
        """Off the model's domain (n <= 0, ln n <= 0, exp overflow) the value is
        numpy's nan or signed inf; elsewhere it agrees to rounding."""
        model = rates.RateModel(kind, c=c, a=a, g=g, mu=mu, r=r, b=b)
        got, want = model(n), numpy_evaluation(model, n)
        if math.isfinite(want):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300)
        else:
            assert (math.isnan(got) and math.isnan(want)) or got == want


class TestLstsq:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.lists(st.integers(2, 600), min_size=6, max_size=13, unique=True).map(sorted),
        shape=st.sampled_from(["poly", "polylog", "exp"]),
        r=st.floats(0.05, 2.0),
        scale=st.sampled_from([1e-6, 1e-3, 1.0, 10.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_numpy_lstsq(self, n, shape, r, scale, seed):
        """On fit_rate's three designs: coefficients within 1e-10 relative,
        scaled by the design's condition number, and the RMS residual within
        1e-12 relative."""
        n = np.asarray(n, dtype=float)
        columns = {
            "poly": [np.ones_like(n), -np.log(n)],
            "polylog": [np.ones_like(n), -np.log(n), -np.log(np.log(n))],
            "exp": [np.ones_like(n), -(n**r), np.log(n)],
        }[shape]
        design = np.column_stack(columns)
        target = scale * np.random.default_rng(seed).standard_normal(len(n))
        coef, residual = rates._lstsq(columns, target)
        want, *_ = np.linalg.lstsq(design, target, rcond=None)
        want_residual = math.sqrt(np.mean((target - design @ want) ** 2))
        assert np.linalg.norm(np.asarray(coef) - want) <= 1e-10 * np.linalg.cond(design) * np.linalg.norm(want)
        assert residual == pytest.approx(want_residual, rel=1e-12)


class TestGoldenMin:
    @settings(max_examples=40, deadline=None)
    @given(
        c=st.floats(0.2, 5.0),
        mu=st.floats(0.02, 2.0),
        r=st.floats(0.05, 2.0),
        b=st.floats(-1.0, 1.0),
        npts=st.integers(6, 13),
        noise=st.sampled_from([0.0, 1e-6, 1e-3, 1e-2]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_refines_the_grid_minimum(self, c, mu, r, b, npts, noise, seed):
        """On an exp series c exp(-mu n^r) n^b with log-normal noise, the
        refined residual is not above the best of fit_rate's 40-point grid,
        and the refined r is the minimizer of a dense scan of the bracket to
        the scan's step.  Where the grid node is already the exact minimizer
        (noise-free data, r on the grid) the refine may land up to FIT_XATOL
        away, so its own change over one FIT_XATOL step is allowed, plus
        RESIDUAL_FLOOR for rounding."""
        n = np.asarray(TestFitRate.NS[:npts], dtype=float)
        noise = noise * np.random.default_rng(seed).standard_normal(npts)
        logv = math.log(c) - mu * n**r + b * np.log(n) + noise

        def residual(x):
            return rates._fit_exp_at_r(x, n, logv)[1]

        grid = np.linspace(0.05, 2.0, 40)
        i = int(np.argmin([residual(x) for x in grid]))
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
        best = rates._golden_min(residual, lo, hi)
        step_change = max(residual(best - rates.FIT_XATOL), residual(best + rates.FIT_XATOL)) - residual(best)
        assert residual(best) <= residual(grid[i]) + max(step_change, 0.0) + rates.RESIDUAL_FLOOR
        scan = np.linspace(lo, hi, 1001)
        assert abs(best - scan[np.argmin([residual(x) for x in scan])]) <= scan[1] - scan[0]
