import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from widthlab import (
    InvalidExponentError,
    OutOfBranchError,
    TrigPoly,
    best_approx,
    en_lower_search,
    lower_bound_pipeline,
    synthesize,
)
from widthlab import classes, fourier, norms
from widthlab.classes import Exponential, MultiplierKernel, PolyLog, Polynomial, convolution_constant
from widthlab.rates import M_CAP
from widthlab.fourier import analyze, apply_multiplier
from widthlab.norms import lp_norm, poly_lp_norm


def cos_norm(r):
    """||cos||_r over [0, 2pi), from int |cos x|^r dx = 2 sqrt(pi) G((r+1)/2) / G(r/2+1)."""
    return (2 * math.sqrt(math.pi) * math.gamma((r + 1) / 2) / math.gamma(r / 2 + 1)) ** (1 / r)


class TestKernelCoefficients:
    # Relative error of a coefficient against a 40-digit mpmath value, in
    # units of 2^-52 times max(1, mu k^r): exp(-x) inherits the argument's
    # rounding as x times its relative error.  Fixed before this test from
    # 200,000 draws over the ranges below (k <= 10^6, normal results): the
    # largest error was 0.50 (Polynomial), 2.2 (PolyLog) and 1.1
    # (Exponential), and numpy's array loops were no closer.
    ULPS = 4.0

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.integers(1, 10**6),
        family=st.one_of(
            st.builds(Polynomial, st.floats(-3.0, 4.0)),
            st.builds(PolyLog, st.floats(-1.0, 2.0), st.floats(-3.0, 3.0)),
            st.builds(Exponential, st.floats(0.01, 2.0), st.floats(0.2, 1.5)),
        ),
    )
    def test_match_mpmath(self, k, family):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            kk = mpmath.mpf(k)
            scale = 1.0
            if isinstance(family, Polynomial):
                exact = kk ** -mpmath.mpf(family.r)
            elif isinstance(family, PolyLog):
                exact = kk ** -mpmath.mpf(family.rho) * mpmath.log(kk + 1) ** -mpmath.mpf(family.gamma)
            else:
                x = mpmath.mpf(family.mu) * kk ** mpmath.mpf(family.r)
                exact, scale = mpmath.exp(-x), max(1.0, float(x))
            assume(1e-300 < exact < 1e300)
            value = MultiplierKernel(family, truncation=k).coefficient(k)
            error = float(abs(value - exact) / exact)
        assert error <= self.ULPS * 2.0**-52 * scale

    @pytest.mark.parametrize(
        "family, k",
        [
            (Exponential(-20.0, 1.0), 41), (Polynomial(-400.0), 9), (PolyLog(0.0, 5000.0), 1),
            (PolyLog(1.0 / 3.0, -400.0), 4096), (PolyLog(-400.0, 1.0), 9), (PolyLog(-100.0, -300.0), 1000),
            (Exponential(-700.0, 51.0), 10**6),
        ],
        ids=["exponential-growth", "sobolev-growth", "polylog-first", "polylog-log-growth",
             "polylog-power-growth", "polylog-inf-product", "exponential-inf-argument"],
    )
    def test_overflow_is_invalid_exponent(self, family, k):
        # Construction evaluates lambda_1 and lambda_truncation, which bound
        # every other coefficient (see MultiplierKernel).
        with pytest.raises(InvalidExponentError, match=f"lambda_{k} overflows"):
            MultiplierKernel(family, truncation=k)

    @pytest.mark.parametrize("n", [0, 8, 10**6, 10**15])
    def test_scan_evaluates_at_most_eight_coefficients(self, monkeypatch, n):
        # A nonincreasing kernel's whole tail up to 10^18 costs three
        # evaluations at any n: the two ends lambda_{n+1} and lambda_T, and
        # the winner.
        kernel = MultiplierKernel(Polynomial(1.0), truncation=10**18)
        evaluated = []
        coefficient = Polynomial.coefficient

        def counted(family, k):
            evaluated.append(k)
            return coefficient(family, k)

        monkeypatch.setattr(Polynomial, "coefficient", counted)
        for p, q in [(2.0, 2.0), (1.5, 3.0), (1.0, 1.2), (4.0, 1.5)]:
            evaluated.clear()
            search = en_lower_search(kernel, p, q, n)
            assert search.value == pytest.approx(0.5 / (n + 1) * cos_norm(q) / cos_norm(p), rel=1e-14)
            assert search.k == n + 1 and sorted(evaluated) == [n + 1, n + 1, 10**18]

    def test_growing_tail_bisects_to_the_first_maximum(self, monkeypatch):
        # k^0.5 rounds to 1e9 over the last 64 harmonics up to 10^18, so the
        # first maximum lies before the truncation.
        kernel = MultiplierKernel(Polynomial(-0.5), truncation=10**18)
        evaluated = []
        coefficient = Polynomial.coefficient

        def counted(family, k):
            evaluated.append(k)
            return coefficient(family, k)

        monkeypatch.setattr(Polynomial, "coefficient", counted)
        k = en_lower_search(kernel, 1.5, 3.0, 8).k
        # The two ends, at most ceil(log2(10^18)) = 60 bisection steps and the winner.
        assert len(evaluated) <= 63
        assert kernel.coefficient(k) == kernel.coefficient(10**18) > kernel.coefficient(k - 1) and k < 10**18


class TestEnExactL2:
    def test_constant_sequence(self):
        kernel = MultiplierKernel(Polynomial(0.0), truncation=16)
        for n in (0, 3, 10):
            assert en_lower_search(kernel, 2.0, 2.0, n).value == pytest.approx(0.5)

    def test_exponential_tail(self):
        kernel = MultiplierKernel(Exponential(1.0, 1.0), truncation=64)
        assert en_lower_search(kernel, 2.0, 2.0, 3).value == pytest.approx(0.5 * math.exp(-4))

    def test_truncation_guard(self):
        # For n >= truncation the class lies in T_n, as the scan also reports.
        kernel = MultiplierKernel(Polynomial(0.0), truncation=4)
        for p, q in [(2.0, 2.0), (1.5, 3.0)]:
            assert en_lower_search(kernel, p, q, 4).value == en_lower_search(kernel, p, q, 9).value == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 80),
        extra=st.integers(1, 120),
        family=st.one_of(
            st.builds(Polynomial, st.floats(-2.0, 3.0)),
            st.builds(Exponential, st.floats(-0.5, 2.0), st.floats(-1.0, 1.2)),
            # A PolyLog with rho * gamma < 0 is the one kernel not monotone in k.
            st.builds(PolyLog, st.floats(-1.0, 1.0), st.floats(-3.0, 2.0)),
        ),
    )
    # lambda_k = ln(k+1)^3 / k peaks at k = 16, inside the range.
    @example(n=0, extra=60, family=PolyLog(1.0, -3.0))
    def test_matches_the_full_list_max(self, n, extra, family):
        kernel = MultiplierKernel(family, truncation=n + extra)
        assert en_lower_search(kernel, 2.0, 2.0, n).value == 0.5 * max(kernel.lambdas()[n:])

    def test_nonincreasing_in_n(self):
        kernel = MultiplierKernel(PolyLog(0.5, 1.0), truncation=128)
        vals = [en_lower_search(kernel, 2.0, 2.0, n).value for n in (1, 4, 16, 64)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_matches_direct_sup_search(self):
        # independent oracle: maximize the projection residual over random
        # unit-norm inputs plus the first uncovered harmonic
        n = 10
        kernel = MultiplierKernel(PolyLog(0.0, 1.0), truncation=64)
        rng = np.random.default_rng(8)
        const = convolution_constant()
        grid = 512
        best = 0.0
        candidates = [TrigPoly.harmonic(n + 1)]
        for _ in range(200):
            c = rng.standard_normal(2 * 30 + 1)
            candidates.append(TrigPoly(c[0], c[1:31], c[31:]))
        for phi in candidates:
            norm = poly_lp_norm(phi, 2.0)
            image = apply_multiplier(kernel, phi)
            image = TrigPoly(0.0, const * image.a / norm, const * image.b / norm)
            f = synthesize(image, grid)
            resid = f.samples - synthesize(analyze(f, n), grid).samples
            from widthlab import GridFunction

            best = max(best, lp_norm(GridFunction(resid), 2.0))
        assert en_lower_search(kernel, 2.0, 2.0, n).value == pytest.approx(best, abs=1e-6)


class TestCosLpNorm:
    @pytest.mark.parametrize(
        "p, integral", [(1.0, 4.0), (2.0, math.pi), (3.0, 8 / 3), (4.0, 3 * math.pi / 4)]
    )
    def test_known_integrals(self, p, integral):
        # int_0^{2pi} |cos x|^p dx by Wallis' formulas.
        assert classes._cos_lp_norm(p) == pytest.approx(integral ** (1 / p), rel=1e-15)

    @pytest.mark.parametrize("p", [2.0, 4.0, 6.0])
    @pytest.mark.parametrize("k", [1, 9, 56])
    def test_matches_the_exact_quadrature_at_even_p(self, p, k):
        # At even p the quadrature is exact on its first grid.
        assert classes._cos_lp_norm(p) == pytest.approx(poly_lp_norm(TrigPoly.harmonic(k), p), rel=1e-14)

    @pytest.mark.parametrize("p", [341.0, 400.0, 1e6])
    def test_matches_mpmath_where_gamma_overflows(self, p):
        # math.gamma(p/2 + 1) overflows from p = 342 on; 341 is the last integer p of the gamma form.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            pp = mpmath.mpf(p)
            integral = 2 * mpmath.sqrt(mpmath.pi) * mpmath.gamma((pp + 1) / 2) / mpmath.gamma(pp / 2 + 1)
            exact = float(integral ** (1 / pp))
        assert classes._cos_lp_norm(p) == pytest.approx(exact, rel=1e-15)


class TestEnLowerSearch:
    def test_agrees_with_exact_l2(self):
        # At p = q the norm ratio is 1 and is skipped, so every such value is
        # the exact L_2 value bit for bit: (x c) / c can miss x by one ulp.
        kernel = MultiplierKernel(PolyLog(0.0, 1.0), truncation=64)
        for p in (1.2, 1.5, 2.0, 3.0, 400.0):
            for n in (4, 10):
                assert en_lower_search(kernel, p, p, n).value == 0.5 * kernel.coefficient(n + 1)

    def test_class_inside_subspace(self):
        # exp(-1000 k) underflows to 0 at every k, so every image is 0.
        kernel = MultiplierKernel(Exponential(1000.0, 1.0), truncation=12)
        search = en_lower_search(kernel, 2.0, 3.0, 4)
        assert search == (0.0, "none", None)

    def test_deterministic(self):
        kernel = MultiplierKernel(PolyLog(0.0, 1.0), truncation=32)
        assert en_lower_search(kernel, 1.5, 2.5, 3) == en_lower_search(kernel, 1.5, 2.5, 3)

    # The oracle's L_q norm of cos kx is a 2^12-point trapezoid sum, accurate
    # only algebraically at the zeros of cos kx for q below 2.  Its relative
    # error was at most 6.4e-5 over every k <= 56 at q = 1.2 (worst at k = 32,
    # whose zeros are grid points), less at larger q, and at most 5.6e-5 over
    # 1,200 random draws of n, p, q and the truncation.
    ORACLE_RTOL = 1e-4

    # Kernels for the scan properties, over the whole tail n < k <= n + extra:
    # decaying and growing ones of every family, and the one kernel not
    # monotone in k, a PolyLog with rho * gamma < 0.
    SCAN_CASES = dict(
        n=st.integers(0, 40),
        extra=st.integers(1, 16),
        p=st.floats(1.0, 4.0),
        q=st.floats(1.2, 6.0),
        family=st.one_of(
            st.builds(Polynomial, st.floats(-2.0, 3.0)),
            # |mu| k^r < 745 for k <= 56, so no lambda_k underflows or overflows.
            st.builds(Exponential, st.floats(-2.0, 2.0), st.floats(0.3, 1.2)),
            st.builds(PolyLog, st.floats(-1.0, 1.0), st.floats(-3.0, 2.0)),
        ),
    )

    @settings(max_examples=60, deadline=None)
    @given(**SCAN_CASES)
    # lambda_k = sqrt(k) grows, so the last harmonic, k = 4096, wins.
    @example(n=8, extra=4088, p=2.0, q=2.001, family=Polynomial(-0.5))
    # k^(2^-52) rounds to its top value from k = 91 on, short of the truncation.
    @example(n=8, extra=192, p=1.5, q=3.0, family=Polynomial(-2.0**-52))
    # lambda_k = ln(k+1)^3 / k peaks at k = 16, inside the tail.
    @example(n=2, extra=50, p=1.5, q=3.0, family=PolyLog(1.0, -3.0))
    def test_matches_the_closed_form_harmonic_value(self, n, extra, p, q, family):
        kernel = MultiplierKernel(family, truncation=n + extra)
        lam = kernel.lambdas()
        best = max(lam[n:])
        search = en_lower_search(kernel, p, q, n)
        assert search.value == pytest.approx(0.5 * best * cos_norm(q) / cos_norm(p), rel=1e-14)
        assert (search.winner, search.k) == ("harmonic", lam.index(best, n) + 1)

    @settings(max_examples=30, deadline=None)
    @given(**SCAN_CASES)
    def test_batches_match_the_one_at_a_time_search(self, n, extra, p, q, family):
        # The scan scores every harmonic of the tail by its closed form; the
        # oracle solves each harmonic's best approximation on a grid, one at a
        # time, with its L_p norm from the quadrature.
        kernel = MultiplierKernel(family, truncation=n + extra)
        lam = kernel.lambdas()
        unit = poly_lp_norm(TrigPoly.harmonic(1), p)
        errors = [
            0.5 * lam[k - 1] * best_approx(synthesize(TrigPoly.harmonic(k), 2**12), n, q)[0] / unit
            for k in range(n + 1, kernel.truncation + 1)
        ]
        assert en_lower_search(kernel, p, q, n).value == pytest.approx(max(errors), rel=self.ORACLE_RTOL)

    def test_reports_the_winning_harmonic(self):
        kernel = MultiplierKernel(Polynomial(1.0), truncation=4096)
        search = en_lower_search(kernel, 1.5, 3.0, 8)
        assert (search.winner, search.k) == ("harmonic", 9)
        growing = MultiplierKernel(Polynomial(-1.0), truncation=4096)
        assert en_lower_search(growing, 1.5, 3.0, 8).k == 4096

    @pytest.mark.parametrize(
        "r, truncation, n", [(1.0, 4096, 8), (0.2, 12, 2)], ids=["harmonic-wins", "small-truncation"]
    )
    def test_runs_no_solver_quadrature_or_synthesis(self, monkeypatch, r, truncation, n):
        def forbidden(*args):
            raise AssertionError("the scan is a closed form")

        for module, name in [(norms, "_lq_regress"), (norms, "_quadrature_lp"), (norms, "synthesize_rows"),
                             (fourier, "synthesize_rows")]:
            monkeypatch.setattr(module, name, forbidden)
        kernel = MultiplierKernel(Polynomial(r), truncation=truncation)
        search = en_lower_search(kernel, 1.5, 3.0, n)
        assert (search.winner, search.k) == ("harmonic", n + 1)


class TestLowerBoundPipeline:
    def test_hand_value_branch_one(self):
        rep = lower_bound_pipeline(1.0, 2.0, 4.0, 16)
        assert rep.m_chosen == 256
        assert rep.phi_value == 1.0
        assert rep.lower_bound == pytest.approx(1 / math.log(256))
        assert rep.lower_bound == pytest.approx(0.1804, abs=5e-4)

    def test_hand_value_branch_two(self):
        rep = lower_bound_pipeline(1.0, 1.5, 2.0, 16, m_override=256)
        phi = max(256 ** (0.5 - 2 / 3), math.sqrt(240 / 256))
        assert rep.phi_value == pytest.approx(phi, abs=1e-12)
        assert rep.lower_bound == pytest.approx(phi / math.log(256), rel=1e-12)

    def test_log_equivalent_to_log_n(self):
        gamma = 1.3
        for n in (8, 64, 512):
            rep = lower_bound_pipeline(gamma, 2.0, 4.0, n)
            ratio = rep.lower_bound / math.log(n) ** (-gamma)
            assert 0.3 < ratio < 1.1

    def test_out_of_branch(self):
        with pytest.raises(OutOfBranchError):
            lower_bound_pipeline(1.0, 3.0, 2.0, 16)
        with pytest.raises(OutOfBranchError):
            lower_bound_pipeline(1.0, 2.0, 4.0, 1)

    def test_m_capped(self):
        rep = lower_bound_pipeline(1.0, 2.0, 6.0, 512)
        assert rep.m_chosen == M_CAP
        assert "capped" in rep.notes


class TestProjectionBoundedness:
    @pytest.mark.parametrize("q", [1.5, 4.0])
    def test_partial_sum_norm_bounded(self, q):
        rng = np.random.default_rng(21)
        ratios = []
        for m in (4, 8, 16, 32):
            for _ in range(5):
                t = TrigPoly(rng.standard_normal(), rng.standard_normal(48), rng.standard_normal(48))
                f = synthesize(t, 512)
                sm = synthesize(analyze(f, m), 512)
                ratios.append(lp_norm(sm, q) / lp_norm(f, q))
        assert max(ratios) < 3.0
