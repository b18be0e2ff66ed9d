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
    en_exact_l2,
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
        kernel = MultiplierKernel(Polynomial(1.0), truncation=10**18)
        evaluated = []
        coefficient = Polynomial.coefficient

        def counted(family, k):
            evaluated.append(k)
            return coefficient(family, k)

        monkeypatch.setattr(Polynomial, "coefficient", counted)
        search = en_lower_search(kernel, 1.5, 3.0, n)
        assert evaluated == list(range(n + 1, n + 9)) and search.evaluated == 8
        evaluated.clear()
        assert en_exact_l2(kernel, n) == pytest.approx(0.5 / (n + 1), rel=1e-15)
        assert evaluated == [n + 1, 10**18]


class TestEnExactL2:
    def test_constant_sequence(self):
        kernel = MultiplierKernel(Polynomial(0.0), truncation=16)
        for n in (0, 3, 10):
            assert en_exact_l2(kernel, n) == pytest.approx(0.5)

    def test_exponential_tail(self):
        kernel = MultiplierKernel(Exponential(1.0, 1.0), truncation=64)
        assert en_exact_l2(kernel, 3) == pytest.approx(0.5 * math.exp(-4))

    def test_truncation_guard(self):
        # For n >= truncation the class lies in T_n, as the scan also reports.
        kernel = MultiplierKernel(Polynomial(0.0), truncation=4)
        assert en_exact_l2(kernel, 4) == en_exact_l2(kernel, 9) == 0.0
        assert en_lower_search(kernel, 1.5, 3.0, 4).value == 0.0

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
    # lambda_k = ln(k+1)^3 / k peaks near k = 19, inside the range.
    @example(n=0, extra=60, family=PolyLog(1.0, -3.0))
    def test_matches_the_full_list_max(self, n, extra, family):
        kernel = MultiplierKernel(family, truncation=n + extra)
        assert en_exact_l2(kernel, n) == 0.5 * max(kernel.lambdas()[n:])

    def test_nonincreasing_in_n(self):
        kernel = MultiplierKernel(PolyLog(0.5, 1.0), truncation=128)
        vals = [en_exact_l2(kernel, n) for n in (1, 4, 16, 64)]
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
        assert en_exact_l2(kernel, n) == pytest.approx(best, abs=1e-6)


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
        kernel = MultiplierKernel(PolyLog(0.0, 1.0), truncation=64)
        for n in (4, 10):
            exact = en_exact_l2(kernel, n)
            lower = en_lower_search(kernel, 2.0, 2.0, n).value
            assert lower == pytest.approx(exact, rel=0.02)
            assert lower <= exact * (1 + 1e-9)

    def test_class_inside_subspace(self):
        # exp(-1000 k) underflows to 0 at every k, so every image is 0.
        kernel = MultiplierKernel(Exponential(1000.0, 1.0), truncation=12)
        search = en_lower_search(kernel, 2.0, 3.0, 4)
        assert (search.value, search.winner, search.evaluated) == (0.0, "none", 8)

    def test_deterministic(self):
        kernel = MultiplierKernel(PolyLog(0.0, 1.0), truncation=32)
        assert en_lower_search(kernel, 1.5, 2.5, 3) == en_lower_search(kernel, 1.5, 2.5, 3)

    # The oracle's L_q norm of cos kx is a 2^12-point trapezoid sum, accurate
    # only algebraically at the zeros of cos kx for q below 2.  Its relative
    # error was at most 6.4e-5 over every k <= 56 at q = 1.2 (worst at k = 32,
    # whose zeros are grid points), less at larger q, and at most 5.6e-5 over
    # 1,200 random draws of n, p, q and the truncation.
    ORACLE_RTOL = 1e-4

    # Kernels for the scan properties: truncations below n+8 (7 of the 16
    # offsets) cut the harmonics n+1..n+8 short.
    SCAN_CASES = dict(
        n=st.integers(0, 40),
        extra=st.integers(1, 16),
        p=st.floats(1.0, 4.0),
        q=st.floats(1.2, 6.0),
        family=st.one_of(
            st.builds(Polynomial, st.floats(-2.0, 3.0)),
            # mu k^r < 745 for k <= 56, so no lambda_k underflows to 0.
            st.builds(Exponential, st.floats(0.1, 2.0), st.floats(0.3, 1.2)),
            st.builds(PolyLog, st.floats(0.0, 1.0), st.floats(0.0, 2.0)),
        ),
    )

    @settings(max_examples=30, deadline=None)
    @given(**SCAN_CASES)
    def test_matches_the_closed_form_harmonic_value(self, n, extra, p, q, family):
        kernel = MultiplierKernel(family, truncation=n + extra)
        lam = kernel.lambdas()
        ks = range(n + 1, min(n + 9, kernel.truncation + 1))
        search = en_lower_search(kernel, p, q, n)
        closed_form = 0.5 * max(lam[k - 1] for k in ks) * cos_norm(q) / cos_norm(p)
        assert search.value == pytest.approx(closed_form, rel=1e-14)
        assert search.evaluated == len(ks)
        if np.all(np.diff(lam) <= 0):
            assert (search.winner, search.k) == ("harmonic", n + 1)
        else:
            assert (search.winner, search.k) == ("harmonic", ks[int(np.argmax(lam[n : ks[-1]]))])

    @settings(max_examples=30, deadline=None)
    @given(**SCAN_CASES)
    def test_batches_match_the_one_at_a_time_search(self, n, extra, p, q, family):
        # The scan scores all its harmonics at once; the oracle solves each
        # harmonic's best approximation on a grid, one at a time, with its
        # L_p norm from the quadrature.
        kernel = MultiplierKernel(family, truncation=n + extra)
        lam = kernel.lambdas()
        unit = poly_lp_norm(TrigPoly.harmonic(1), p)
        errors = [
            0.5 * lam[k - 1] * best_approx(synthesize(TrigPoly.harmonic(k), 2**12), n, q)[0] / unit
            for k in range(n + 1, min(n + 9, kernel.truncation + 1))
        ]
        assert en_lower_search(kernel, p, q, n).value == pytest.approx(max(errors), rel=self.ORACLE_RTOL)

    def test_reports_the_winning_harmonic(self):
        kernel = MultiplierKernel(Polynomial(1.0), truncation=4096)
        search = en_lower_search(kernel, 1.5, 3.0, 8)
        assert (search.winner, search.k, search.evaluated) == ("harmonic", 9, 8)

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
        assert (search.winner, search.k, search.evaluated) == ("harmonic", n + 1, 8)


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
