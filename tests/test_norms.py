import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from widthlab import (
    InvalidExponentError,
    NonconvergenceError,
    TrigPoly,
    analyze,
    best_approx,
    lp_norm,
    mz_ratio_stats,
    poly_lp_norm,
    synthesize,
)
from widthlab import norms
from widthlab.fourier import GridFunction, eval_poly, synthesize_rows
from widthlab.norms import (
    QUADRATURE_BLOCK,
    QUADRATURE_CAP,
    _grid_lp,
    _power_sums,
    _quadrature_lp,
    _random_unit_polys,
    _trapezoid_lp,
)


def random_poly(rng, degree):
    return TrigPoly(0.0, rng.standard_normal(degree), rng.standard_normal(degree))


class TestLpNorm:
    def test_constant_l2(self):
        f = synthesize(TrigPoly(1.0, np.zeros(0), np.zeros(0)), 256)
        assert lp_norm(f, 2) == pytest.approx(math.sqrt(2 * math.pi), rel=1e-12)

    def test_cos_l2(self):
        f = synthesize(TrigPoly.harmonic(1), 256)
        assert lp_norm(f, 2) == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_cos_l1(self):
        f = synthesize(TrigPoly.harmonic(1), 2**14)
        assert lp_norm(f, 1) == pytest.approx(4.0, rel=1e-6)

    def test_rejects_p_below_one(self):
        f = synthesize(TrigPoly.harmonic(1), 64)
        with pytest.raises(InvalidExponentError):
            lp_norm(f, 0.5)

    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_rejects_infinite_and_nan_p_like_poly_lp_norm(self, p):
        f = synthesize(TrigPoly(0.0, np.array([3.0]), np.zeros(1)), 64)
        for norm, arg in [(lp_norm, f), (poly_lp_norm, TrigPoly.harmonic(1))]:
            with pytest.raises(InvalidExponentError, match="p must be finite and >= 1"):
                norm(arg, p)

    def test_holder_consistency(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            t = random_poly(rng, 6)
            for p, q in [(1.0, 2.0), (1.5, 3.0), (2.0, 4.0)]:
                lo = poly_lp_norm(t, p)
                hi = poly_lp_norm(t, q)
                assert lo <= (2 * math.pi) ** (1 / p - 1 / q) * hi * (1 + 1e-10)


class TestQuadrature:
    @settings(max_examples=20, deadline=None)
    @given(
        n_grid=st.sampled_from([256, 260, 1040, 4096, 2**16, 66560]),
        degree=st.integers(1, 127),
        extra_rows=st.integers(1, 4096),
        p=st.floats(1.0, 8.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocked_norms_equal_whole_batch(self, n_grid, degree, extra_rows, p, seed):
        # One full block plus part of another, so every batch is split.
        block_rows = max(1, QUADRATURE_BLOCK // n_grid)
        rows = block_rows + 1 + extra_rows % block_rows
        coeffs = np.random.default_rng(seed).standard_normal((rows, 2 * degree + 1))
        whole = _trapezoid_lp(synthesize_rows(coeffs, n_grid), p)
        assert np.array_equal(_grid_lp(coeffs, n_grid, p), whole)

    @settings(max_examples=20, deadline=None)
    @given(
        n_grid=st.sampled_from([256, 260, 516, 2**12]),
        degree=st.integers(1, 127),
        rows=st.integers(1, 40),
        p=st.floats(1.0, 8.0),
        block=st.sampled_from([QUADRATURE_BLOCK, 2**13, 2**12]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_power_sums_do_not_depend_on_blocking(self, n_grid, degree, rows, p, block, seed):
        coeffs = np.random.default_rng(seed).standard_normal((rows, 2 * degree + 1))
        for shift in (0.0, 0.5):
            whole = np.sum(np.abs(synthesize_rows(coeffs, n_grid, shift)) ** p, axis=-1)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(norms, "QUADRATURE_BLOCK", block)
                assert np.array_equal(_power_sums(coeffs, n_grid, p, shift), whole)

    # p = 1.5 runs the ladder to the cap; p = 2^10 transforms one exact grid
    # at the cap.  `workers` quadratures running at once (in separate
    # processes, say) each get QUADRATURE_BLOCK // workers samples.
    @pytest.mark.parametrize("p", [1.5, 2.0**10])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_at_most_one_block_per_worker_in_flight(self, monkeypatch, p, workers):
        block = QUADRATURE_BLOCK // workers
        calls = []
        alive = []

        def recording(coeffs, n_grid, shift=0.0):
            # The previous block's samples are freed before the next is made.
            assert all(ref() is None for ref in alive)
            calls.append((len(coeffs), n_grid))
            x = synthesize_rows(coeffs, n_grid, shift)
            alive.append(weakref.ref(x))
            return x

        monkeypatch.setattr(norms, "synthesize_rows", recording)
        monkeypatch.setattr(norms, "QUADRATURE_BLOCK", block)
        # Scaled so that |t|^(2^10) stays finite.
        coeffs = 0.1 * _random_unit_polys(64, 200, np.random.default_rng(3))
        _quadrature_lp(coeffs, p)
        assert max(n_grid for _, n_grid in calls) >= 2**15
        # 200 rows of 2^15 samples split into blocks of at most 32 rows.
        assert any(rows < 200 for rows, _ in calls)
        assert all(rows == 1 or rows * n_grid <= block for rows, n_grid in calls)

    # m = 64, p = 6: the start grid 4(m+1) = 260 is below 6m = 384, and 520
    # is the first grid on the doubling ladder that integrates |t|^6 exactly.
    # m = 4, p = 2^20: the exact grid lies beyond the cap, which stops the ladder.
    @pytest.mark.parametrize("m, p, grid", [(64, 6.0, 520), (4, 2.0**20, QUADRATURE_CAP)])
    def test_even_p_transforms_one_grid(self, monkeypatch, m, p, grid):
        grids = []

        def recording(coeffs, n_grid, shift=0.0):
            grids.append(n_grid)
            return synthesize_rows(coeffs, n_grid, shift)

        monkeypatch.setattr(norms, "synthesize_rows", recording)
        # Scaled so that |t|^(2^20) underflows to 0 instead of overflowing.
        coeffs = 0.1 * _random_unit_polys(m, 8, np.random.default_rng(5))
        _quadrature_lp(coeffs, p)
        assert grids == [grid]

    @settings(max_examples=20, deadline=None)
    @given(
        n_grid=st.sampled_from([256, 260, 516, 2**15]),
        degree=st.integers(1, 127),
        rows=st.integers(1, 8),
        p=st.floats(1.0, 8.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_midpoint_sums_complete_the_doubled_grid(self, n_grid, degree, rows, p, seed):
        coeffs = np.random.default_rng(seed).standard_normal((rows, 2 * degree + 1))
        nested = _power_sums(coeffs, n_grid, p) + _power_sums(coeffs, n_grid, p, shift=0.5)
        direct = np.sum(np.abs(synthesize_rows(coeffs, 2 * n_grid)) ** p, axis=-1)
        assert np.allclose(nested, direct, rtol=1e-14, atol=0)

    @staticmethod
    def _doubling_ladder(coeffs, p):
        """The ladder that synthesizes every point of each doubled grid afresh."""
        m = (coeffs.shape[-1] - 1) // 2
        n_grid = 256
        while n_grid < 4 * (m + 1):
            n_grid *= 2
        prev = _grid_lp(coeffs, n_grid, p)
        while n_grid < QUADRATURE_CAP:
            n_grid *= 2
            cur = _grid_lp(coeffs, n_grid, p)
            if np.all(np.abs(cur - prev) <= norms.QUADRATURE_TOL * cur):
                return cur, n_grid
            prev = cur
        return prev, n_grid

    # m = 64, p = 1.5: the ladder starts on 512 points, not 4(m+1) = 260, and
    # runs into the cap at exactly 2^16 points.  m = 4, p = 7: it stops below
    # the cap.
    @pytest.mark.parametrize("m, p", [(64, 1.5), (4, 7.0)])
    def test_non_even_p_transforms_only_midpoints(self, monkeypatch, m, p):
        coeffs = _random_unit_polys(m, 8, np.random.default_rng(5))
        expected, final_grid = self._doubling_ladder(coeffs, p)
        calls = []

        def recording(coeffs, n_grid, shift=0.0):
            calls.append((n_grid, shift))
            return synthesize_rows(coeffs, n_grid, shift)

        monkeypatch.setattr(norms, "synthesize_rows", recording)
        norms_nested, grid, _ = _quadrature_lp(coeffs, p)
        start = 512 if m == 64 else 256
        # The start grid, then the midpoints of each grid in turn.
        levels = [start * 2**k for k in range(len(calls) - 1)]
        assert calls == [(start, 0.0)] + [(n, 0.5) for n in levels]
        assert 2 * calls[-1][0] == grid == final_grid
        assert grid == QUADRATURE_CAP or m == 4
        assert np.allclose(norms_nested, expected, rtol=1e-15, atol=0)


class TestBestApprox:
    def test_orthogonal_high_harmonic(self):
        n = 5
        f = synthesize(TrigPoly.harmonic(n + 1), 256)
        err, argmin = best_approx(f, n, 2.0)
        assert err == pytest.approx(math.sqrt(math.pi), rel=1e-12)
        assert np.max(np.abs(argmin.coeff_vector())) < 1e-12

    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    def test_member_of_subspace(self, q):
        rng = np.random.default_rng(1)
        t = random_poly(rng, 10)
        err, argmin = best_approx(synthesize(t, 256), 10, q)
        assert err < 1e-9
        assert np.max(np.abs(argmin.coeff_vector() - t.coeff_vector())) < 1e-7

    def test_parseval_tail(self):
        rng = np.random.default_rng(4)
        t = random_poly(rng, 20)
        err, _ = best_approx(synthesize(t), 10, 2.0)
        tail = math.sqrt(math.pi * (np.sum(t.a[10:] ** 2) + np.sum(t.b[10:] ** 2)))
        assert err == pytest.approx(tail, rel=1e-8)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.integers(1, 40).flatmap(lambda d: st.tuples(st.just(d), st.integers(0, d))),
        rows=st.integers(1, 4),
    )
    def test_parseval_tail_property(self, seed, shape, rows):
        # err^2 = pi * sum_{k>n} (a_k^2 + b_k^2), for best_approx and for the
        # batched rows alike.
        degree, n = shape
        coeffs = np.random.default_rng(seed).standard_normal((rows, 2 * degree + 1))
        a, b = coeffs[:, 1 : degree + 1], coeffs[:, degree + 1 :]
        tails = math.pi * np.sum(a[:, n:] ** 2 + b[:, n:] ** 2, axis=1)
        errors, _ = norms.best_approx_rows(synthesize_rows(coeffs, 256), n, 2.0)
        np.testing.assert_allclose(errors**2, tails, rtol=1e-9, atol=1e-20)
        err, _ = best_approx(synthesize(TrigPoly(coeffs[0, 0], a[0], b[0]), 256), n, 2.0)
        assert err**2 == pytest.approx(tails[0], rel=1e-9, abs=1e-20)

    def test_error_nonincreasing_in_n(self):
        rng = np.random.default_rng(9)
        f = synthesize(random_poly(rng, 16), 256)
        for q in (1.5, 3.0):
            errs = [best_approx(f, n, q)[0] for n in (0, 4, 8, 12, 16)]
            assert all(a >= b - 1e-10 for a, b in zip(errs, errs[1:]))

    def test_zero_iff_no_residual_beyond_n(self):
        rng = np.random.default_rng(10)
        t = random_poly(rng, 6)
        f = synthesize(t, 256)
        assert best_approx(f, 6, 3.0)[0] < 1e-9
        assert best_approx(f, 5, 3.0)[0] > 1e-3

    def test_iterative_path_agrees_at_q2(self):
        rng = np.random.default_rng(12)
        f = synthesize(random_poly(rng, 12), 256)
        phi = norms._design_matrix(f.grid, 6)
        (c,), converged = norms._lq_regress(phi, f.samples[None], 2.0, np.zeros((1, 13)))
        assert converged
        np.testing.assert_allclose(c, analyze(f, 6).coeff_vector(), rtol=0, atol=1e-12)


def first_order_residual(f, t, q):
    """max_k |phi_k^T (sign(r) |r|^(q-1))| over the basis 1, cos kx, sin kx
    of T_n at the residual r = f - t, relative to sum |r|^(q-1), which
    bounds every term; zero at the exact L_q minimizer."""
    x = f.grid
    r = f.samples - eval_poly(t, x)
    k = np.arange(1, t.degree + 1)
    basis = np.vstack([np.ones_like(x), np.cos(np.outer(k, x)), np.sin(np.outer(k, x))])
    return np.max(np.abs(basis @ (np.sign(r) * np.abs(r) ** (q - 1.0)))) / np.sum(np.abs(r) ** (q - 1.0))


class TestLqSolver:
    """The shared IRLS solver through best_approx, against the optimality
    condition and the partial sum it starts from."""

    # The solve stops once the l_q error moves by at most IRLS_TOL = 1e-10
    # relative and the first-order residual is at most 1e-6, or once the
    # coefficient step is at most 1e-10: 300 random cases reached 9.8e-7, and
    # the step exit ends the seed-80 example (q = 1.2, where |r|^(q-1) is
    # least smooth) at 1.2e-5.
    FIRST_ORDER_TOL = 1e-4

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.integers(2, 12).flatmap(lambda d: st.tuples(st.just(d), st.integers(0, d - 1))),
        q=st.floats(1.2, 8.0),
    )
    @example(seed=80, shape=(2, 0), q=1.201171875)
    def test_first_order_condition_and_no_worse_than_the_partial_sum(self, seed, shape, q):
        degree, n = shape
        f = synthesize(random_poly(np.random.default_rng(seed), degree), 256)
        err, argmin = best_approx(f, n, q)
        assert first_order_residual(f, argmin, q) <= self.FIRST_ORDER_TOL
        start = lp_norm(GridFunction(f.samples - eval_poly(analyze(f, n), f.grid)), q)
        assert err <= start * (1 + 1e-12)

    def test_converges_where_a_step_only_stop_rule_hits_the_cap(self, monkeypatch):
        # Stopping on the coefficient step alone (1e-11 relative) ran past
        # 200 full steps on this case; the l_q error settles within 40.
        rng = np.random.default_rng(5)
        f = synthesize(random_poly(rng, 6), 256)
        calls = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda *args: calls.append(1) or solve(*args))
        _, argmin = best_approx(f, 4, 1.2)
        assert len(calls) < 50
        assert first_order_residual(f, argmin, 1.2) <= self.FIRST_ORDER_TOL

    @pytest.mark.parametrize("scale", [1e-20, 1e-12, 1e6])
    def test_scale_invariant(self, scale):
        f = synthesize(random_poly(np.random.default_rng(3), 12), 256)
        err, argmin = best_approx(f, 6, 3.0)
        scaled_err, scaled_argmin = best_approx(GridFunction(scale * f.samples), 6, 3.0)
        assert scaled_err == pytest.approx(scale * err, rel=1e-12)
        assert np.allclose(scaled_argmin.coeff_vector(), scale * argmin.coeff_vector(), rtol=1e-10, atol=0)

    def test_cap_raises_with_diagnostics(self, monkeypatch):
        monkeypatch.setattr(norms, "IRLS_MAX_ITER", 1)
        f = synthesize(random_poly(np.random.default_rng(3), 12), 256)
        with pytest.raises(NonconvergenceError) as exc:
            best_approx(f, 6, 3.0)
        assert set(exc.value.diagnostics) == {"iterations", "error", "q", "n"}
        assert exc.value.diagnostics["iterations"] == 1


class TestMzRatioStats:
    def test_p2_ratios_concentrate(self):
        for m in (4, 16):
            lo, hi, _ = mz_ratio_stats(m, 2.0, 50, seed=0)
            assert hi / lo == pytest.approx(1.0, abs=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 128), trials=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
    def test_p2_ratios_equal_the_exact_constant(self, m, trials, seed):
        # At p = 2 both norms follow from Parseval: the 2m+1 samples of a
        # degree-m polynomial give (2m+1)/(2pi) times its squared L_2 norm.
        exact = math.sqrt((2 * m + 1) / (2 * math.pi * m))
        lo, hi, _ = mz_ratio_stats(m, 2.0, trials, seed)
        assert abs(lo - exact) <= 2e-15 * exact
        assert abs(hi - exact) <= 2e-15 * exact

    def test_deterministic(self):
        assert mz_ratio_stats(1, 2.5, 1, seed=77) == mz_ratio_stats(1, 2.5, 1, seed=77)

    @pytest.mark.parametrize("m, p", [(0, 2.0), (4, 0.5), (4, 1.0), (4, math.inf)])
    def test_rejects_m_and_p_outside_range(self, m, p):
        with pytest.raises(InvalidExponentError):
            mz_ratio_stats(m, p, 5, seed=0)

    @pytest.mark.parametrize("m", [64, 128])
    def test_even_p_matches_exact_grid(self, m):
        # |t|^6 has degree 6m < 1024, so a 1024-point grid integrates it exactly.
        p, trials, seed = 6.0, 20, 5
        coeffs = _random_unit_polys(m, trials, np.random.default_rng(seed))
        points = 2 * np.pi * np.arange(2 * m + 1) / (2 * m + 1)
        ratios = []
        for c in coeffs:
            t = TrigPoly(c[0], c[1 : m + 1], c[m + 1 :])
            discrete = m ** (-1 / p) * np.sum(np.abs(eval_poly(t, points)) ** p) ** (1 / p)
            ratios.append(discrete / lp_norm(synthesize(t, 1024), p))
        lo, hi, _ = mz_ratio_stats(m, p, trials, seed)
        assert lo == pytest.approx(min(ratios), rel=1e-12)
        assert hi == pytest.approx(max(ratios), rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(1, 64),
        p=st.floats(1.1, 8.0).filter(lambda p: p % 2 != 0),
        trials=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(m=16, p=1.5, trials=60, seed=1)
    @example(m=64, p=3.0, trials=60, seed=2)
    def test_screened_extremes_match_refining_every_row(self, m, p, trials, seed):
        coeffs = _random_unit_polys(m, trials, np.random.default_rng(seed))
        discrete = m ** (-1.0 / p) * _power_sums(coeffs, 2 * m + 1, p) ** (1.0 / p)
        ratios = discrete / _quadrature_lp(coeffs, p)[0]
        lo, hi, _ = mz_ratio_stats(m, p, trials, seed)
        # The same rows as the all-rows ladder, within 1e-9 relative.
        assert np.argmin(np.abs(ratios - lo)) == np.argmin(ratios)
        assert np.argmin(np.abs(ratios - hi)) == np.argmax(ratios)
        assert abs(lo - ratios.min()) <= 1e-9 * ratios.min()
        assert abs(hi - ratios.max()) <= 1e-9 * ratios.max()

    def test_only_candidate_rows_pass_the_screening_level(self, monkeypatch):
        calls = []
        power_sums = norms._power_sums

        def recording(coeffs, n_grid, p, shift=0.0):
            calls.append((len(coeffs), n_grid))
            return power_sums(coeffs, n_grid, p, shift)

        monkeypatch.setattr(norms, "_power_sums", recording)
        mz_ratio_stats(16, 1.5, 200, seed=1)
        # The screening ladder's levels carry all 200 rows; every level above
        # them carries the same few candidate rows, and no fallback runs.
        screen = max(n_grid for rows, n_grid in calls if rows == 200)
        above = {rows for rows, n_grid in calls if n_grid > screen}
        assert len(above) == 1 and above.pop() <= 6

    def test_a_refined_ratio_outside_its_band_refines_every_row(self, monkeypatch):
        m, p, trials, seed = 16, 1.5, 50, 2
        coeffs = _random_unit_polys(m, trials, np.random.default_rng(seed))
        discrete = m ** (-1.0 / p) * _power_sums(coeffs, 2 * m + 1, p) ** (1.0 / p)
        every_row, grid, change = _quadrature_lp(coeffs, p)
        ratios = discrete / every_row
        sizes = []
        quadrature_lp = norms._quadrature_lp

        def recording(coeffs, p, *tol):
            sizes.append(len(coeffs))
            return quadrature_lp(coeffs, p, *tol)

        monkeypatch.setattr(norms, "_quadrature_lp", recording)
        # Zero-width bands: every refined ratio lands outside its own.
        monkeypatch.setattr(norms, "MZ_BAND", 0.0)
        lo, hi, quadrature = mz_ratio_stats(m, p, trials, seed)
        assert sizes == [trials, 2, trials]
        assert (lo, hi) == (ratios.min(), ratios.max())
        converged = bool(np.all(change <= norms.QUADRATURE_TOL * every_row))
        assert quadrature == {"grid": grid, "converged": converged}

    def test_p3_spread_bounded_across_degrees(self):
        spreads = []
        for m in (4, 64):
            lo, hi, _ = mz_ratio_stats(m, 3.0, 100, seed=1)
            spreads.append(hi / lo)
        assert max(spreads) / min(spreads) <= 10.0
