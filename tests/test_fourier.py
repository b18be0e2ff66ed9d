import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widthlab import (
    Exponential,
    GridFunction,
    GridTooCoarseError,
    InvalidDimensionError,
    MultiplierKernel,
    Polynomial,
    TrigPoly,
    TruncationExceededError,
    analyze,
    apply_multiplier,
    convolution_constant,
    eval_poly,
    lp_norm,
    synthesize,
)
from widthlab.fourier import synthesize_rows


def random_poly(rng, degree, with_const=True):
    return TrigPoly(
        rng.standard_normal() if with_const else 0.0,
        rng.standard_normal(degree),
        rng.standard_normal(degree),
    )


class TestTrigPoly:
    @settings(max_examples=30, deadline=None)
    @given(degree=st.integers(0, 12), with_const=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_from_coeffs_inverts_coeff_vector(self, degree, with_const, seed):
        t = random_poly(np.random.default_rng(seed), degree, with_const)
        back = TrigPoly.from_coeffs(t.coeff_vector())
        assert back.a0 == t.a0
        np.testing.assert_array_equal(back.a, t.a)
        np.testing.assert_array_equal(back.b, t.b)

    def test_harmonic_zero_is_the_constant_one(self):
        t = TrigPoly.harmonic(0)
        assert (t.a0, t.degree) == (1.0, 0)


class TestEvalPoly:
    def test_cos_at_zero(self):
        assert eval_poly(TrigPoly.harmonic(1), 0.0) == pytest.approx(1.0)

    def test_constant(self):
        t = TrigPoly(1.0, np.zeros(0), np.zeros(0))
        for x in (0.0, 1.0, 5.5):
            assert eval_poly(t, x) == pytest.approx(1.0)

    def test_matches_naive_summation(self):
        rng = np.random.default_rng(42)
        t = random_poly(rng, 8)
        xs = rng.uniform(0, 2 * np.pi, 100)
        for x in xs:
            naive = t.a0 + sum(
                t.a[k - 1] * math.cos(k * x) + t.b[k - 1] * math.sin(k * x)
                for k in range(1, 9)
            )
            assert eval_poly(t, x) == pytest.approx(naive, abs=1e-13)


class TestAnalyze:
    def test_picks_out_cos3(self):
        f = synthesize(TrigPoly.harmonic(3), 64)
        t = analyze(f, 3)
        assert t.a[2] == pytest.approx(1.0, abs=1e-13)
        assert abs(t.a0) < 1e-13
        assert np.max(np.abs(np.delete(t.a, 2))) < 1e-13
        assert np.max(np.abs(t.b)) < 1e-13

    def test_projection_kills_high_mode(self):
        f = synthesize(TrigPoly.harmonic(3), 64)
        t = analyze(f, 2)
        assert np.max(np.abs(t.coeff_vector())) < 1e-13

    def test_recovers_degree_10_coefficients(self):
        rng = np.random.default_rng(7)
        t = random_poly(rng, 10)
        recovered = analyze(synthesize(t, 64), 10)
        assert np.max(np.abs(recovered.coeff_vector() - t.coeff_vector())) < 1e-12

    def test_grid_too_coarse(self):
        f = synthesize(TrigPoly.harmonic(3), 64)
        with pytest.raises(GridTooCoarseError):
            analyze(f, 32)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        f = synthesize(random_poly(rng, 12), 128)
        once = analyze(f, 5)
        twice = analyze(synthesize(once, 128), 5)
        assert np.max(np.abs(once.coeff_vector() - twice.coeff_vector())) < 1e-13


class TestApplyMultiplier:
    def test_identity(self):
        kernel = MultiplierKernel(Polynomial(0), truncation=8)
        rng = np.random.default_rng(0)
        t = random_poly(rng, 8, with_const=False)
        out = apply_multiplier(kernel, t)
        assert np.allclose(out.a, t.a) and np.allclose(out.b, t.b)

    def test_hand_expansion(self):
        # 1/k^2 decay: cos x + sin 2x -> cos x + sin(2x)/4
        kernel = MultiplierKernel(Polynomial(2), truncation=2)
        phi = TrigPoly(0.0, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        out = apply_multiplier(kernel, phi)
        assert out.a[0] == pytest.approx(1.0)
        assert out.b[1] == pytest.approx(0.25)
        assert out.a[1] == 0.0 and out.b[0] == 0.0

    def test_drops_constant_by_default(self):
        kernel = MultiplierKernel(Polynomial(0), truncation=2)
        out = apply_multiplier(kernel, TrigPoly(3.0, np.ones(2), np.ones(2)))
        assert out.a0 == 0.0

    def test_truncation_exceeded(self):
        kernel = MultiplierKernel(Polynomial(0), truncation=2)
        with pytest.raises(TruncationExceededError):
            apply_multiplier(kernel, TrigPoly.harmonic(3))

    def test_composition_is_pointwise_product(self):
        rng = np.random.default_rng(5)
        r1, r2 = rng.uniform(0.1, 2, 2)
        k1 = MultiplierKernel(Polynomial(r1), truncation=6)
        k2 = MultiplierKernel(Polynomial(r2), truncation=6)
        k12 = MultiplierKernel(Polynomial(r1 + r2), truncation=6)
        t = random_poly(rng, 6, with_const=False)
        chained = apply_multiplier(k2, apply_multiplier(k1, t))
        direct = apply_multiplier(k12, t)
        assert np.allclose(chained.coeff_vector(), direct.coeff_vector())


class TestMultiplierKernel:
    def test_truncation_is_required(self):
        with pytest.raises(TypeError):
            MultiplierKernel(Polynomial(1.0))

    @pytest.mark.parametrize("truncation", [0, -5])
    def test_truncation_below_one_is_rejected(self, truncation):
        with pytest.raises(InvalidDimensionError, match=f"'truncation' must be >= 1, got {truncation}"):
            MultiplierKernel(Polynomial(1.0), truncation=truncation)


class TestSynthesizeRows:
    @settings(max_examples=20, deadline=None)
    @given(
        n_grid=st.sampled_from([256, 260, 1040, 2**16, 66048, 66560]),
        degree=st.integers(0, 127),
        rows=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_unshifted_equals_spectrum_scaled_formula(self, n_grid, degree, rows, seed):
        coeffs = np.random.default_rng(seed).standard_normal((rows, 2 * degree + 1))
        # The formula that scaled the whole half-complex spectrum after filling it.
        spec = np.zeros((rows, n_grid // 2 + 1), dtype=complex)
        spec[:, 0] = coeffs[:, 0]
        spec[:, 1 : degree + 1] = 0.5 * (coeffs[:, 1 : degree + 1] - 1j * coeffs[:, degree + 1 :])
        spec *= n_grid
        expected = np.fft.irfft(spec, n=n_grid, axis=-1)
        assert np.array_equal(synthesize_rows(coeffs, n_grid), expected)

    # At degree 1 a twiddle broadcast over the rows makes numpy's complex
    # multiply loop across them, and it rounds by the row's position there.
    @settings(max_examples=30, deadline=None)
    @given(
        n_grid=st.sampled_from([256, 260, 1040]),
        degree=st.integers(0, 3) | st.integers(0, 127),
        rows=st.integers(2, 40),
        shift=st.sampled_from([0.0, 0.25, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_do_not_depend_on_the_batch(self, n_grid, degree, rows, shift, seed):
        coeffs = np.random.default_rng(seed).standard_normal((rows, 2 * degree + 1))
        whole = synthesize_rows(coeffs, n_grid, shift)
        for step in (1, 3):
            blocks = [synthesize_rows(coeffs[i : i + step], n_grid, shift) for i in range(0, rows, step)]
            assert np.array_equal(np.concatenate(blocks), whole)

    @pytest.mark.parametrize("degree, n_grid", [(1, 256), (7, 15), (33, 260), (127, 516)])
    def test_midpoints_match_direct_evaluation(self, degree, n_grid):
        t = random_poly(np.random.default_rng(degree), degree)
        mid = synthesize_rows(t.coeff_vector(), n_grid, shift=0.5)
        points = 2 * np.pi * (np.arange(n_grid) + 0.5) / n_grid
        scale = np.max(np.abs(mid))
        assert np.max(np.abs(mid - eval_poly(t, points))) <= 1e-12 * scale


def grid_convolution(kernel, phi, n_grid):
    """(1/2pi) int K(x-y) phi(y) dy on an n_grid-point grid, from the samples
    of K(x) = sum_k lambda_k cos kx and of phi."""
    lam = kernel.lambdas()
    k = synthesize(TrigPoly(0.0, lam, np.zeros_like(lam)), n_grid).samples
    spec = np.fft.rfft(k) * np.fft.rfft(synthesize(phi, n_grid).samples)
    return GridFunction(np.fft.irfft(spec, n=n_grid) / n_grid)


class TestInvariants:
    def test_parseval(self):
        rng = np.random.default_rng(11)
        for degree in (1, 7, 33, 64):
            t = random_poly(rng, degree)
            norm_sq = lp_norm(synthesize(t), 2) ** 2
            exact = 2 * np.pi * t.a0**2 + np.pi * (np.sum(t.a**2) + np.sum(t.b**2))
            assert norm_sq == pytest.approx(exact, rel=1e-10)

    def test_convolution_multiplier_consistency(self):
        rng = np.random.default_rng(13)
        const = convolution_constant()
        for family in (Polynomial(rng.uniform(0.1, 2)), Exponential(rng.uniform(0.1, 1), 1.0)):
            kernel = MultiplierKernel(family, truncation=5)
            phi = random_poly(rng, 5, with_const=False)
            conv = analyze(grid_convolution(kernel, phi, 64), 5)
            mult = apply_multiplier(kernel, phi)
            assert np.allclose(conv.a, const * mult.a, atol=1e-12)
            assert np.allclose(conv.b, const * mult.b, atol=1e-12)

    def test_convolution_constant_value(self):
        assert convolution_constant() == pytest.approx(0.5, abs=1e-12)
