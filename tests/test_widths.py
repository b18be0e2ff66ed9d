import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widthlab import (
    BallWidthInstance,
    DimensionGuardError,
    NonconvergenceError,
    OutOfBranchError,
    ball_width_bruteforce,
    coordinate_subspace_bound,
    norms,
    phi_gluskin,
    rates,
    widths,
)

FAST = dict(restarts=2, inner_starts=16, final_starts=32, max_iter=12)
# The widths benchmark's settings: the CLI defaults with two restarts.
SWEEP = dict(restarts=2, inner_starts=32, final_starts=64, max_iter=30)


def dual_sup(frame, p, q, z, steps):
    """The p > 1 inner sup of one complement frame, with its gradient state,
    from the random starts z: the one-frame case of widths._dual_sups."""
    (out,) = widths._dual_sups([frame], [z], p / (p - 1.0), q / (q - 1.0), steps)
    return out


def unreachable(*args):
    raise AssertionError("inner supremum evaluated")


class TestPhiGluskin:
    def test_clamps_to_one_for_large_m(self):
        for m, n, p, q in [(16, 2, 2, 4.0), (100, 4, 3, 6.0), (81, 3, 2, 4.0)]:
            assert m >= n ** (q / 2)
            assert phi_gluskin(BallWidthInstance(m, n, p, q)) == 1.0

    def test_hand_value_branch_one(self):
        assert phi_gluskin(BallWidthInstance(16, 4, 2, math.inf)) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_hand_value_branch_two(self):
        expected = max(1 / 3, math.sqrt(2 / 3))
        assert phi_gluskin(BallWidthInstance(9, 3, 1, 2)) == pytest.approx(
            expected, abs=1e-12
        )

    def test_n_zero_clamps(self):
        assert phi_gluskin(BallWidthInstance(5, 0, 2, 4)) == 1.0

    def test_out_of_branch(self):
        with pytest.raises(OutOfBranchError):
            phi_gluskin(BallWidthInstance(8, 2, 3, 2))  # q < p, q > ... no branch
        with pytest.raises(OutOfBranchError):
            phi_gluskin(BallWidthInstance(4, 4, 2, 4))  # m == n

    def test_monotone_in_n_and_m(self):
        for p, q in [(2, 4.0), (1.5, 3.0)]:
            vals_n = [phi_gluskin(BallWidthInstance(64, n, p, q)) for n in range(0, 60, 7)]
            assert all(a >= b - 1e-12 for a, b in zip(vals_n, vals_n[1:]))
            vals_m = [phi_gluskin(BallWidthInstance(m, 8, p, q)) for m in (9, 16, 64, 256)]
            assert all(a <= b + 1e-12 for a, b in zip(vals_m, vals_m[1:]))

    def test_continuous_across_clamp(self):
        # m^{1/q} n^{-1/2} = 1 at n = m^{2/q}; step across it and compare
        q = 4.0
        n = 16
        m_star = n ** (q / 2)
        below = phi_gluskin(BallWidthInstance(int(m_star - 1), n, 2.5, q))
        above = phi_gluskin(BallWidthInstance(int(m_star + 1), n, 2.5, q))
        assert below == pytest.approx(above, rel=1e-3)


class TestCoordinateBound:
    def test_full_space(self):
        assert coordinate_subspace_bound(BallWidthInstance(4, 4, 2, 2)) == 0.0

    def test_q_geq_p_gives_one(self):
        assert coordinate_subspace_bound(BallWidthInstance(5, 2, 2, 2)) == 1.0
        assert coordinate_subspace_bound(BallWidthInstance(5, 2, 1.5, 3)) == 1.0

    def test_q_below_p(self):
        assert coordinate_subspace_bound(BallWidthInstance(4, 2, 2, 1)) == pytest.approx(
            math.sqrt(2)
        )


def angular_oracle_m3_n1(p, q, step=1e-3):
    """Exhaustive grid over line directions in R^3 for p = 1 (vertex sup)."""
    thetas = np.arange(0, math.pi + step, step)
    phis = np.arange(0, 2 * math.pi, step * 6)
    best = np.inf
    vertices = np.eye(3)
    for theta in thetas:
        sin_t = math.sin(theta)
        dirs = np.column_stack(
            [sin_t * np.cos(phis), sin_t * np.sin(phis), np.full_like(phis, math.cos(theta))]
        )
        proj = vertices @ dirs.T
        resid_sq = 1.0 - proj**2
        worst = np.max(resid_sq, axis=0)
        best = min(best, float(np.sqrt(np.min(worst))))
    return best


def serial_descent(inst, restarts, seed, max_iter, inner_starts, final_starts):
    """The brute force one restart at a time, as plain loops: the reference
    for the lockstep driver.  Returns the value, the median and the stops."""
    m, n, p, q = inst.m, inst.n, inst.p, inst.q
    dual = p > 1.0
    cols = m - n if dual else n

    def sup(frame, z, steps):
        return dual_sup(frame, p, q, z, steps) if dual else widths._vertex_sup(frame, q)

    values, stops = [coordinate_subspace_bound(inst)], []
    for child in np.random.SeedSequence(seed).spawn(restarts)[1:]:
        rng = np.random.default_rng(child)
        frame = widths._orthonormalize(rng.standard_normal((m, cols)))
        z_inner = rng.standard_normal((inner_starts, cols))
        z_final = rng.standard_normal((final_starts, cols))
        val, state = sup(frame, z_inner, widths.ASCENT_STEPS)
        step, stop = 0.25, "max_iter"
        for _ in range(max_iter):
            grad = np.outer(*state)
            accepted = False
            for _ in range(8):
                trial = widths._orthonormalize(frame - step * grad)
                tval, tstate = sup(trial, z_inner, widths.ASCENT_STEPS)
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
        values.append(max(sup(frame, z_final, widths.FINAL_ASCENT_STEPS)[0], val))
    return min(values), float(np.median(values)), stops


class TestBruteForce:
    def test_n_zero_closed_form(self):
        est = ball_width_bruteforce(BallWidthInstance(4, 0, 2, 1), **FAST)
        assert est.value == pytest.approx(4 ** (1 - 0.5))
        est = ball_width_bruteforce(BallWidthInstance(4, 0, 1.5, 3), **FAST)
        assert est.value == 1.0

    def test_euclidean_ball_width_is_one(self):
        for n in range(5):
            est = ball_width_bruteforce(BallWidthInstance(5, n, 2, 2), **FAST)
            assert est.value == pytest.approx(1.0, abs=1e-6)
        assert ball_width_bruteforce(BallWidthInstance(5, 5, 2, 2), **FAST).value == 0.0

    def test_matches_angular_oracle(self, monkeypatch):
        # (1, 2) is a closed form; patched out, the p = 1 descent must reach it too.
        oracle = angular_oracle_m3_n1(1, 2, step=2e-3)
        exact = ball_width_bruteforce(BallWidthInstance(3, 1, 1, 2))
        monkeypatch.setattr(widths, "closed_form_width", lambda inst: None)
        est = ball_width_bruteforce(BallWidthInstance(3, 1, 1, 2), restarts=4, seed=0)
        assert est.method == "bruteforce"
        assert est.value == pytest.approx(oracle, abs=1e-3)
        assert exact.value == pytest.approx(oracle, abs=1e-3)

    def test_dimension_guard(self):
        with pytest.raises(DimensionGuardError):
            ball_width_bruteforce(BallWidthInstance(9, 2, 2, 2))

    def test_domination_sample(self):
        for m, n, p, q in [(3, 1, 1.5, 3.0), (4, 2, 3.0, 1.5), (5, 3, 1.0, 3.0)]:
            inst = BallWidthInstance(m, n, p, q)
            est = ball_width_bruteforce(inst, seed=3, **FAST)
            assert est.value <= coordinate_subspace_bound(inst) + 1e-6

    # At (1, 3), off the (1, 2) closed form, every 1 <= n <= m - 2 descends.
    def test_monotone_in_n(self):
        vals = [
            ball_width_bruteforce(BallWidthInstance(5, n, 1, 3), restarts=4, seed=1).value
            for n in range(6)
        ]
        assert all(a >= b - 1e-6 for a, b in zip(vals, vals[1:]))

    def test_monotone_in_m(self):
        vals = [
            ball_width_bruteforce(BallWidthInstance(m, 2, 1, 3), restarts=4, seed=1).value
            for m in (3, 4, 5)
        ]
        assert all(a <= b + 1e-6 for a, b in zip(vals, vals[1:]))

    def test_diagnostics_present(self):
        est = ball_width_bruteforce(BallWidthInstance(4, 2, 1.5, 3), **FAST)
        assert est.direction == "upper-bound"
        assert est.diagnostics["restarts"] == 2
        assert "median" in est.diagnostics

    def test_stop_reasons_reported(self):
        # One stop per descended restart: restart 0 runs no descent.
        for restarts in (2, 3):
            est = ball_width_bruteforce(BallWidthInstance(5, 2, 1.5, 3), seed=1, **{**SWEEP, "restarts": restarts})
            assert len(est.diagnostics["stops"]) == restarts - 1
            assert set(est.diagnostics["stops"]) <= {"stationary", "max_iter"}
            assert set(est.diagnostics) == {"restarts", "median", "stops", "frame"}

    def test_closed_forms_run_no_restarts(self):
        for m, n, p, q in [(4, 0, 2, 1), (4, 4, 1.5, 3), (5, 2, 1, 1), (5, 3, 3, 3), (5, 2, 3.0, 1.5)]:
            inst = BallWidthInstance(m, n, p, q)
            est = ball_width_bruteforce(inst, **FAST)
            assert est.value == coordinate_subspace_bound(inst)
            assert est.direction == "two-sided"
            assert est.diagnostics == {"restarts": 0}

    def test_one_restart_runs_no_descent(self, monkeypatch):
        # Restart 0 is the coordinate frame at its closed-form value.
        monkeypatch.setattr(widths, "_dual_ascent", unreachable)
        monkeypatch.setattr(widths, "_vertex_sup", unreachable)
        for p, q in [(1.0, 1.5), (1.5, 3.0)]:
            inst = BallWidthInstance(5, 2, p, q)
            est = ball_width_bruteforce(inst, restarts=1)
            assert est.value == coordinate_subspace_bound(inst)
            assert est.diagnostics["stops"] == []

    def test_p_one_scores_each_descended_frame_once(self, monkeypatch):
        # The vertex sup is exact and takes no starts, so a final evaluation
        # would only repeat the descent's value: max_iter=0 runs one call per
        # descended (n, restart) problem and no more.
        vertex_sup, calls = widths._vertex_sup, []
        monkeypatch.setattr(widths, "_vertex_sup", lambda frame, q: calls.append(q) or vertex_sup(frame, q))
        insts = [BallWidthInstance(5, n, 1.0, 3.0) for n in (1, 2, 3)]
        widths.ball_widths_bruteforce(insts, restarts=3, seed=1, max_iter=0)
        assert len(calls) == 3 * 2

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.integers(1, rates.DESK_SCALE_MAX_DIM).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m))),
        exponents=st.floats(1.0, 12.0).flatmap(lambda q: st.tuples(st.one_of(st.just(q), st.floats(q, 24.0)), st.just(q))),
    )
    def test_q_at_most_p_is_the_pietsch_stesin_closed_form(self, shape, exponents):
        (m, n), (p, q) = shape, exponents
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(widths, "_dual_ascent", unreachable)
            mp.setattr(widths, "_vertex_sup", unreachable)
            est = ball_width_bruteforce(BallWidthInstance(m, n, p, q), restarts=3, seed=1)
        assert est.value == (0.0 if n == m else (m - n) ** (1.0 / q - 1.0 / p))
        assert (est.direction, est.method, est.diagnostics) == ("two-sided", "closed-form", {"restarts": 0})

    @pytest.mark.parametrize("p, q", [(1.0, 1.5), (1.0, 2.0), (1.0, 3.0), (1.5, 2.0), (1.5, 3.0), (2.0, 3.0)])
    def test_envelope_gradient_vanishes_at_the_coordinate_frame(self, p, q):
        # Why restart 0 needs no descent.
        rng = np.random.default_rng(5)
        for m in range(2, 7):
            for n in range(1, m):
                if p == 1.0:
                    _, state = widths._vertex_sup(np.eye(m, n), q)
                else:
                    z = rng.standard_normal((SWEEP["inner_starts"], m - n))
                    _, state = dual_sup(np.eye(m)[:, n:], p, q, z, widths.ASCENT_STEPS)
                assert not np.any(np.outer(*state)), (m, n)

    @pytest.mark.parametrize("p, q", [(1.0, 1.5), (1.0, 3.0), (1.5, 3.0), (2.0, 4.0)])
    def test_lockstep_matches_the_serial_loops(self, p, q):
        # Same values, medians and stops to the last bit, every n of m = 5 in one call.
        budget = dict(restarts=4, seed=6, max_iter=20, inner_starts=8, final_starts=16)
        insts = [BallWidthInstance(5, n, p, q) for n in (1, 2, 3)]
        for inst, est in zip(insts, widths.ball_widths_bruteforce(insts, **budget)):
            value, median, stops = serial_descent(inst, **budget)
            assert (est.value, est.diagnostics["median"], est.diagnostics["stops"]) == (value, median, stops)

    def test_list_form_matches_one_instance_at_a_time(self):
        # Closed forms and descents mixed; each descent is the one its instance gets alone.
        for p, q in [(1.0, 1.5), (1.5, 3.0)]:
            insts = [BallWidthInstance(5, n, p, q) for n in (3, 0, 1, 4, 2)]
            together = widths.ball_widths_bruteforce(insts, seed=2, **FAST)
            for inst, est in zip(insts, together):
                alone = ball_width_bruteforce(inst, seed=2, **FAST)
                assert (est.value, est.direction, est.method) == (alone.value, alone.direction, alone.method)
                assert {k: v for k, v in est.diagnostics.items() if k != "frame"} == {
                    k: v for k, v in alone.diagnostics.items() if k != "frame"
                }
                assert np.array_equal(est.diagnostics.get("frame"), alone.diagnostics.get("frame"))

    def test_list_form_needs_one_cell(self):
        with pytest.raises(ValueError):
            widths.ball_widths_bruteforce([BallWidthInstance(5, 2, 1.5, 3), BallWidthInstance(5, 2, 1.5, 4)], **FAST)
        # Closed forms join any list.
        ests = widths.ball_widths_bruteforce([BallWidthInstance(4, 0, 2, 1), BallWidthInstance(5, 2, 1.5, 3)], **FAST)
        assert [est.direction for est in ests] == ["two-sided", "upper-bound"]

    def test_frame_spans_the_subspace(self):
        for p, q in [(1.0, 1.5), (1.5, 3.0)]:
            frame = ball_width_bruteforce(BallWidthInstance(5, 2, p, q), seed=1, **FAST).diagnostics["frame"]
            assert frame.shape == (5, 2)
            assert np.allclose(frame.T @ frame, np.eye(2), atol=1e-12)


def dft_frame(m, n):
    """n orthonormal real DFT columns of R^m, 0 < n < m: the constant column
    when n is odd, then cosine and sine pairs.  Every row has norm sqrt(n/m)."""
    i = np.arange(m)
    cols = [np.full(m, 1.0 / math.sqrt(m))] if n % 2 else []
    for k in range(1, n // 2 + 1):
        cols += [math.sqrt(2.0 / m) * np.cos(2 * math.pi * k * i / m), math.sqrt(2.0 / m) * np.sin(2 * math.pi * k * i / m)]
    return np.column_stack(cols)


class TestNewClosedForms:
    """(p, q) = (1, 2) at every n, and n = m - 1 for every p < q."""

    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(2, rates.DESK_SCALE_MAX_DIM),
        seed=st.integers(0, 2**32 - 1),
        p=st.one_of(st.just(1.0), st.floats(1.01, 6.0)),
        gap=st.floats(0.5, 6.0),
        data=st.data(),
    )
    def test_closed_form_is_at_most_the_descent(self, m, seed, p, gap, data):
        # A descended value exhibits a subspace, so it cannot fall below the width.
        n = data.draw(st.integers(1, m - 1))
        for inst in (BallWidthInstance(m, n, 1.0, 2.0), BallWidthInstance(m, m - 1, p, p + gap)):
            exact = rates.closed_form_width(inst)
            assert (exact.direction, exact.method, exact.diagnostics) == ("two-sided", "closed-form", {"restarts": 0})
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(widths, "closed_form_width", lambda inst: None)
                descended = ball_width_bruteforce(inst, seed=seed, **FAST)
            assert descended.method == "bruteforce"
            assert exact.value <= descended.value * (1 + 1e-12)

    @pytest.mark.parametrize("p, q", [(1.0, 1.5), (1.0, 3.0), (1.5, 3.0), (2.0, 4.0), (1.2, 1.5)])
    def test_the_flat_normal_attains_n_equal_m_minus_1(self, p, q):
        rng = np.random.default_rng(3)
        for m in range(2, rates.DESK_SCALE_MAX_DIM + 1):
            flat = np.ones((m, 1)) / math.sqrt(m)
            if p == 1.0:
                value, _ = widths._vertex_sup(widths._complement(flat), q)
            else:
                value, _ = dual_sup(flat, p, q, rng.standard_normal((4, 1)), 0)
            exact = rates.closed_form_width(BallWidthInstance(m, m - 1, p, q)).value
            assert exact == m ** (1 / q - 1 / p)
            assert value == pytest.approx(exact, rel=1e-12)

    def test_a_dft_frame_attains_the_one_two_width(self):
        for m in range(2, rates.DESK_SCALE_MAX_DIM + 1):
            for n in range(1, m):
                frame = dft_frame(m, n)
                assert np.allclose(frame.T @ frame, np.eye(n), atol=1e-12)
                value, _ = widths._vertex_sup(frame, 2.0)
                exact = rates.closed_form_width(BallWidthInstance(m, n, 1.0, 2.0)).value
                assert exact == math.sqrt(1 - n / m)
                assert value == pytest.approx(exact, rel=1e-12)


def dual_ratio_scan(frame, p, q, n_angles=100_000, refine=1_000):
    """Max of ||y||_{p'} / ||y||_{q'} over y in the span of a 3 x 2 frame.

    Scans n_angles directions of the half circle (the ratio is even), then
    rescans the two neighbouring cells of every local maximum with refine
    points each, which brings the error of a smooth peak to ~1e-16.
    """

    def norms(y, r):
        if r == 1.0:  # dual exponent infinity
            return np.max(np.abs(y), axis=1)
        r_dual = r / (r - 1.0)
        return np.sum(np.abs(y) ** r_dual, axis=1) ** (1.0 / r_dual)

    def ratios(theta):
        y = np.column_stack([np.cos(theta), np.sin(theta)]) @ frame.T
        return norms(y, p) / norms(y, q)

    h = math.pi / n_angles
    theta = np.arange(n_angles) * h
    vals = ratios(theta)
    peaks = np.flatnonzero((vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1)))
    fine = np.linspace(-h, h, 2 * refine + 1)
    return max(float(np.max(ratios(theta[i] + fine))) for i in peaks)


class TestDualInnerSup:
    """The inner supremum of the p > 1 path against an independent scan."""

    @pytest.mark.parametrize("p, q", [(1.5, 3.0), (3.0, 1.5), (2.0, 4.0)])
    def test_matches_angle_scan_at_m3_n1(self, p, q):
        rng = np.random.default_rng(7)
        for _ in range(5):
            frame = widths._orthonormalize(rng.standard_normal((3, 2)))
            z = rng.standard_normal((SWEEP["final_starts"], 2))
            value, _ = dual_sup(frame, p, q, z, widths.FINAL_ASCENT_STEPS)
            assert value == pytest.approx(dual_ratio_scan(frame, p, q), rel=1e-9)

    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    def test_duality_against_the_vertex_path(self, q):
        # At p = 1 the primal sup is exact (worst vertex), so it must equal
        # the dual max at p' = inf over the complement of the same line.
        rng = np.random.default_rng(11)
        for _ in range(5):
            line = widths._orthonormalize(rng.standard_normal((3, 1)))
            primal, _ = widths._vertex_sup(line, q)
            assert primal == pytest.approx(dual_ratio_scan(widths._complement(line), 1.0, q), rel=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.integers(1, rates.DESK_SCALE_MAX_DIM).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, m))),
        p_dual=st.floats(1.01, 16.0),
        q_dual=st.floats(1.01, 16.0),
    )
    def test_fused_ratios_match_direct_sums(self, seed, shape, p_dual, q_dual):
        m, cols = shape
        rng = np.random.default_rng(seed)
        frame = widths._orthonormalize(rng.standard_normal((m, cols)))
        z = rng.standard_normal((4, cols))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        ratios, grads = widths._dual_ratios(frame @ z.T, p_dual, q_dual)

        def direct(z):
            absy = np.abs(z @ frame.T)
            return np.sum(absy**p_dual, axis=1) ** (1 / p_dual) / np.sum(absy**q_dual, axis=1) ** (1 / q_dual)

        np.testing.assert_allclose(ratios[0], direct(z), rtol=1e-13, atol=0)
        if cols == 1:
            return  # the sphere of R^1 is two points: no tangent to check
        # The log ratio along the great circle through z with unit tangent t.
        tangents = rng.standard_normal(z.shape)
        tangents -= np.sum(tangents * z, axis=1, keepdims=True) * z
        tangents /= np.linalg.norm(tangents, axis=1, keepdims=True)
        h = 1e-6
        up = np.log(direct(math.cos(h) * z + math.sin(h) * tangents))
        down = np.log(direct(math.cos(h) * z - math.sin(h) * tangents))
        slopes = np.sum(grads * (frame @ tangents.T), axis=0)
        np.testing.assert_allclose((up - down) / (2 * h), slopes, rtol=1e-5, atol=1e-7)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, rates.DESK_SCALE_MAX_DIM),
        p_dual=st.floats(1.01, 16.0),
        q_dual=st.floats(1.01, 16.0),
    )
    def test_one_column_ascent_accepts_no_step(self, seed, m, p_dual, q_dual):
        # Every start of a one-column frame normalizes to +-1 exactly, so the
        # ascent ends where it starts.
        rng = np.random.default_rng(seed)
        frame = widths._orthonormalize(rng.standard_normal((m, 1)))
        starts = rng.standard_normal((8, 1))
        ((value, (grad, z)),) = widths._dual_sups([frame], [starts], p_dual, q_dual, 0)
        for steps in (widths.ASCENT_STEPS, widths.FINAL_ASCENT_STEPS):
            ((ascended, (ascended_grad, ascended_z)),) = widths._dual_sups([frame], [starts], p_dual, q_dual, steps)
            assert ascended == value
            assert np.array_equal(ascended_grad, grad) and np.array_equal(ascended_z, z)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, rates.DESK_SCALE_MAX_DIM),
        problems=st.integers(1, 4),
        p_dual=st.floats(1.01, 16.0),
        q_dual=st.floats(1.01, 16.0),
    )
    def test_every_iterate_is_a_unit_vector_of_its_span(self, seed, m, problems, p_dual, q_dual):
        # Frames of different widths share one batch: each keeps to its own span.
        rng = np.random.default_rng(seed)
        frames = [widths._orthonormalize(rng.standard_normal((m, rng.integers(1, m + 1)))) for _ in range(problems)]
        proj = np.stack([w @ w.T for w in frames])
        starts = np.stack([w @ rng.standard_normal((w.shape[1], 6)) for w in frames])
        for steps in range(widths.ASCENT_STEPS + 1):
            _, _, y = widths._dual_ascent(proj, starts, p_dual, q_dual, steps)
            np.testing.assert_allclose(np.linalg.norm(y, axis=-2), 1.0, rtol=0, atol=1e-12)
            assert np.max(np.abs(y - proj @ y)) <= 1e-12

    @pytest.mark.parametrize("p_dual, q_dual", [(700.0, 1.5), (1001.0, 1.5), (5000.0, 3.0)])
    def test_ratios_near_p_one_scale_by_the_max_entry(self, p_dual, q_dual):
        # Unscaled, |y|^p' of a unit vector of 8 entries can underflow to 0.
        rng = np.random.default_rng(9)
        y = rng.standard_normal((5, 8))
        y /= np.linalg.norm(y, axis=1, keepdims=True)
        ratios, grads = widths._dual_ratios(y.T, p_dual, q_dual)

        def log_norm(y, r):  # log-sum-exp, free of underflow
            a = r * np.log(np.abs(y))
            top = np.max(a, axis=1)
            return (top + np.log(np.sum(np.exp(a - top[:, None]), axis=1))) / r

        def log_ratio(y):
            return log_norm(y, p_dual) - log_norm(y, q_dual)

        np.testing.assert_allclose(ratios[0], np.exp(log_ratio(y)), rtol=1e-12, atol=0)
        tangents = rng.standard_normal(y.shape)
        tangents -= np.sum(tangents * y, axis=1, keepdims=True) * y
        tangents /= np.linalg.norm(tangents, axis=1, keepdims=True)
        h = 1e-7
        up, down = (log_ratio(math.cos(h) * y + sign * math.sin(h) * tangents) for sign in (1, -1))
        slope = (up - down) / (2 * h)
        np.testing.assert_allclose(np.sum(grads * tangents.T, axis=0), slope, rtol=1e-4, atol=1e-6)

    def test_groups_bound_the_ascent_state(self, monkeypatch):
        # Split into groups of QUADRATURE_BLOCK samples, every frame keeps its result.
        rng = np.random.default_rng(4)
        frames = [widths._orthonormalize(rng.standard_normal((5, cols))) for cols in (2, 3, 4, 2, 3)]
        zs = [rng.standard_normal((11, w.shape[1])) for w in frames]
        whole = widths._dual_sups(frames, zs, 3.0, 1.5, widths.ASCENT_STEPS)
        sizes = []
        ascent = widths._dual_ascent

        def recording(proj, y, *args):
            sizes.append(y.size)
            return ascent(proj, y, *args)

        monkeypatch.setattr(widths, "QUADRATURE_BLOCK", 2 * 5 * (5 + 11))
        monkeypatch.setattr(widths, "_dual_ascent", recording)
        grouped = widths._dual_sups(frames, zs, 3.0, 1.5, widths.ASCENT_STEPS)
        assert sizes == [160, 160, 80]
        for (value, (grad, z)), (gvalue, (ggrad, gz)) in zip(whole, grouped):
            assert value == gvalue and np.array_equal(grad, ggrad) and np.array_equal(z, gz)

    @pytest.mark.parametrize("p, q", [(1.5, 3.0), (1.2, 4.0), (2.0, 3.0)])
    def test_one_column_complement_skips_the_ascent(self, p, q, monkeypatch):
        # n = m - 1 is the closed form m^(1/q - 1/p): no descent, no ascent.
        monkeypatch.setattr(widths, "_dual_ascent", unreachable)
        est = ball_width_bruteforce(BallWidthInstance(5, 4, p, q), seed=1, **SWEEP)
        assert est == (5 ** (1 / q - 1 / p), "two-sided", "closed-form", {"restarts": 0})

    def test_q_below_p_reaches_the_exact_width(self):
        # Exact: (m - n)^(1/q - 1/p) (Pietsch, Stesin).
        for seed in (1, 2, 3):
            for n in range(1, 5):
                est = ball_width_bruteforce(BallWidthInstance(5, n, 3.0, 1.5), seed=seed, **SWEEP)
                assert est.value >= (5 - n) ** (1.0 / 3.0) * (1 - 1e-9)

    def test_p_equals_q_is_exactly_one(self):
        for seed in (1, 2, 3):
            for n in range(1, 5):
                assert ball_width_bruteforce(BallWidthInstance(5, n, 3.0, 3.0), seed=seed, **SWEEP).value == 1.0


class TestVertexSup:
    """The p = 1 inner supremum: one batched l_q regression over the vertices."""

    # Above q = 2 the distance is smooth in the frame; below it |r|^(q-1)
    # is not, and the envelope gradient inherits the solver's tolerance.
    @pytest.mark.parametrize("q", [2.0, 3.0])
    def test_frame_gradient_matches_central_differences(self, q):
        rng = np.random.default_rng(21)
        frame = widths._orthonormalize(rng.standard_normal((5, 2)))
        _, state = widths._vertex_sup(frame, q)
        grad = np.outer(*state)
        h = 1e-4
        for _ in range(3):
            e = rng.standard_normal(frame.shape)
            up, _ = widths._vertex_sup(frame + h * e, q)
            down, _ = widths._vertex_sup(frame - h * e, q)
            assert (up - down) / (2 * h) == pytest.approx(np.sum(grad * e), rel=1e-6)

    def test_solver_cap_raises(self, monkeypatch):
        monkeypatch.setattr(norms, "IRLS_MAX_ITER", 1)
        frame = widths._orthonormalize(np.random.default_rng(22).standard_normal((5, 2)))
        with pytest.raises(NonconvergenceError):
            widths._vertex_sup(frame, 1.5)
