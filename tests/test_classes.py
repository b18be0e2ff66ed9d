import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widthlab import (
    MultiplierKernel,
    OutOfBranchError,
    PolyLog,
    Table,
    TrigPoly,
    TruncationExceededError,
    best_approx,
    convolution_constant,
    en_exact_l2,
    en_lower_search,
    lower_bound_pipeline,
    optimality_gap,
    synthesize,
)
from widthlab import norms
from widthlab.classes import M_CAP, SEARCH_ROWS
from widthlab.fourier import Exponential, Polynomial, analyze, apply_multiplier, default_grid_size
from widthlab.norms import lp_norm, poly_lp_norm


def sequential_search(kernel, p, q, n, budget, seed):
    """en_lower_search scored one candidate at a time through poly_lp_norm
    and best_approx; returns the value and how many perturbations it kept."""
    rng = np.random.default_rng(seed)
    const = convolution_constant()
    degree = min(max(2 * n, n + 8), kernel.truncation)
    grid = default_grid_size(degree)

    def class_error(phi):
        norm = poly_lp_norm(phi, p)
        if norm == 0.0:
            return 0.0
        image = apply_multiplier(kernel, phi)
        image = TrigPoly(0.0, const * image.a / norm, const * image.b / norm)
        return best_approx(synthesize(image, grid), n, q)[0]

    evals, best_val, best_phi, kept = 0, 0.0, None, 0
    for k in range(n + 1, min(n + 9, kernel.truncation + 1)):
        if evals >= budget:
            break
        val = class_error(TrigPoly.harmonic(k))
        evals += 1
        if val > best_val:
            best_val, best_phi = val, TrigPoly.harmonic(k)
    for _ in range(max(0, (budget - evals) // 2)):
        c = rng.standard_normal(2 * degree + 1)
        phi = TrigPoly(c[0], c[1 : degree + 1], c[degree + 1 :])
        val = class_error(phi)
        evals += 1
        if val > best_val:
            best_val, best_phi = val, phi
    while evals < budget and best_phi is not None:
        d = best_phi.degree
        scale = 0.3 * rng.random()
        pert = rng.standard_normal(2 * d + 1) * scale
        cand = TrigPoly(best_phi.a0 + pert[0], best_phi.a + pert[1 : d + 1], best_phi.b + pert[d + 1 :])
        val = class_error(cand)
        evals += 1
        if val > best_val:
            best_val, best_phi, kept = val, cand, kept + 1
    return best_val, kept


class TestEnExactL2:
    def test_constant_sequence(self):
        kernel = MultiplierKernel(Table(np.ones(16)))
        for n in (0, 3, 10):
            assert en_exact_l2(kernel, n) == pytest.approx(0.5)

    def test_exponential_tail(self):
        kernel = MultiplierKernel(Exponential(1.0, 1.0))
        assert en_exact_l2(kernel, 3) == pytest.approx(0.5 * math.exp(-4))

    def test_truncation_guard(self):
        kernel = MultiplierKernel(Table(np.ones(4)))
        with pytest.raises(TruncationExceededError):
            en_exact_l2(kernel, 4)

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


class TestEnLowerSearch:
    def test_agrees_with_exact_l2(self):
        kernel = MultiplierKernel(PolyLog(0.0, 1.0), truncation=64)
        for n in (4, 10):
            exact = en_exact_l2(kernel, n)
            lower = en_lower_search(kernel, 2.0, 2.0, n, budget=30, seed=0)
            assert lower == pytest.approx(exact, rel=0.02)
            assert lower <= exact * (1 + 1e-9)

    def test_class_inside_subspace(self):
        lam = np.zeros(12)
        lam[:4] = 1.0
        kernel = MultiplierKernel(Table(lam))
        assert en_lower_search(kernel, 2.0, 3.0, 4, budget=20, seed=1) < 1e-9

    def test_bigger_budget_no_worse(self):
        kernel = MultiplierKernel(PolyLog(0.0, 1.0), truncation=64)
        small = en_lower_search(kernel, 1.5, 3.0, 4, budget=12, seed=2)
        large = en_lower_search(kernel, 1.5, 3.0, 4, budget=24, seed=2)
        assert large >= small - 1e-12

    def test_deterministic(self):
        kernel = MultiplierKernel(PolyLog(0.0, 1.0), truncation=32)
        a = en_lower_search(kernel, 1.5, 2.5, 3, budget=15, seed=9)
        b = en_lower_search(kernel, 1.5, 2.5, 3, budget=15, seed=9)
        assert a == b

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(0, 10),
        extra=st.integers(1, 16),
        seed=st.integers(0, 2**32 - 1),
        budget=st.integers(1, 30),
        p=st.floats(1.1, 4.0),
        q=st.floats(1.2, 6.0),
        family=st.sampled_from([Polynomial(1.0), Polynomial(0.2), PolyLog(0.0, 1.0)]),
    )
    def test_batches_match_the_one_at_a_time_search(self, n, extra, seed, budget, p, q, family):
        # Truncations below n+8 (7 of the 16 offsets) cut the harmonics
        # n+1..n+8 short; budgets below 8 stop inside them.
        kernel = MultiplierKernel(family, truncation=n + extra)
        expected, _ = sequential_search(kernel, p, q, n, budget, seed)
        assert en_lower_search(kernel, p, q, n, budget=budget, seed=seed) == pytest.approx(expected, rel=1e-9)

    def test_kept_perturbations_match_the_one_at_a_time_search(self):
        # Random candidates win at this small truncation, and the search keeps
        # four perturbations, the first of them second in its batch, so the
        # later draws are scored again.
        kernel = MultiplierKernel(Polynomial(0.2), truncation=12)
        expected, kept = sequential_search(kernel, 1.5, 3.0, 2, 30, 2)
        search = en_lower_search(kernel, 1.5, 3.0, 2, budget=30, seed=2, detail=True)
        assert kept == 4
        assert (search.winner, search.evaluated, search.k) == ("perturbation", 30, None)
        assert search.value == pytest.approx(expected, rel=1e-9)

    def test_reports_the_winning_harmonic(self):
        kernel = MultiplierKernel(Polynomial(1.0), truncation=4096)
        search = en_lower_search(kernel, 1.5, 3.0, 8, budget=60, seed=1, detail=True)
        assert (search.winner, search.k, search.evaluated) == ("harmonic", 9, 60)
        assert search.value == en_lower_search(kernel, 1.5, 3.0, 8, budget=60, seed=1)

    @pytest.mark.parametrize(
        "r, truncation, n, seed", [(1.0, 4096, 8, 1), (0.2, 12, 2, 2)], ids=["harmonic-wins", "perturbations-kept"]
    )
    def test_one_solve_per_batch_not_per_candidate(self, monkeypatch, r, truncation, n, seed):
        calls = {"_quadrature_lp": 0, "_lq_regress": 0}
        for name in calls:
            original = getattr(norms, name)

            def counted(*args, _original=original, _name=name):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(norms, name, counted)
        kernel = MultiplierKernel(Polynomial(r), truncation=truncation)
        budget = 60
        en_lower_search(kernel, 1.5, 3.0, n, budget=budget, seed=seed)
        monkeypatch.undo()
        _, kept = sequential_search(kernel, 1.5, 3.0, n, budget, seed)
        # Harmonics, random candidates and perturbations in batches of
        # SEARCH_ROWS rows, plus one batch more for each kept perturbation;
        # one IRLS block holds a whole batch at these sizes.
        batches = 1 + 2 * math.ceil(26 / SEARCH_ROWS) + kept
        assert 0 < calls["_quadrature_lp"] <= batches < budget / 3
        assert 0 < calls["_lq_regress"] <= batches


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


class TestOptimalityGap:
    def test_l2_ratio_stabilizes(self):
        n_list = [2**k for k in range(3, 11)]
        report = optimality_gap(1.0, 2.0, 2.0, n_list)
        assert report.verdict == "order-consistent"
        # ratio of exact error to (ln n)^-1 settles near the convolution constant
        top = [
            u / math.log(n) ** (-1.0)
            for n, u in zip(report.n_list[-3:], report.upper[-3:])
        ]
        assert max(top) / min(top) < 1.1

    def test_degenerate_no_decay(self):
        report = optimality_gap(0.0, 2.0, 2.0, [8, 16, 32], rho=0.0)
        uppers = set(report.upper)
        assert len(uppers) == 1
        assert report.verdict == "order-consistent"

    def test_single_point(self):
        report = optimality_gap(1.0, 2.0, 2.0, [16])
        assert report.spread == 1.0
        assert report.verdict == "order-consistent"

    def test_lower_below_scaled_upper(self):
        n_list = [2**k for k in range(3, 9)]
        report = optimality_gap(1.0, 2.0, 2.0, n_list)
        c_fit = max(l / u for u, l in zip(report.upper, report.lower))
        assert all(
            l <= c_fit * u + 1e-12 for u, l in zip(report.upper, report.lower)
        )
        assert c_fit < 5.0


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
