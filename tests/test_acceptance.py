"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints a single pass/fail line, and
asserts the stated tolerance.  Run with ``pytest -s tests/test_acceptance.py``
to see the lines as they complete.
"""

import csv
import json
import math
import time

import numpy as np

from widthlab import (
    BallWidthInstance,
    Exponential,
    MultiplierKernel,
    PolyLog,
    Polynomial,
    TrigPoly,
    ball_width_bruteforce,
    best_approx,
    coordinate_subspace_bound,
    en_lower_search,
    fit_rate,
    lower_bound_pipeline,
    mz_ratio_stats,
    phi_gluskin,
    synthesize,
)
from widthlab.cli import main as cli_main


def _finish(num, ok, detail):
    print(f"acceptance criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_parseval_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        t = TrigPoly(0.0, rng.standard_normal(32), rng.standard_normal(32))
        f = synthesize(t)
        for n in (0, 8, 16):
            err, _ = best_approx(f, n, 2.0)
            tail = math.sqrt(math.pi * (np.sum(t.a[n:] ** 2) + np.sum(t.b[n:] ** 2)))
            worst = max(worst, abs(err - tail) / tail)
    elapsed = time.monotonic() - start
    ok = worst < 1e-8 and elapsed < 10
    _finish(1, ok, f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_euclidean_ball_width():
    start = time.monotonic()
    worst = 0.0
    for n in range(5):
        est = ball_width_bruteforce(
            BallWidthInstance(5, n, 2, 2),
            restarts=4, inner_starts=16, final_starts=32, max_iter=20,
        )
        worst = max(worst, abs(est.value - 1.0))
    full = ball_width_bruteforce(BallWidthInstance(5, 5, 2, 2)).value
    elapsed = time.monotonic() - start
    ok = worst < 1e-6 and full == 0.0 and elapsed < 30
    _finish(2, ok, f"max |width-1| {worst:.2e}, n=m width {full}, {elapsed:.1f}s")


def _angular_oracle_m3_n1(step):
    thetas = np.arange(0.0, math.pi + step, step)
    phis = np.arange(0.0, 2 * math.pi, step)
    cos_p, sin_p = np.cos(phis), np.sin(phis)
    best = np.inf
    for theta in thetas:
        sin_t, cos_t = math.sin(theta), math.cos(theta)
        dirs = np.column_stack(
            [sin_t * cos_p, sin_t * sin_p, np.full_like(phis, cos_t)]
        )
        # sup over the l_1 ball is attained at a vertex; residual of each
        # basis vector against the line spanned by dirs
        resid_sq = 1.0 - dirs**2
        worst = np.max(resid_sq, axis=1)
        best = min(best, float(np.sqrt(np.min(worst))))
    return best


def test_criterion_03_bruteforce_vs_angular_oracle():
    start = time.monotonic()
    est = ball_width_bruteforce(BallWidthInstance(3, 1, 1, 2), restarts=4, seed=0)
    oracle = _angular_oracle_m3_n1(1e-3)
    elapsed = time.monotonic() - start
    gap = abs(est.value - oracle)
    ok = gap < 1e-3 and elapsed < 60
    _finish(3, ok, f"bruteforce {est.value:.6f} vs oracle {oracle:.6f}, {elapsed:.1f}s")


def test_criterion_04_domination():
    start = time.monotonic()
    grid = (1.0, 1.5, 2.0, 3.0)
    violations = []
    for m in range(1, 7):
        for n in range(m):
            for p in grid:
                for q in grid:
                    inst = BallWidthInstance(m, n, p, q)
                    est = ball_width_bruteforce(
                        inst, restarts=2, seed=0,
                        inner_starts=16, final_starts=32, max_iter=10,
                    )
                    # At q <= p the coordinate subspace is optimal (Pietsch, Stesin),
                    # so the width is its value exactly: 1 at p = q for every n < m.
                    bound = coordinate_subspace_bound(inst)
                    if est.value > bound or (q <= p and est.value != bound) or (p == q and est.value != 1.0):
                        violations.append((m, n, p, q, est.value))
    elapsed = time.monotonic() - start
    ok = not violations
    _finish(4, ok, f"{len(violations)} violations over 336 instances, {elapsed:.0f}s")


def test_criterion_05_phi_identities():
    worst_clamp = 0.0
    for m, n, p, q in [(16, 2, 2, 4.0), (81, 3, 2, 4.0), (100, 4, 2.5, 3.0), (256, 4, 3, 4.0)]:
        assert m >= n ** (q / 2)
        worst_clamp = max(worst_clamp, abs(phi_gluskin(BallWidthInstance(m, n, p, q)) - 1.0))
    hand_a = abs(phi_gluskin(BallWidthInstance(16, 4, 2, math.inf)) - 0.5)
    hand_b = abs(
        phi_gluskin(BallWidthInstance(9, 3, 1, 2)) - max(1.0 / 3.0, math.sqrt(2.0 / 3.0))
    )
    ok = worst_clamp < 1e-12 and hand_a < 1e-12 and hand_b < 1e-12
    _finish(5, ok, f"clamp dev {worst_clamp:.1e}, hand devs {hand_a:.1e}/{hand_b:.1e}")


def test_criterion_06_log_kernel_rate_and_lower_bound():
    start = time.monotonic()
    kernel = MultiplierKernel(PolyLog(0.0, 1.0), truncation=2048)
    ns = [2**k for k in range(3, 11)]
    uppers = [en_lower_search(kernel, 2.0, 2.0, n).value for n in ns]
    ratios = [u * math.log(n) for n, u in zip(ns, uppers)]
    spread = max(ratios) / min(ratios)
    lowers = [lower_bound_pipeline(1.0, 2.0, 2.0, n).lower_bound for n in ns]
    c_fit = max(l / u for l, u in zip(lowers, uppers))
    dominated = all(l <= c_fit * u + 1e-12 for l, u in zip(lowers, uppers))
    elapsed = time.monotonic() - start
    ok = spread <= 1.5 and dominated and c_fit < 5.0 and elapsed < 120
    _finish(6, ok, f"ratio spread {spread:.3f}, fitted C {c_fit:.3f}, {elapsed:.1f}s")


def test_criterion_07_pipeline_log_identity():
    worst = 0.0
    for gamma in (0.5, 1.0, 2.0):
        for n in (8, 32, 128):
            rep = lower_bound_pipeline(gamma, 2.0, 4.0, n)
            product = rep.lower_bound * math.log(math.ceil(n**2)) ** gamma
            worst = max(worst, abs(product - 1.0))
    ok = worst < 1e-12
    _finish(7, ok, f"max |product-1| {worst:.1e}")


def test_criterion_08_mz_stability():
    start = time.monotonic()
    ms = [4, 8, 16, 32, 64, 128]
    details = []
    ok = True
    for p in (1.5, 2.0, 3.0):
        spreads = []
        for m in ms:
            lo, hi, _ = mz_ratio_stats(m, p, 200, seed=0)
            spreads.append(hi / lo)
        cross = max(spreads) / min(spreads)
        details.append(f"p={p:g}:{cross:.3f}")
        ok = ok and cross <= 2.0
        if p == 2.0:
            ok = ok and max(spreads) <= 1 + 1e-6
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120
    _finish(8, ok, f"cross-degree spreads {', '.join(details)}, {elapsed:.1f}s")


FIT_NS = [8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512]

FIT_SUITE = (
    [("poly", dict(c=c, a=a)) for c, a in [
        (1.0, 0.5), (2.0, 1.0), (0.5, 1.5), (3.0, 2.0), (1.0, 2.5),
        (4.0, 3.0), (0.2, 0.75), (1.5, 1.25), (5.0, 0.3), (0.8, 1.8),
    ]]
    + [("polylog", dict(c=c, a=a, g=g)) for c, a, g in [
        (1.0, 0.0, 1.0), (2.0, 0.0, 0.5), (1.0, 1.0, 1.0), (2.0, 0.5, 1.5),
        (0.5, 2.0, 0.7), (1.0, 0.0, 2.0), (3.0, 1.5, 1.0), (1.0, 0.0, 0.5),
        (2.0, 1.0, 2.0), (0.7, 0.8, 1.2),
    ]]
    + [("exp", dict(c=c, mu=mu, r=r)) for c, mu, r in [
        (1.0, 0.5, 1.0), (2.0, 1.0, 0.5), (1.0, 0.2, 1.0), (0.5, 0.3, 0.7),
        (1.0, 2.0, 0.5), (3.0, 0.1, 1.0), (1.0, 0.05, 1.5), (2.0, 0.8, 0.6),
        (1.0, 1.5, 0.4), (0.5, 0.25, 0.9),
    ]]
)


def _synthetic_points(kind, params):
    def value(n):
        if kind == "poly":
            return params["c"] * n ** -params["a"]
        if kind == "polylog":
            return params["c"] * n ** -params["a"] * math.log(n) ** -params["g"]
        return params["c"] * math.exp(-params["mu"] * n ** params["r"])
    return [(n, value(n)) for n in FIT_NS]


def test_criterion_09_rate_fit_recovery():
    start = time.monotonic()
    failures = []
    for kind, params in FIT_SUITE:
        model, _ = fit_rate(_synthetic_points(kind, params))
        if model.kind != kind:
            failures.append((kind, params, f"classified as {model.kind}"))
            continue
        fitted = {k: getattr(model, k) for k in params}
        for key, truth in params.items():
            got = fitted[key]
            rel = abs(got - truth) / abs(truth) if truth != 0 else abs(got)
            if rel > 0.05:
                failures.append((kind, params, f"{key}: {got:.4g} vs {truth:.4g}"))
    kernel = MultiplierKernel(Polynomial(2.0), truncation=1024)
    ns = [2**k for k in range(3, 10)]
    model, _ = fit_rate([(n, en_lower_search(kernel, 2.0, 2.0, n).value) for n in ns])
    sanity_ok = model.kind == "poly" and abs(model.a - 2.0) <= 0.05
    elapsed = time.monotonic() - start
    ok = not failures and sanity_ok
    detail = (
        f"{len(failures)} fit failures of 30, "
        f"sobolev sanity a={model.a:.4f} ({model.kind}), {elapsed:.1f}s"
    )
    _finish(9, ok, detail)


GOLDEN_SOBOLEV = {
    (1.5, 1.2): "optimal", (4.0, 2.0): "optimal",
    (1.5, 1.8): "optimal", (1.2, 2.0): "optimal",
    # At p = q, d_n(W^r_p, L_p) and E_n are both n^-r (Pinkus 1985, ch. VII).
    (1.5, 3.0): "not-optimal", (2.5, 4.0): "not-optimal", (3.0, 3.0): "optimal",
}

GOLDEN_EXP_SMALL_R = {
    (1.5, 1.2): "optimal", (1.2, 1.8): "optimal",
    # At q <= p with p, q >= 2 the width and E_n are both exp(-mu n^r).
    (1.5, 3.0): "not-optimal", (3.0, 4.0): "not-optimal", (3.0, 3.0): "optimal",
}


def test_criterion_10_catalog_golden_verdicts():
    from widthlab import catalog_record, catalog_records

    records = catalog_records()
    mismatches = []
    for rec in records:
        key = (rec["p"], rec["q"])
        if rec["family"] == "sobolev":
            expected = GOLDEN_SOBOLEV[key]
        elif rec["family"] == "exponential":
            expected = "optimal" if rec["params"]["r"] >= 1.0 else GOLDEN_EXP_SMALL_R[key]
        else:
            expected = "optimal"
        if rec["verdict"] != expected:
            mismatches.append((rec["family"], key, rec["params"], rec["verdict"], expected))
    spot_ok = (
        catalog_record("sobolev", 4.0, 2.0, r=3.0)["verdict"] == "optimal"
        and catalog_record("exponential", 3.0, 3.0, mu=1.0, r=0.5)["verdict"] == "optimal"
        and catalog_record("exponential", 3.0, 3.0, mu=1.0, r=1.0)["verdict"] == "optimal"
    )
    ok = len(records) == 40 and not mismatches and spot_ok
    _finish(10, ok, f"{len(records)} cells, {len(mismatches)} mismatches")


def test_criterion_11_cli_determinism(tmp_path):
    runs = {
        "pipeline": ["pipeline", "--n-list", "8", "16", "32", "--seed", "7"],
        "mz": ["mz", "--p-list", "2.0", "3.0", "--m-list", "4", "8", "--trials", "20", "--seed", "7"],
        "approx": ["approx", "--family", "sobolev", "--r", "1", "--p", "1.5", "--q", "3", "--n-list", "8", "12"],
        # Descended widths: the dual ascent (p > 1) and the vertex regressions (p = 1).
        **{
            f"widths-p{p}-q{q}": ["widths", "--m", "5", "--n-list", "1", "2", "3", "--p", p, "--q", q,
                                  "--restarts", "3", "--seed", "7"]
            for p, q in (("1.5", "3"), ("1", "1.5"))
        },
    }
    ok = True
    for name, args in runs.items():
        out = tmp_path / name
        assert cli_main(args + ["--out", str(out)]) == 0
        first = {f: (out / f).read_bytes() for f in ("results.csv", "report.json")}
        assert cli_main(args + ["--out", str(out)]) == 0
        second = {f: (out / f).read_bytes() for f in ("results.csv", "report.json")}
        ok = ok and first == second
    _finish(11, ok, "repeated runs byte-identical for pipeline, mz, approx and two descended widths cells")
