"""The benchmark's workloads: CLI argv lists and the checks on their outputs.

Each workload is a fixed list of ``python -m widthlab.cli`` invocations built
from the workload seed, which is forwarded as ``--seed``. The checks read only
``results.csv`` and ``report.json``, so they depend on the CLI's output format
and on nothing inside the package.

Why these three:
- ``widths-sweep``: brute-force ball widths, >90% of the time in batched tiny
  ``np.linalg.solve`` calls; ``fourier`` and ``norms`` sit idle. Covers the
  closed-form paths (q = 2, p = 1 vertices, the p = q = 2 SVD), and four of
  its six (p, q) cells have an exact width to compare with.
- ``mz-sampling``: batched FFT quadrature of Marcinkiewicz-Zygmund ratios;
  ``widths`` sits idle. Non-even p doubles the grid up to its cap, even p
  stops at the first grid, so both sides of that choice run.
- ``rate-study``: the paper's workflow at (p, q) = (1.5, 3). ``norms`` runs
  one polynomial per call and IRLS on tall design matrices; also covers
  ``classes``, ``rates`` and the CLI's own I/O. Its polylog ``fit`` exits 2
  on the approx output (each n appears twice); that step stays in and counts
  as a failed invocation.
"""

import csv
import json
import math
from dataclasses import dataclass

from oracle import ball_width, mz_ratio_p2

WORK_DIR = ".bench_out/work"

# Tolerance for values a closed-form path computes exactly.
EXACT_RTOL = 1e-9
# A labelled upper bound this far below the exact width is a wrong result,
# not a shortfall of the ascent (those count as label violations).
GROSS_RTOL = 0.2

WIDTHS_M = 5
WIDTHS_N = (1, 2, 3, 4)
WIDTHS_CELLS = (("1", "1.5"), ("1", "2"), ("1.5", "3"), ("3", "1.5"), ("2", "2"), ("3", "3"))
WIDTHS_RESTARTS = 2

MZ_M = (4, 8, 16, 32, 64, 128)
MZ_P = ("1.5", "2", "3", "4")
MZ_TRIALS = 200

RATE_P, RATE_Q = "1.5", "3"
RATE_N = (8, 12, 16, 24, 32, 48)
RATE_FAMILIES = (("sobolev", ("--r", "1")), ("polylog", ("--gamma", "1")))


@dataclass(frozen=True)
class Invocation:
    name: str
    args: tuple  # CLI arguments after ``python -m widthlab.cli``

    @property
    def out(self):
        return f"{WORK_DIR}/{self.name}"


class CheckResult:
    """Gate failures plus the oracle figures, collected over one workload pass."""

    def __init__(self):
        self.errors = []
        self.oracle_cells = 0
        self.oracle_rel_err = None
        self.label_violations = []

    def fail(self, invocation, message):
        self.errors.append(f"{invocation}: {message}")

    def oracle(self, rel_err):
        self.oracle_cells += 1
        self.oracle_rel_err = max(self.oracle_rel_err or 0.0, abs(rel_err))


def _n_list(values):
    return tuple(str(v) for v in values)


def widths_invocations(seed):
    return [
        Invocation(
            f"widths-p{p}-q{q}",
            ("widths", "--m", str(WIDTHS_M), "--n-list", *_n_list(WIDTHS_N), "--p", p, "--q", q,
             "--restarts", str(WIDTHS_RESTARTS), "--seed", str(seed)),
        )
        for p, q in WIDTHS_CELLS
    ]


def mz_invocations(seed):
    return [
        Invocation(
            f"mz-p{p}",
            ("mz", "--m-list", *_n_list(MZ_M), "--trials", str(MZ_TRIALS), "--p-list", p,
             "--seed", str(seed)),
        )
        for p in MZ_P
    ]


def rate_invocations(seed):
    cell = ("--p", RATE_P, "--q", RATE_Q)
    invocations = []
    for family, params in RATE_FAMILIES:
        approx = Invocation(
            f"approx-{family}",
            ("approx", "--family", family, *params, *cell, "--n-list", *_n_list(RATE_N),
             "--seed", str(seed)),
        )
        invocations.append(approx)
        invocations.append(
            Invocation(f"fit-{family}", ("fit", "--input", f"{approx.out}/results.csv", "--seed", str(seed)))
        )
        invocations.append(
            Invocation(f"catalog-{family}", ("catalog", "--family", family, *params, *cell, "--seed", str(seed)))
        )
    invocations.append(
        Invocation("pipeline", ("pipeline", "--gamma", "1", *cell, "--n-list", *_n_list(RATE_N),
                                "--seed", str(seed)))
    )
    return invocations


def _rows(out):
    with open(f"{out}/results.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def _report(out):
    with open(f"{out}/report.json") as fh:
        return json.load(fh)


def _values(rows, quantity, key="n"):
    return {int(r[key]): float(r["value"]) for r in rows if r["quantity"] == quantity}


def check_widths(done, result):
    for inv in done:
        p, q = (float(a) for a in (inv.args[inv.args.index("--p") + 1], inv.args[inv.args.index("--q") + 1]))
        rows = _rows(inv.out)
        label = _report(inv.out)["report"].get("direction")
        widths = _values(rows, "bruteforce_width")
        bounds = _values(rows, "coordinate_bound")
        for n in WIDTHS_N:
            value = widths.get(n)
            if value is None or not math.isfinite(value):
                result.fail(inv.name, f"no finite width for n={n}")
                continue
            if value > bounds.get(n, math.inf) * (1 + EXACT_RTOL):
                result.fail(inv.name, f"n={n}: {value!r} above the coordinate-subspace bound")
            exact = ball_width(WIDTHS_M, n, p, q)
            if exact is None:
                continue
            result.oracle((value - exact) / exact)
            if label == "upper-bound" and value < exact * (1 - EXACT_RTOL):
                result.label_violations.append(
                    {"invocation": inv.name, "p": p, "q": q, "n": n, "value": value, "exact": exact}
                )
            exact_path = (p == 2 and q == 2) or (p == 1 and q == 2)
            floor = exact * (1 - (EXACT_RTOL if exact_path else GROSS_RTOL))
            if value < floor:
                result.fail(inv.name, f"n={n}: {value!r} below the exact width {exact!r}")
            if p == 2 and q == 2 and abs(value - exact) > EXACT_RTOL * exact:
                result.fail(inv.name, f"n={n}: SVD path gave {value!r}, exact {exact!r}")


def check_mz(done, result):
    for inv in done:
        rows = _rows(inv.out)
        p = float(inv.args[inv.args.index("--p-list") + 1])
        lows, highs = _values(rows, "min_ratio", "m"), _values(rows, "max_ratio", "m")
        for m in MZ_M:
            lo, hi = lows.get(m), highs.get(m)
            if lo is None or hi is None or not (0 < lo <= hi * (1 + EXACT_RTOL) < math.inf):
                result.fail(inv.name, f"m={m}: bad ratio pair {lo!r}, {hi!r}")
                continue
            if p == 2:
                exact = mz_ratio_p2(m)
                for value in (lo, hi):
                    result.oracle((value - exact) / exact)
                    if abs(value - exact) > EXACT_RTOL * exact:
                        result.fail(inv.name, f"m={m}: ratio {value!r}, exact {exact!r}")


def check_rate(done, result):
    for inv in done:
        rows = _rows(inv.out)
        report = _report(inv.out)["report"]
        kind = inv.args[0]
        if kind == "approx":
            values = _values(rows, "en_lower_search")
            for n in RATE_N:
                if not 0 < values.get(n, math.nan) < math.inf:
                    result.fail(inv.name, f"no positive finite estimate for n={n}")
        elif kind == "fit":
            residual = report.get("residual")
            if report.get("model", {}).get("kind") not in ("poly", "polylog", "exp"):
                result.fail(inv.name, "no fitted model kind")
            if not (isinstance(residual, (int, float)) and 0 <= residual < math.inf):
                result.fail(inv.name, f"bad residual {residual!r}")
        elif kind == "catalog":
            if len(rows) != 1 or not rows[0].get("verdict"):
                result.fail(inv.name, "expected one catalog record with a verdict")
        elif kind == "pipeline":
            lower = _values(rows, "lower_bound")
            logf, phi = _values(rows, "log_factor"), _values(rows, "phi_value")
            for n in RATE_N:
                if n not in lower or n not in logf or n not in phi:
                    result.fail(inv.name, f"missing pipeline rows for n={n}")
                elif not math.isclose(lower[n], logf[n] * phi[n], rel_tol=1e-12):
                    result.fail(inv.name, f"n={n}: lower bound is not log factor x phi")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: object
    check: object


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "widths-sweep",
            "brute-force ball widths: batched tiny linear solves dominate; fourier and norms idle",
            widths_invocations,
            check_widths,
        ),
        Workload(
            "mz-sampling",
            "batched FFT quadrature on both sides of the even/non-even p choice; widths idle",
            mz_invocations,
            check_mz,
        ),
        Workload(
            "rate-study",
            "approx, fit, catalog and pipeline at (1.5, 3): per-polynomial quadrature, tall IRLS, CLI I/O",
            rate_invocations,
            check_rate,
        ),
    )
}
