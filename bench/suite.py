"""Run every workload over ten seeds, twice, and print each metric with its spread.

    python3 bench/suite.py --out bench/BENCH_1.json

Each of the two sets runs ``bench/run.py`` once per seed and workload with
tracing off, then twice with tracing on under the set's first seed, one
process at a time. Prints, per workload, every end-to-end metric by name and
unit with its median, quartiles and sample count, the spread (quartile
distance over median) against the bound in BENCHMARK.json, the output checks,
the failed invocations and the label violations, and whether the traced runs
repeat their counts exactly; then the second set's medians against the
first's. ``--out`` writes all of it as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RECORDS = ROOT / ".bench_out" / "records"
SEEDS = 10
SETS = 2
TRACED = 2
# Reported per workload next to the BENCHMARK.json metrics; they can be 0 or
# absent (no oracle), so they are not compared against a bound.
EXTRA_METRICS = (("error_rate", "1"), ("oracle_rel_err", "1"), ("label_violations", "count"))
QUADRATURE_CAP_METRICS = (
    "norms.poly_lp_norm.cap_hits",
    "norms.mz_ratio_stats.cap_hits",
    "norms.mz_ratio_stats.max_grid",
)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((RECORDS / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    record["run_elapsed_s"] = elapsed
    return result, record


def summary(values):
    values = [v for v in values if v is not None]
    if not values:
        return None
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def run_set(spec, seeds):
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    out = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in seeds:
            result, record = run_once(workload, seed, seconds, 0)
            runs.append((result, record))
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4f}" for k, v in result["metrics"].items())
                + f"  failed {result['failed']}/{result['attempted']}"
                + f"  ({record['run_elapsed_s']:.1f} s)", flush=True)
        metrics = {}
        for name, m in bounds.items():
            s = summary([r["metrics"][name]["value"] for r, _ in runs])
            s.update(unit=m["unit"], bound=m["bound"])
            metrics[name] = s
        for name, unit in EXTRA_METRICS:
            s = summary([rec[name] for _, rec in runs])
            if s:
                s["unit"] = unit
            metrics[name] = s
        traced_runs = [run_once(workload, seeds[0], seconds, 1) for _ in range(TRACED)]
        traced_first = traced_runs[0][0]["metrics"]
        out[workload] = {
            "metrics": metrics,
            "correct": all(r["correct"] for r, _ in runs),
            "check_errors": sorted({e for _, rec in runs for e in rec["check_errors"]}),
            "defects": {
                "failed_invocations": sorted({
                    (inv["name"], inv["exit_code"], inv["error"].splitlines()[-1])
                    for _, rec in runs for results in rec["invocations"] for inv in results
                    if inv["error"]
                }),
                "label_violations_by_seed": {
                    str(rec["seed"]): rec["label_violation_cells"] for _, rec in runs
                },
                "quadrature_cap": {
                    k: traced_first[k]["value"] for k in QUADRATURE_CAP_METRICS if k in traced_first
                },
            },
            "within_run": [
                {"seed": rec["seed"], "passes": rec["passes"], "wall_s_samples": rec["wall_s_samples"],
                 "wall_s_quartiles": rec["wall_s_quartiles"], "setup_s_samples": rec["setup_s_samples"],
                 "run_elapsed_s": rec["run_elapsed_s"], "calibration_s": rec["machine"]["calibration"]["median_s"]}
                for _, rec in runs
            ],
            "traced": traced_summary(traced_runs, spec),
        }
        out[workload]["machine"] = runs[0][1]["machine"]
    return out


def traced_summary(traced_runs, spec):
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    values = [{k: v["value"] for k, v in r["metrics"].items()} for r, _ in traced_runs]
    counts_repeat = all(
        v[name] == values[0][name] for v in values for name, unit in units.items() if unit == "count"
    )
    return {
        "seed": traced_runs[0][1]["seed"],
        "runs": values,
        "counts_repeat": counts_repeat,
        "correct": all(r["correct"] for r, _ in traced_runs),
        "run_elapsed_s": [rec["run_elapsed_s"] for _, rec in traced_runs],
    }


def fmt(value):
    return "n/a" if value is None else f"{value:.4g}"


def print_set(result):
    for workload, data in result.items():
        print(f"\n{workload}  correct={data['correct']}")
        print(f"  {'metric':18s} {'unit':6s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'n':>3s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name, s in data["metrics"].items():
            if s is None:
                print(f"  {name:18s} {'':6s} {'n/a':>10s}")
                continue
            bound = s.get("bound")
            flag = "" if bound is None else ("ok" if s["spread"] < bound / 3 else
                                             "WITHIN BOUND" if s["spread"] <= bound else "TOO WIDE")
            print(f"  {name:18s} {s['unit']:6s} {fmt(s['median']):>10s} {fmt(s['q1']):>10s} "
                  f"{fmt(s['q3']):>10s} {s['n']:3d} {s['spread']:8.4f} {fmt(bound):>6s} {flag}")
        for name, code, message in data["defects"]["failed_invocations"]:
            print(f"  failed invocation: {name} exit {code}: {message}")
        for error in data["check_errors"]:
            print(f"  check: {error}")
        by_seed = data["defects"]["label_violations_by_seed"].values()
        cells = {(c["invocation"], c["n"]) for v in by_seed for c in v}
        if cells:
            print(f"  label violations in {len(cells)} (cell, n) pairs over the seeds")
        t = data["traced"]
        print(f"  traced x{len(t['runs'])} (seed {t['seed']}): counts repeat: {t['counts_repeat']}, "
              f"correct: {t['correct']}")
        for name, value in t["runs"][0].items():
            if value:
                print(f"    {name:46s} {value!r}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write every set, run and comparison here as JSON")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = []
    for i in range(SETS):
        seeds = list(range(1 + i * SEEDS, 1 + (i + 1) * SEEDS))
        print(f"set {i + 1}: seeds {seeds[0]}..{seeds[-1]}", flush=True)
        sets.append(run_set(spec, seeds))
        print_set(sets[-1])
    print("\nsecond set against the first (median change as a share of the first)")
    comparison = {}
    for workload in sets[0]:
        for m in spec["end_to_end"]:
            a = sets[0][workload]["metrics"][m["name"]]["median"]
            b = sets[1][workload]["metrics"][m["name"]]["median"]
            change = (b - a) / a
            worse = change if m["better"] == "lower" else -change
            comparison[f"{workload}/{m['name']}"] = change
            verdict = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
            print(f"  {workload:14s} {m['name']:12s} {change:+.4f}  bound {m['bound']}  {verdict}")
    if args.out:
        Path(args.out).write_text(json.dumps({"sets": sets, "set_comparison": comparison},
                                             indent=1, default=str) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
