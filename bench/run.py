"""widthlab benchmark: one workload, one seed, end-to-end or traced.

    python3 bench/run.py --workload widths-sweep --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout. With ``--trace 0`` every invocation
is a fresh ``python -m widthlab.cli`` process with ``PYTHONPATH=src``, one at a
time, with ``WIDTHLAB_THREADS`` unset and no ``--threads``. The workload's
invocation list (a "pass") repeats until ``--seconds`` is spent, at least
twice, so every output can be compared with a repeat under the same seed.
With ``--trace 1`` the same argv lists run once in this process through
``widthlab.cli.main``, under the span tracer.

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Everything else measured (per
invocation times, quartiles, oracle figures, the machine record, spans) goes
to ``.bench_out/`` in the checkout.
"""

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from tracer import LAYER_METRICS  # noqa: E402
from workloads import WORK_DIR, WORKLOADS, CheckResult  # noqa: E402

OUT_DIR = ".bench_out"
SETUP_SAMPLES = 3
MIN_PASSES = 2
INVOCATION_TIMEOUT_S = 150
OUTPUT_FILES = ("results.csv", "report.json")
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


def cli_env():
    env = dict(os.environ)
    env.pop("WIDTHLAB_THREADS", None)
    env["PYTHONPATH"] = "src"
    return env


def run_process(argv, env, stderr_path=None):
    """Run argv to completion; return (exit code, wall seconds, peak RSS in MB)."""
    with open(stderr_path or os.devnull, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def read_outputs(out):
    """sha256 of each output file, after checking that it parses."""
    hashes = {}
    for name in OUTPUT_FILES:
        data = Path(out, name).read_bytes()
        if name.endswith(".json"):
            json.loads(data)
        else:
            rows = list(csv.reader(io.StringIO(data.decode())))
            if not rows or any(len(row) != len(rows[0]) for row in rows):
                raise ValueError(f"{name} is not a rectangular table with a header")
        hashes[name] = hashlib.sha256(data).hexdigest()
    return hashes


class InvocationResult:
    """One invocation's exit code, cost and output hashes.

    Outputs are read whatever the exit code, since exit 3 (nonconvergence)
    still writes them; the invocation counts as failed unless it exited 0.
    """

    def __init__(self, invocation, code, wall, rss=None, error=""):
        self.invocation = invocation
        self.code = code
        self.wall = wall
        self.rss = rss
        self.error = error or (f"exit code {code}" if code else "")
        self.hashes = None
        try:
            self.hashes = read_outputs(invocation.out)
        except (OSError, ValueError, UnicodeDecodeError) as exc:
            if code == 0:
                self.error = f"unreadable output: {exc}"

    @property
    def ok(self):
        return self.code == 0 and self.hashes is not None

    def record(self):
        return {
            "name": self.invocation.name,
            "argv": list(self.invocation.args),
            "exit_code": self.code,
            "wall_s": self.wall,
            "peak_rss_mb": self.rss,
            "hashes": self.hashes,
            "error": self.error,
        }


def fresh_out(invocation):
    shutil.rmtree(invocation.out, ignore_errors=True)
    os.makedirs(Path(invocation.out).parent, exist_ok=True)


class Evaluation:
    """Failures, determinism and output checks, fed each result while its
    outputs are still on disk (repeats reuse the same output directory)."""

    def __init__(self, workload):
        self.workload = workload
        self.check = CheckResult()
        self.attempted = 0
        self.failed = 0
        self._first = {}

    def add(self, res):
        name = res.invocation.name
        self.attempted += 1
        first = name not in self._first
        ref = self._first.setdefault(name, res.hashes)
        if res.hashes != ref:
            res.error = "output differs from an earlier repeat with the same seed"
            res.hashes = None
        if not res.ok:
            self.failed += 1
        # Repeats are byte-identical or already failed, so the first check suffices.
        if first and res.hashes is not None:
            try:
                self.workload.check([res.invocation], self.check)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                self.check.fail(name, f"output check raised {exc!r}")
        return res


def subprocess_pass(invocations, env, evaluation):
    results = []
    for inv in invocations:
        fresh_out(inv)
        stderr_path = f"{inv.out}.stderr"
        argv = [sys.executable, "-m", "widthlab.cli", *inv.args, "--out", inv.out]
        code, wall, rss = run_process(argv, env, stderr_path)
        error = Path(stderr_path).read_text(errors="replace").strip()[-500:] if code else ""
        results.append(evaluation.add(InvocationResult(inv, code, wall, rss, error)))
    return results


def inprocess_run(inv, main, evaluation):
    fresh_out(inv)
    error = ""
    start = time.perf_counter()
    try:
        code = main([*inv.args, "--out", inv.out])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a failed invocation, not a failed benchmark
        code, error = 1, traceback.format_exc()[-500:]
    wall = time.perf_counter() - start
    return evaluation.add(InvocationResult(inv, code, wall, error=error))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def calibration(reps=5):
    """Fixed numpy-only work, timed: context for host drift, not a compared metric."""
    import numpy as np

    rng = np.random.default_rng(12345)
    a = rng.standard_normal((2000, 5, 5)) + 5 * np.eye(5)
    b = rng.standard_normal((2000, 5, 1))
    spec = rng.standard_normal((32, 2**14 + 1)) + 0j
    mat = rng.standard_normal((200, 200))
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        for _ in range(20):
            np.linalg.solve(a, b)
        for _ in range(4):
            np.fft.irfft(spec, n=2**15, axis=1)
        for _ in range(10):
            mat @ mat
        times.append(time.perf_counter() - start)
    return {"median_s": statistics.median(times), "samples_s": times}


def machine_record():
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {key: os.environ.get(key) for key in BLAS_ENV},
        "loadavg": list(os.getloadavg()),
        "calibration": calibration(),
    }


def run_end_to_end(workload, invocations, seconds):
    env = cli_env()
    setup = []
    for _ in range(SETUP_SAMPLES):
        code, wall, _ = run_process([sys.executable, "-m", "widthlab.cli", "--version"], env)
        if code != 0:
            raise SystemExit(f"error: `python -m widthlab.cli --version` exited {code}")
        setup.append(wall)

    evaluation = Evaluation(workload)
    passes, walls = [], []
    started = time.perf_counter()
    while True:
        results = subprocess_pass(invocations, env, evaluation)
        passes.append(results)
        walls.append(sum(r.wall for r in results))
        spent = time.perf_counter() - started
        if len(passes) >= MIN_PASSES and spent + statistics.median(walls) > seconds:
            break

    check = evaluation.check
    q1, q3 = quartiles(walls)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": max(r.rss for results in passes for r in results),
    }
    detail = {
        "setup_s_samples": setup,
        "wall_s_samples": walls,
        "wall_s_quartiles": [q1, q3],
        "passes": len(passes),
        "error_rate": evaluation.failed / evaluation.attempted,
        "oracle_rel_err": check.oracle_rel_err,
        "oracle_cells": check.oracle_cells,
        "label_violations": len(check.label_violations),
        "label_violation_cells": check.label_violations,
        "check_errors": check.errors,
        "invocations": [[r.record() for r in results] for results in passes],
    }
    return evaluation, metrics, detail


def import_widthlab():
    sys.path.insert(0, str(ROOT / "src"))
    import widthlab.cli

    if Path(widthlab.__file__).resolve().parent != (ROOT / "src" / "widthlab").resolve():
        raise SystemExit(f"error: imported widthlab from {widthlab.__file__}, not from src/")
    return widthlab.cli


def run_traced(workload, invocations, seed):
    from tracer import Tracer, layer_metrics, overhead_s, summarize, wrapper_costs

    os.environ.pop("WIDTHLAB_THREADS", None)
    cli = import_widthlab()

    def main(argv):
        # Looked up on every call, so the runs reach the tracer's cli.main.
        return cli.main(argv)

    evaluation = Evaluation(workload)
    tracer = Tracer()
    results = []
    for idx, inv in enumerate(invocations):
        tracer.invocation = idx
        tracer.install()
        try:
            results.append(inprocess_run(inv, main, evaluation))
        finally:
            tracer.uninstall()

    costs = wrapper_costs()
    stats, totals = summarize(tracer.spans, tracer.root.kernels)
    metrics = layer_metrics(stats, totals, overhead_s(len(tracer.spans), totals, costs))
    spans_path = Path(OUT_DIR, f"spans-{workload.name}-seed{seed}.json")
    spans_path.write_text(json.dumps(tracer.dump()))
    detail = {
        "traced_wall_s": sum(r.wall for r in results),
        "wrapper_costs_s": costs,
        "span_count": len(tracer.spans),
        "spans_file": str(spans_path),
        "functions": stats,
        "kernel_totals": totals,
        "check_errors": evaluation.check.errors,
        "invocations": [[r.record() for r in results]],
    }
    return evaluation, metrics, detail


def print_table(workload, seed, trace, metrics, detail, failed, attempted):
    print(f"workload {workload}  seed {seed}  trace {trace}")
    if trace:
        print(f"  {'metric':48s} value")
        for name, value in metrics.items():
            print(f"  {name:48s} {value!r}")
    else:
        q1, q3 = detail["wall_s_quartiles"]
        rows = [
            ("setup_s", "s", f"{metrics['setup_s']:.4f}", f"median of {len(detail['setup_s_samples'])}"),
            ("wall_s", "s", f"{metrics['wall_s']:.4f}",
             f"median of {detail['passes']} passes, quartiles {q1:.4f} {q3:.4f}"),
            ("peak_rss_mb", "MB", f"{metrics['peak_rss_mb']:.1f}", "highest over invocations"),
            ("error_rate", "1", f"{detail['error_rate']:.4f}", f"{failed} of {attempted} invocations failed"),
            ("oracle_rel_err", "1",
             "n/a" if detail["oracle_rel_err"] is None else f"{detail['oracle_rel_err']:.4g}",
             f"over {detail['oracle_cells']} oracle values"),
            ("label_violations", "count", str(detail["label_violations"]), "upper bounds below the exact width"),
        ]
        for name, unit, value, note in rows:
            print(f"  {name:18s} {unit:6s} {value:>12s}  {note}")
        for cell in detail["label_violation_cells"]:
            print(f"  label violation: {cell}")
    for results in detail["invocations"]:
        for res in results:
            if res["error"]:
                print(f"  failed: {res['name']}: {res['error'].splitlines()[-1]}")
    for error in detail["check_errors"]:
        print(f"  check: {error}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so a running invocation is killed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    os.chdir(ROOT)
    if not Path("src/widthlab/cli.py").is_file():
        print("error: no src/widthlab/cli.py here; run from a widthlab checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    invocations = workload.invocations(args.seed)
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    os.makedirs(Path(OUT_DIR, "records"), exist_ok=True)

    machine = machine_record()
    if args.trace:
        evaluation, metrics, detail = run_traced(workload, invocations, args.seed)
        units = {name: unit for name, unit, _ in LAYER_METRICS}
    else:
        evaluation, metrics, detail = run_end_to_end(workload, invocations, args.seconds)
        units = dict(END_TO_END)
    shutil.rmtree(WORK_DIR, ignore_errors=True)

    attempted, failed = evaluation.attempted, evaluation.failed
    correct = not evaluation.check.errors and attempted > failed
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        **detail,
    }
    Path(OUT_DIR, "records", f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str)
    )
    print_table(workload.name, args.seed, args.trace, metrics, detail, failed, attempted)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
