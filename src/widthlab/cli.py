"""Batch experiment driver.

Subcommands: approx, widths, pipeline, catalog, fit, mz.  Each run validates
its configuration (JSON file plus flat flag overrides; flags win), executes,
and writes results.csv + report.json (+ plot.svg) into the output directory.
Identical config and seed give byte-identical CSV and JSON.

Exit codes: 0 ok, 2 config error (also a request too large for memory),
3 numerical nonconvergence (reports still written), 4 I/O error.
"""

import argparse
import csv
import json
import math
import os
import sys

from . import __version__
from .errors import ConfigError, NonconvergenceError, WidthlabError

# Per-subcommand config schema: key -> (type, default).  A default of None
# leaves the key unset; each runner's _require call names the keys it needs.
SCHEMAS = {
    "approx": {
        "family": (str, "polylog"),
        "r": (float, 1.0),
        "mu": (float, 1.0),
        "gamma": (float, 1.0),
        "p": (float, 2.0),
        "q": (float, 2.0),
        "n_list": (list, None),
        "truncation": (int, 4096),
    },
    "widths": {
        "m": (int, None),
        "n_list": (list, None),
        "p": (float, 2.0),
        "q": (float, 2.0),
        "restarts": (int, 8),
        "inner_starts": (int, 32),
        "final_starts": (int, 64),
        "max_iter": (int, 30),
    },
    "pipeline": {
        "gamma": (float, 1.0),
        "p": (float, 2.0),
        "q": (float, 4.0),
        "n_list": (list, None),
        "m_override": (int, None),
    },
    "catalog": {
        "family": (str, None),
        "r": (float, None),
        "mu": (float, None),
        "gamma": (float, None),
        "p": (float, None),
        "q": (float, None),
        "all": (bool, False),
    },
    "fit": {
        "input": (str, None),
    },
    "mz": {
        "p_list": (list, [1.5, 2.0, 3.0]),
        "m_list": (list, [4, 8, 16, 32, 64, 128]),
        "trials": (int, 200),
    },
}

COMMON_DEFAULTS = {"seed": 0, "out": ".", "plot": True}


def _warn(message):
    """Log a warning line to stderr.  logging is imported here, on the first
    warning, so a run that has none never loads it."""
    import logging
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    logging.getLogger(__name__).warning(message)


def fmt(x):
    """17 significant digits: round-trips every double."""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


# List keys whose entries are degrees or dimensions, and the largest entry
# numpy can size an array by (its intp is a Py_ssize_t).
INTEGER_LISTS = ("n_list", "m_list")
MAX_LIST_ENTRY = sys.maxsize


def _coerce(key, value, typ):
    try:
        if typ is list:
            if isinstance(value, str):
                value = [v for v in value.replace(",", " ").split() if v]
            values = [float(v) if "." in str(v) or "e" in str(v).lower() else int(v) for v in value]
            # float.is_integer() is False for inf and nan as well.
            if key in INTEGER_LISTS:
                if not all(isinstance(v, int) or v.is_integer() for v in values):
                    raise ConfigError(f"{key!r} entries must be integers, got {value!r}")
                if any(abs(v) > MAX_LIST_ENTRY for v in values):
                    raise ConfigError(f"{key!r} entries must not exceed {MAX_LIST_ENTRY} in size")
            return values
        if typ is bool and isinstance(value, str):
            return value.lower() in ("1", "true", "yes")
        return typ(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {value!r}") from exc


def build_config(subcommand, file_config, flag_overrides):
    """Merge schema defaults, config file and CLI flags (flags win)."""
    schema = SCHEMAS[subcommand]
    config = {k: d for k, (_, d) in schema.items()}
    config.update(COMMON_DEFAULTS)
    for source in (file_config, flag_overrides):
        for key, value in source.items():
            if value is None:
                continue
            if key in schema:
                config[key] = _coerce(key, value, schema[key][0])
            elif key in COMMON_DEFAULTS:
                config[key] = _coerce(key, value, type(COMMON_DEFAULTS[key]))
            else:
                raise ConfigError(f"unknown config key {key!r} for {subcommand!r}")
    return config


def _require(config, *keys):
    for key in keys:
        if config.get(key) is None:
            raise ConfigError(f"missing required config key {key!r}")
        if key.endswith("_list") and not config[key]:
            raise ConfigError(f"{key!r} must be nonempty")


def _kernel_parameters(config):
    """The kernel parameters r, mu and gamma that are set; each must be finite."""
    params = {key: config[key] for key in ("r", "mu", "gamma") if config[key] is not None}
    for key, value in params.items():
        if not math.isfinite(value):
            raise ConfigError(f"{key!r} must be finite, got {value!r}")
    return params


def _kernel_from_config(config):
    from .classes import Exponential, MultiplierKernel, PolyLog, Polynomial
    _kernel_parameters(config)
    family = config["family"]
    if family == "polylog":
        # rho is not a setting: the catalog's polylog rows assume (1/p - 1/q)_+.
        fam = PolyLog(max(0.0, 1.0 / config["p"] - 1.0 / config["q"]), config["gamma"])
    elif family == "sobolev":
        fam = Polynomial(config["r"])
    elif family == "exponential":
        fam = Exponential(config["mu"], config["r"])
    else:
        raise ConfigError(f"unknown kernel family {family!r}")
    return MultiplierKernel(fam, truncation=config["truncation"])


def run_approx(config):
    """Error E_n of a kernel class from its best harmonic beyond n: exact at p = q = 2, else a lower estimate."""
    from .classes import _check_exponents, en_lower_search
    _require(config, "n_list")
    p, q = config["p"], config["q"]
    # Before the kernel: its polylog exponent 1/p - 1/q needs p, q != 0.
    _check_exponents(p, q)
    kernel = _kernel_from_config(config)
    quantity = "en_exact_l2" if p == q == 2.0 else "en_lower_search"

    rows, searches = [], []
    for n in (int(n) for n in config["n_list"]):
        search = en_lower_search(kernel, p, q, n)
        rows.append((n, quantity, search.value))
        # Per n: the winning harmonic k (or none).
        searches.append({"n": n, "winner": search.winner, "k": search.k})
    report = {"quantities": [quantity], "search": searches}
    return rows, ("n", "quantity", "value"), report, _series_from_rows(rows)


def run_widths(config):
    """Widths of l_p balls in l_q: exact at n = 0, m - 1, m, at q <= p and at (p, q) = (1, 2), else a brute-force upper bound."""
    from .rates import BallWidthInstance, closed_form_width, coordinate_subspace_bound, phi_gluskin
    _require(config, "m", "n_list")
    m, p, q = config["m"], config["p"], config["q"]
    n_list = [int(n) for n in config["n_list"]]
    if config["restarts"] < 1 or min(config[k] for k in ("inner_starts", "final_starts", "max_iter")) < 0:
        raise ConfigError("widths needs restarts >= 1 and inner_starts, final_starts, max_iter >= 0")

    # Each distinct n is solved once; its rows repeat for every listed copy.
    insts = {n: BallWidthInstance(m, n, p, q) for n in n_list}
    ests = {n: closed_form_width(inst) for n, inst in insts.items()}
    descend = [n for n, est in ests.items() if est is None]
    if descend:
        from .widths import ball_widths_bruteforce
        found = ball_widths_bruteforce(
            [insts[n] for n in descend],
            restarts=config["restarts"],
            seed=config["seed"],
            inner_starts=config["inner_starts"],
            final_starts=config["final_starts"],
            max_iter=config["max_iter"],
        )
        ests.update(zip(descend, found))

    def phi(inst):
        try:
            return phi_gluskin(inst)
        except WidthlabError:
            return float("nan")

    rows = []
    for n in n_list:
        rows.append((n, "bruteforce_width", ests[n].value))
        rows.append((n, "phi_order", phi(insts[n])))
        rows.append((n, "coordinate_bound", coordinate_subspace_bound(insts[n])))
    # Per n: the label and each descended restart's stop ('stationary' or
    # 'max_iter'); closed-form cells are 'two-sided' and have no restarts.
    report = {
        "direction": "upper-bound",
        "directions": [ests[n].direction for n in n_list],
        "medians": [ests[n].diagnostics.get("median") for n in n_list],
        "stops": [ests[n].diagnostics.get("stops", []) for n in n_list],
    }
    return rows, ("n", "quantity", "value"), report, _series_from_rows(rows)


def run_pipeline(config):
    """Logarithmic lower bound of the polylog class by projection, sampling and the finite width."""
    from .rates import lower_bound_pipeline
    _require(config, "n_list")
    n_list = [int(n) for n in config["n_list"]]

    reports = []
    for n in n_list:
        rep = lower_bound_pipeline(config["gamma"], config["p"], config["q"], n, m_override=config["m_override"])
        if rep.notes:
            _warn(f"pipeline {rep.notes} for n={n}, q={config['q']:g}")
        reports.append(rep)
    rows = []
    for rep in reports:
        rows.append((rep.n, "m_chosen", float(rep.m_chosen)))
        rows.append((rep.n, "log_factor", rep.log_factor))
        rows.append((rep.n, "phi_value", rep.phi_value))
        rows.append((rep.n, "lower_bound", rep.lower_bound))
    report = {"notes": [rep.notes for rep in reports if rep.notes]}
    series = [
        ("lower_bound", [rep.n for rep in reports], [rep.lower_bound for rep in reports])
    ]
    return rows, ("n", "quantity", "value"), report, series


def run_catalog(config):
    """Catalog width and error rates and the optimality verdict of a family at (p, q)."""
    from .rates import catalog_record, catalog_records
    if config["all"]:
        records = catalog_records()
    else:
        _require(config, "family", "p", "q")
        records = [catalog_record(config["family"], config["p"], config["q"], **_kernel_parameters(config))]
    rows = [
        (
            rec["family"],
            fmt(float(rec["p"])),
            fmt(float(rec["q"])),
            json.dumps(rec["params"], sort_keys=True),
            rec.get("width_rate", ""),
            rec.get("en_rate", ""),
            rec["verdict"],
            rec["regime"],
        )
        for rec in records
    ]
    header = ("family", "p", "q", "params", "width_rate", "en_rate", "verdict", "regime")
    return rows, header, {"records": records}, []


def run_fit(config):
    """Classify an (n, value) series over its finite n range; it can mislabel, e.g. an exact power law in n + 1."""
    from .rates import fit_rate
    _require(config, "input")
    with open(config["input"], newline="") as fh:
        try:
            points = [(float(row["n"]), float(row["value"])) for row in csv.DictReader(fh)]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{config['input']}: fit needs numeric 'n' and 'value' columns") from exc
    model, residual = fit_rate(points)
    rows = [(n, "input", v) for n, v in points]
    rows += [(n, "fitted", float(model(n))) for n, _ in points]
    # _asdict: json would write the NamedTuple itself as an array.
    report = {"model": {**model._asdict(), "describe": model.describe()}, "residual": residual}
    return rows, ("n", "quantity", "value"), report, _series_from_rows(rows)


def run_mz(config):
    """Marcinkiewicz-Zygmund sampling ratios: their min and max per (p, m)."""
    import numpy as np
    from .norms import mz_ratio_stats
    _require(config, "p_list", "m_list")
    cells = [(float(p), int(m)) for p in config["p_list"] for m in config["m_list"]]
    seeds = np.random.SeedSequence(config["seed"]).spawn(len(cells))

    results = [mz_ratio_stats(m, p, config["trials"], s) for (p, m), s in zip(cells, seeds)]
    rows = []
    constants, quadrature = {}, {}
    for (p, m), (lo, hi, quad) in zip(cells, results):
        rows.append((m, fmt(p), "min_ratio", lo))
        rows.append((m, fmt(p), "max_ratio", hi))
        constants.setdefault(fmt(p), {})[str(m)] = {"min": lo, "max": hi}
        # The final grid of the extremes' L_p quadrature, and whether it
        # converged or stopped at the cap.
        quadrature.setdefault(fmt(p), {})[str(m)] = quad
    series = []
    for p in sorted({p for p, _ in cells}):
        ms = [m for pp, m in cells if pp == p]
        his = [r[1] for (pp, _), r in zip(cells, results) if pp == p]
        series.append((f"max p={p:g}", ms, his))
    return rows, ("m", "p", "quantity", "value"), {"constants": constants, "quadrature": quadrature}, series


def _series_from_rows(rows):
    by_quantity = {}
    for n, quantity, value in rows:
        by_quantity.setdefault(quantity, ([], []))
        by_quantity[quantity][0].append(n)
        by_quantity[quantity][1].append(value)
    return [(q, xs, ys) for q, (xs, ys) in sorted(by_quantity.items())]


RUNNERS = {
    "approx": run_approx,
    "widths": run_widths,
    "pipeline": run_pipeline,
    "catalog": run_catalog,
    "fit": run_fit,
    "mz": run_mz,
}


def write_outputs(out_dir, subcommand, config, rows, header, report, series):
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "results.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])
    report_doc = {
        "tool": "widthlab",
        "version": __version__,
        "subcommand": subcommand,
        "config": config,
        "seed": config["seed"],
        "report": report,
    }
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report_doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if config.get("plot") and series:
        from .svg import render_plot
        try:
            doc = render_plot(series, title=subcommand)
            with open(os.path.join(out_dir, "plot.svg"), "w") as fh:
                fh.write(doc)
        except Exception as exc:  # plotting is best-effort only
            _warn(f"plot skipped: {exc}")


def build_parser():
    parser = argparse.ArgumentParser(prog="widthlab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, schema in SCHEMAS.items():
        sp = sub.add_parser(name, help=RUNNERS[name].__doc__)
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--out", help="output directory")
        sp.add_argument("--no-plot", action="store_true")
        for key, (typ, _) in schema.items():
            flag = "--" + key.replace("_", "-")
            if typ is list:
                sp.add_argument(flag, nargs="+")
            elif typ is bool:
                sp.add_argument(flag, action="store_const", const=True, default=None)
            else:
                sp.add_argument(flag)
    return parser


def _failure(exc, subcommand):
    """Exit code and stderr line of an error raised by a run: the one
    error -> exit-code map.  A nonconvergence has no line; its reports are
    still written."""
    if isinstance(exc, NonconvergenceError):
        return 3, None
    if isinstance(exc, WidthlabError):
        return 2, f"config error: {exc}"
    if isinstance(exc, MemoryError):
        return 2, f"config error: {subcommand} needs more memory than is available"
    return 4, f"i/o error: {exc}"


def _read_config(path):
    if not path:
        return {}
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # bad JSON, or bytes that are not text
            raise ConfigError(f"config is not valid JSON: {exc}") from exc


def main(argv=None):
    args = build_parser().parse_args(argv)
    subcommand = args.subcommand
    overrides = {
        key: getattr(args, key)
        for key in list(SCHEMAS[subcommand]) + ["seed", "out"]
        if getattr(args, key, None) is not None
    }
    if args.no_plot:
        overrides["plot"] = False
    exit_code = 0
    try:
        config = build_config(subcommand, _read_config(args.config), overrides)
        try:
            rows, header, report, series = RUNNERS[subcommand](config)
        except NonconvergenceError as exc:
            rows, header, series = [], ("n", "quantity", "value"), []
            report = {"nonconvergence": True, "diagnostics": exc.diagnostics}
            exit_code, _ = _failure(exc, subcommand)
        write_outputs(config["out"], subcommand, config, rows, header, report, series)
    except (WidthlabError, MemoryError, OSError) as exc:
        exit_code, message = _failure(exc, subcommand)
        print(message, file=sys.stderr)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
