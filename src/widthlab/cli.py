"""Batch experiment driver.

Subcommands: approx, widths, pipeline, catalog, fit, mz.  Each run validates
its configuration (JSON file plus flat flag overrides; flags win), and its
runner returns (rows, header, report).  write_outputs writes results.csv +
report.json (+ plot.svg, drawn from the rows) into the output directory.
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
            if not isinstance(value, list):
                raise ConfigError(f"{key!r} must be an array or a string, got {value!r}")
            if any(isinstance(v, bool) for v in value):
                raise ConfigError(f"{key!r} entries must be numbers, got {value!r}")
            values = [float(v) if "." in str(v) or "e" in str(v).lower() else int(v) for v in value]
            # float.is_integer() is False for inf and nan as well.
            if key in INTEGER_LISTS:
                if not all(isinstance(v, int) or v.is_integer() for v in values):
                    raise ConfigError(f"{key!r} entries must be integers, got {value!r}")
                if any(abs(v) > MAX_LIST_ENTRY for v in values):
                    raise ConfigError(f"{key!r} entries must not exceed {MAX_LIST_ENTRY} in size")
                values = [int(v) for v in values]
            return values
        if typ is bool:
            if isinstance(value, str) and value.lower() in ("1", "true", "yes", "0", "false", "no"):
                return value.lower() in ("1", "true", "yes")
            if not isinstance(value, bool):
                raise ConfigError(f"{key!r} must be a boolean, got {value!r}")
            return value
        if typ in (int, float) and isinstance(value, bool):
            raise ConfigError(f"{key!r} must be a number, got {value!r}")
        if typ is int and isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"{key!r} must be an integer, got {value!r}")
        return typ(value)
    except (TypeError, ValueError, OverflowError) as exc:
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
    if config["seed"] < 0:
        raise ConfigError(f"'seed' must be >= 0, got {config['seed']}")
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
    for n in config["n_list"]:
        search = en_lower_search(kernel, p, q, n)
        rows.append((n, quantity, search.value))
        # Per n: the winning harmonic k (or none).
        searches.append({"n": n, "winner": search.winner, "k": search.k})
    report = {"quantities": [quantity], "search": searches}
    return rows, ("n", "quantity", "value"), report


def run_widths(config):
    """Widths of l_p balls in l_q: exact at n = 0, m - 1, m, at q <= p and at (p, q) = (1, 2), else a brute-force upper
    bound at p = 1 and an upper estimate at p > 1."""
    from .rates import BallWidthInstance, closed_form_width, coordinate_subspace_bound, phi_gluskin
    _require(config, "m", "n_list")
    m, n_list, p, q = config["m"], config["n_list"], config["p"], config["q"]
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
    return rows, ("n", "quantity", "value"), report


def run_pipeline(config):
    """Logarithmic lower bound of the polylog class by projection, sampling and the finite width."""
    from .rates import lower_bound_pipeline
    _require(config, "n_list")

    reports = []
    for n in config["n_list"]:
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
    return rows, ("n", "quantity", "value"), report


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
    return rows, header, {"records": records}


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
    return rows, ("n", "quantity", "value"), report


def run_mz(config):
    """Marcinkiewicz-Zygmund sampling ratios: their min and max per (p, m)."""
    import numpy as np
    from .norms import mz_ratio_stats
    _require(config, "p_list", "m_list")
    cells = [(float(p), m) for p in config["p_list"] for m in config["m_list"]]
    # Each distinct cell is drawn once, on the seed of its first appearance;
    # its rows repeat for every listed copy.
    distinct = list(dict.fromkeys(cells))
    seeds = np.random.SeedSequence(config["seed"]).spawn(len(distinct))
    results = {(p, m): mz_ratio_stats(m, p, config["trials"], s) for (p, m), s in zip(distinct, seeds)}
    rows = [(m, p, name, value) for p, m in cells for name, value in zip(("min_ratio", "max_ratio"), results[p, m][:2])]
    constants, quadrature = {}, {}
    for (p, m), (lo, hi, quad) in results.items():
        constants.setdefault(fmt(p), {})[str(m)] = {"min": lo, "max": hi}
        # The final grid of the extremes' L_p quadrature, and whether it
        # converged or stopped at the cap.
        quadrature.setdefault(fmt(p), {})[str(m)] = quad
    return rows, ("m", "p", "quantity", "value"), {"constants": constants, "quadrature": quadrature}


RUNNERS = {
    "approx": run_approx,
    "widths": run_widths,
    "pipeline": run_pipeline,
    "catalog": run_catalog,
    "fit": run_fit,
    "mz": run_mz,
}


def write_outputs(out_dir, subcommand, config, rows, header, report):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "results.csv"), "w", newline="") as fh:
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
    # The plot: a table whose last column is 'value' draws one polyline per
    # distinct key between its first column and 'value', against the first column.
    lines = {}
    if config.get("plot") and header[-1] == "value":
        for x, *key, y in rows:
            lines.setdefault(tuple(key), []).append((x, y))
    if lines:
        from .svg import render_plot
        try:
            series = [(" ".join(fmt(k) for k in key), *zip(*points)) for key, points in sorted(lines.items())]
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
            config = json.load(fh)
        except ValueError as exc:  # bad JSON, or bytes that are not text
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config must be a JSON object, got {type(config).__name__}")
    return config


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
            rows, header, report = RUNNERS[subcommand](config)
        except NonconvergenceError as exc:
            rows, header = [], ("n", "quantity", "value")
            report = {"nonconvergence": True, "diagnostics": exc.diagnostics}
            exit_code, _ = _failure(exc, subcommand)
        write_outputs(config["out"], subcommand, config, rows, header, report)
    except (WidthlabError, MemoryError, OSError) as exc:
        exit_code, message = _failure(exc, subcommand)
        print(message, file=sys.stderr)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
