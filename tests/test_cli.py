import csv
import importlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import widthlab
from widthlab import cli, widths
from widthlab.cli import build_config, main
from widthlab.errors import ConfigError, NonconvergenceError, OutOfBranchError
from widthlab.rates import BallWidthInstance, coordinate_subspace_bound, phi_gluskin


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def run(args):
    return main(args)


class TestBuildConfig:
    def test_flags_override_file(self):
        config = build_config("pipeline", {"gamma": 2.0, "p": 2.0}, {"gamma": "3.0"})
        assert config["gamma"] == 3.0
        assert config["p"] == 2.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            build_config("pipeline", {"bogus": 1}, {})

    def test_list_coercion_from_strings(self):
        config = build_config("pipeline", {}, {"n_list": ["8", "16"]})
        assert config["n_list"] == [8, 16]

    def test_threads_option_removed(self, monkeypatch):
        monkeypatch.setenv("WIDTHLAB_THREADS", "abc")
        assert "threads" not in build_config("mz", {}, {})
        with pytest.raises(ConfigError):
            build_config("mz", {"threads": 2}, {})
        with pytest.raises(SystemExit) as exc:
            main(["mz", "--threads", "2"])
        assert exc.value.code == 2


class TestListValues:
    @pytest.mark.parametrize(
        "args",
        [
            ["approx", "--n-list", "1e400"],
            ["pipeline", "--n-list", "1e400"],
            ["widths", "--m", "3", "--n-list", "-1"],
        ],
        ids=["approx-inf", "pipeline-inf", "widths-negative"],
    )
    def test_bad_entry_is_config_error(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        assert run(args + ["--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("exponent", ["e", "E"])
    def test_exponent_in_either_case(self, exponent):
        assert build_config("mz", {}, {"p_list": [f"1{exponent}3"]})["p_list"] == [1000.0]
        assert build_config("approx", {}, {"n_list": [f"1{exponent}2"]})["n_list"] == [100.0]

    def test_non_integral_degree_rejected(self):
        with pytest.raises(ConfigError):
            build_config("mz", {"m_list": [4, 2.5]}, {})

    def test_oversized_entry_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["mz", "--m-list", "1" + "0" * 400, "--trials", "5", "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(ConfigError):
            build_config("approx", {"n_list": [1e300]}, {})


class TestExitCodes:
    """The one error -> exit-code map, one case per mapped error."""

    @pytest.mark.parametrize(
        "error, code",
        [
            (ConfigError("bad key"), 2),
            (OutOfBranchError("outside both branches"), 2),
            (MemoryError(), 2),
            (NonconvergenceError("stuck", diagnostics={"iterations": 7}), 3),
            (OSError("disk full"), 4),
        ],
        ids=["config", "widthlab", "memory", "nonconvergence", "os"],
    )
    def test_runner_error(self, tmp_path, capsys, monkeypatch, error, code):
        def failing(config):
            raise error

        monkeypatch.setitem(cli.RUNNERS, "catalog", failing)
        out = tmp_path / "out"
        assert run(["catalog", "--all", "--out", str(out)]) == code
        if code == 3:
            report = json.loads(read(out / "report.json"))["report"]
            assert report == {"nonconvergence": True, "diagnostics": {"iterations": 7}}
            assert (out / "results.csv").exists()
        else:
            assert capsys.readouterr().err.count("\n") == 1
            assert not out.exists()

    @pytest.mark.parametrize(
        "content, code", [(None, 4), (b"{", 2), (b"\xff\xfe", 2)], ids=["missing", "bad-json", "not-text"]
    )
    def test_config_file(self, tmp_path, capsys, content, code):
        cfg = tmp_path / "c.json"
        if content is not None:
            cfg.write_bytes(content)
        out = tmp_path / "out"
        assert run(["catalog", "--all", "--config", str(cfg), "--out", str(out)]) == code
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()

    def test_solver_cap_in_approx_exits_3(self, tmp_path, monkeypatch):
        monkeypatch.setattr(widthlab.norms, "IRLS_MAX_ITER", 1)
        out = tmp_path / "out"
        args = ["approx", "--family", "sobolev", "--p", "1.5", "--q", "3", "--n-list", "8"]
        assert run(args + ["--out", str(out)]) == 3
        report = json.loads(read(out / "report.json"))["report"]
        assert report["nonconvergence"] is True
        assert report["diagnostics"]["iterations"] == 1
        assert report["diagnostics"]["q"] == 3.0


def run_fresh(code):
    """Run code in a new interpreter that imports this checkout's widthlab."""
    src = os.path.dirname(os.path.dirname(widthlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


def write_series(path, pairs):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "value"])
        writer.writerows(pairs)


class TestImportGraph:
    def test_cli_import_leaves_scipy_unloaded(self, tmp_path):
        """In one new interpreter: the closed-form and fit runs leave numpy
        unloaded, the runs that need it still succeed, and nothing loads scipy."""
        data = tmp_path / "data.csv"
        write_series(data, [(n, 2.0 * n**-1.5) for n in (8, 16, 32, 64, 128, 256, 512)])
        numpy_free = [
            ["--version"],
            ["--help"],
            ["catalog", "--family", "sobolev", "--r", "1", "--p", "1.5", "--q", "3"],
            ["catalog", "--all"],
            ["pipeline", "--gamma", "1", "--p", "1.5", "--q", "3", "--n-list", "8", "12"],
            ["widths", "--m", "5", "--n-list", "0", "5", "--p", "1.5", "--q", "3"],
            ["widths", "--m", "5", "--n-list", "1", "2", "3", "4", "--p", "3", "--q", "1.5"],
            ["widths", "--m", "5", "--n-list", "1", "2", "3", "4", "--p", "3", "--q", "3"],
            ["fit", "--input", str(data)],
        ]
        with_numpy = [
            ["widths", "--m", "4", "--n-list", "2", "--p", "1.5", "--q", "3", "--restarts", "2"],
            ["mz", "--m-list", "4", "--p-list", "1.5", "--trials", "5"],
            ["approx", "--family", "sobolev", "--r", "1", "--p", "1.5", "--q", "3", "--n-list", "8"],
        ]
        runs = [args if args[0].startswith("--") else args + ["--out", str(tmp_path / str(i))]
                for i, args in enumerate(numpy_free + with_numpy)]
        proc = run_fresh(
            "import contextlib, io, sys\n"
            "import widthlab\n"
            "print('import', 'numpy' in sys.modules)\n"
            "from widthlab.cli import main\n"
            f"for args in {runs!r}:\n"
            "    try:\n"
            "        with contextlib.redirect_stdout(io.StringIO()):\n"
            "            code = main(args)\n"
            "    except SystemExit as exc:\n"
            "        code = exc.code\n"
            "    print(args[0], code, 'numpy' in sys.modules)\n"
            "print('scipy', 'scipy' in sys.modules)"
        )
        assert proc.returncode == 0, proc.stderr
        expected = ["import False"]
        expected += [f"{args[0]} 0 False" for args in numpy_free]
        expected += [f"{args[0]} 0 True" for args in with_numpy]
        assert proc.stdout.splitlines() == expected + ["scipy False"]

    def test_no_command_starts_a_thread(self, tmp_path):
        data = tmp_path / "data.csv"
        write_series(data, [(n, 2.0 * n**-1.5) for n in (8, 16, 32, 64, 128, 256, 512)])
        runs = [
            ["widths", "--m", "4", "--n-list", "2", "--p", "1.5", "--q", "3", "--restarts", "2"],
            ["catalog", "--family", "sobolev", "--r", "1", "--p", "1.5", "--q", "3"],
            ["fit", "--input", str(data)],
            # Its screening ladder splits the 8,192 midpoints of 200 rows into blocks.
            ["mz", "--p-list", "1.5", "--m-list", "128", "--trials", "200"],
        ]
        proc = run_fresh(
            "import threading, widthlab\n"
            "counts = [threading.active_count()]\n"
            "from widthlab.cli import main\n"
            f"for i, args in enumerate({runs!r}):\n"
            f"    assert main(args + ['--out', {str(tmp_path)!r} + f'/{{i}}']) == 0\n"
            "    counts.append(threading.active_count())\n"
            "print('threads', *counts)"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[-6:] == ["threads", "1", "1", "1", "1", "1"]

    def test_fit_runs_with_scipy_blocked(self, tmp_path):
        data, out = tmp_path / "data.csv", tmp_path / "out"
        write_series(data, [(n, 2.0 * n**-1.5) for n in (8, 16, 32, 64, 128, 256, 512)])
        proc = run_fresh(
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from widthlab.cli import main\n"
            f"sys.exit(main(['fit', '--input', {str(data)!r}, '--out', {str(out)!r}]))"
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(read(out / "report.json"))["report"]["model"]["kind"] == "poly"

    def test_fit_runs_with_numpy_blocked(self, tmp_path, monkeypatch):
        """rate-study's two fit runs (bench/workloads.py) and the README's fit
        line exit 0 in a new interpreter where importing numpy fails."""
        monkeypatch.chdir(tmp_path)
        fits = []
        for family, params in (("sobolev", ["--r", "1"]), ("polylog", ["--gamma", "1"])):
            approx = ["approx", "--family", family, *params, "--p", "1.5", "--q", "3",
                      "--n-list", "8", "12", "16", "24", "32", "48", "--seed", "1", "--out", f"approx-{family}"]
            assert run(approx) == 0
            fits.append(["fit", "--input", f"approx-{family}/results.csv", "--seed", "1", "--out", f"fit-{family}"])
        readme = {argv[1]: argv[1:] for argv in readme_usage_lines()}
        assert run(readme["approx"]) == 0
        fits.append(readme["fit"])
        proc = run_fresh(
            "import os, sys\n"
            "sys.modules['numpy'] = None\n"
            f"os.chdir({str(tmp_path)!r})\n"
            "from widthlab.cli import main\n"
            f"print([main(args) for args in {fits!r}])"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[0, 0, 0]\n"


# The eager namespace of widthlab before its names were made lazy, by the
# module each name is defined in.
NAMESPACE = {
    "classes": ["SearchReport", "en_exact_l2", "en_lower_search"],
    "errors": [
        "ConfigError", "DegenerateDataError", "DimensionGuardError", "GridTooCoarseError",
        "InvalidDimensionError", "InvalidExponentError", "NonconvergenceError", "OutOfBranchError",
        "TruncationExceededError", "UncoveredRegimeError", "WidthlabError",
    ],
    "fourier": [
        "Exponential", "GridFunction", "MultiplierKernel", "PolyLog", "Polynomial", "TrigPoly",
        "analyze", "apply_multiplier", "convolution_constant", "default_grid_size", "eval_poly", "synthesize",
    ],
    "norms": ["best_approx", "lp_norm", "mz_ratio_stats", "poly_lp_norm"],
    "rates": [
        "BallWidthInstance", "PipelineReport", "RateModel", "RegimeVerdict", "WidthEstimate",
        "catalog_record", "catalog_records", "coordinate_subspace_bound", "en_rate", "fit_rate",
        "lower_bound_pipeline", "optimality_verdict", "phi_gluskin", "width_rate",
    ],
    "widths": ["ball_width_bruteforce"],
}


class TestLazyNamespace:
    @pytest.mark.parametrize("home, name", [(home, name) for home, names in NAMESPACE.items() for name in names])
    def test_name_resolves_to_its_home_object(self, home, name):
        module = importlib.import_module(f"widthlab.{home}")
        assert getattr(widthlab, name) is getattr(module, name)
        assert getattr(module, name).__module__ == module.__name__

    def test_exports_and_version(self):
        assert sorted(widthlab.__all__) == sorted(name for names in NAMESPACE.values() for name in names)
        assert widthlab.__version__ == "0.1.0"

    def test_submodule_resolves_before_any_import_of_it(self):
        proc = run_fresh(
            "import sys, widthlab\n"
            "print('widthlab.norms' in sys.modules)\n"
            "print(widthlab.norms is sys.modules['widthlab.norms'])"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True"]

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            widthlab.no_such_name
        assert not hasattr(widthlab, "M_CAP")


class TestPipelineCommand:
    def test_outputs_and_values(self, tmp_path):
        out = tmp_path / "run"
        code = run(
            [
                "pipeline",
                "--gamma", "1.0",
                "--p", "2.0",
                "--q", "4.0",
                "--n-list", "16",
                "--out", str(out),
            ]
        )
        assert code == 0
        with open(out / "results.csv", newline="") as fh:
            rows = {(r["n"], r["quantity"]): float(r["value"]) for r in csv.DictReader(fh)}
        assert rows[("16", "m_chosen")] == 256.0
        assert rows[("16", "phi_value")] == 1.0
        assert rows[("16", "lower_bound")] == pytest.approx(1 / math.log(256))
        report = json.loads(read(out / "report.json"))
        assert report["subcommand"] == "pipeline"
        assert report["config"]["gamma"] == 1.0
        assert (out / "plot.svg").exists()

    def test_deterministic_outputs(self, tmp_path):
        args = ["pipeline", "--n-list", "8", "16", "32", "--seed", "5"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", str(out_a)]) == 0
        assert run(args + ["--out", str(out_b)]) == 0
        assert read(out_a / "results.csv") == read(out_b / "results.csv")
        # report.json differs only in the echoed output path
        doc_a = json.loads(read(out_a / "report.json"))
        doc_b = json.loads(read(out_b / "report.json"))
        doc_a["config"]["out"] = doc_b["config"]["out"] = ""
        assert doc_a == doc_b

    def test_empty_n_list_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n_list": []}))
        assert run(["pipeline", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_unknown_config_key_exit_code(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n_list": [16], "mystery": 1}))
        assert run(["pipeline", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_out_of_branch_is_config_error(self, tmp_path):
        code = run(
            ["pipeline", "--p", "3.0", "--q", "2.0", "--n-list", "16", "--out", str(tmp_path)]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--gamma", "1", "--m-override", "0"], "needs m > n, got m=0"),
            (["--gamma", "1", "--m-override", "1"], "needs m > n, got m=1"),
            (["--gamma", "nan"], "finite gamma >= 0"),
            (["--gamma", "-1"], "finite gamma >= 0"),
        ],
        ids=["m-zero", "m-one", "gamma-nan", "gamma-negative"],
    )
    def test_malformed_input_is_config_error(self, tmp_path, capsys, args, message):
        out = tmp_path / "out"
        code = run(["pipeline", "--p", "1.5", "--q", "3", "--n-list", "8", *args, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_config_round_trip_from_report(self, tmp_path):
        out1 = tmp_path / "first"
        assert run(["pipeline", "--n-list", "8", "32", "--out", str(out1)]) == 0
        echoed = json.loads(read(out1 / "report.json"))["config"]
        cfg = tmp_path / "echo.json"
        out2 = tmp_path / "second"
        echoed["out"] = str(out2)
        cfg.write_text(json.dumps(echoed))
        assert run(["pipeline", "--config", str(cfg)]) == 0
        assert read(out1 / "results.csv") == read(out2 / "results.csv")


class TestCatalogCommand:
    def test_single_cell_verdict(self, tmp_path):
        code = run(
            [
                "catalog",
                "--family", "sobolev",
                "--r", "3.0",
                "--p", "4.0",
                "--q", "2.0",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        report = json.loads(read(tmp_path / "report.json"))
        (rec,) = report["report"]["records"]
        assert rec["verdict"] == "optimal"
        assert rec["width_rate"] == "n^-3"

    def test_all_grid(self, tmp_path):
        assert run(["catalog", "--all", "--out", str(tmp_path)]) == 0
        with open(tmp_path / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) >= 40
        assert {"family", "p", "q", "params", "width_rate", "en_rate", "verdict", "regime"} == set(
            rows[0]
        )

    def test_missing_family_is_config_error(self, tmp_path):
        assert run(["catalog", "--out", str(tmp_path)]) == 2


class TestApproxCommand:
    def test_exact_l2_path(self, tmp_path):
        code = run(
            [
                "approx",
                "--family", "polylog",
                "--gamma", "1.0",
                "--n-list", "8", "16",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        with open(tmp_path / "results.csv", newline="") as fh:
            rows = {(r["n"], r["quantity"]): float(r["value"]) for r in csv.DictReader(fh)}
        assert rows[("8", "en_exact_l2")] == pytest.approx(0.5 * math.log(10) ** -1)
        assert {quantity for _, quantity in rows} == {"en_exact_l2"}

    def test_search_report_per_n(self, tmp_path):
        args = ["approx", "--family", "sobolev", "--p", "1.5", "--q", "3", "--n-list", "8", "12"]
        assert run(args + ["--out", str(tmp_path)]) == 0
        report = json.loads(read(tmp_path / "report.json"))["report"]
        assert report["search"] == [
            {"n": 8, "candidates": 8, "winner": "harmonic", "k": 9},
            {"n": 12, "candidates": 8, "winner": "harmonic", "k": 13},
        ]

    def test_output_does_not_depend_on_the_seed(self, tmp_path):
        args = ["approx", "--family", "sobolev", "--p", "1.5", "--q", "3", "--n-list", "8", "12"]
        for seed in ("1", "2"):
            assert run(args + ["--seed", seed, "--out", str(tmp_path / seed)]) == 0
        assert read(tmp_path / "1" / "results.csv") == read(tmp_path / "2" / "results.csv")

    def test_no_harmonic_within_the_truncation_writes_zero(self, tmp_path):
        args = ["approx", "--truncation", "5", "--n-list", "8", "--p", "1.5", "--q", "3"]
        assert run(args + ["--out", str(tmp_path)]) == 0
        with open(tmp_path / "results.csv", newline="") as fh:
            assert [float(r["value"]) for r in csv.DictReader(fh)] == [0.0]
        report = json.loads(read(tmp_path / "report.json"))["report"]
        assert report["search"] == [{"n": 8, "candidates": 0, "winner": "none", "k": None}]

    @pytest.mark.parametrize(
        "args",
        [["--family", "exponential", "--mu", "nan"], ["--family", "sobolev", "--r", "nan"],
         ["--family", "polylog", "--gamma", "inf"]],
        ids=["exponential-mu-nan", "sobolev-r-nan", "polylog-gamma-inf"],
    )
    def test_non_finite_kernel_parameter_is_config_error(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        assert run(["approx", *args, "--p", "1.5", "--q", "3", "--n-list", "8", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("truncation", ["-5", "0"])
    def test_non_positive_truncation_is_config_error(self, tmp_path, capsys, truncation):
        out = tmp_path / "out"
        args = ["approx", "--family", "exponential", "--truncation", truncation, "--n-list", "8"]
        assert run([*args, "--p", "1.5", "--q", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert not out.exists()

    def test_rho_key_removed(self, tmp_path):
        """Old report.json echoes carry "rho": null; they still run, and give
        the output of the polylog exponent (1/p - 1/q)_+."""
        args = ["approx", "--family", "polylog", "--p", "1.5", "--q", "3", "--n-list", "8", "16"]
        assert run(args + ["--out", str(tmp_path / "plain")]) == 0
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"rho": None}))
        assert run(args + ["--config", str(cfg), "--out", str(tmp_path / "echo")]) == 0
        assert read(tmp_path / "echo" / "results.csv") == read(tmp_path / "plain" / "results.csv")
        cfg.write_text(json.dumps({"rho": 0.5}))
        assert run(args + ["--config", str(cfg), "--out", str(tmp_path / "set")]) == 2
        assert not (tmp_path / "set").exists()
        with pytest.raises(SystemExit) as exc:
            main(args + ["--rho", "0.5", "--out", str(tmp_path / "flag")])
        assert exc.value.code == 2

    def test_budget_key_removed(self, tmp_path):
        with pytest.raises(ConfigError):
            build_config("approx", {"budget": 60}, {})
        with pytest.raises(SystemExit) as exc:
            main(["approx", "--n-list", "8", "--budget", "60", "--out", str(tmp_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["--p", "inf", "--q", "3", "--n-list", "8"],
            ["--n-list", "-3"],
            ["--p", "1.5", "--q", "3", "--n-list", "-3"],
            ["--p", "inf", "--q", "3", "--n-list", "8", "--truncation", "5"],
        ],
        ids=["p-inf", "negative-degree-exact-l2", "negative-degree-search", "p-inf-no-harmonic"],
    )
    def test_out_of_range_input_is_config_error(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        assert run(["approx", *args, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()


class TestFitCommand:
    def test_fit_from_csv(self, tmp_path):
        data = tmp_path / "data.csv"
        write_series(data, [(n, 2.0 * n**-1.5) for n in (8, 16, 32, 64, 128, 256, 512)])
        out = tmp_path / "out"
        assert run(["fit", "--input", str(data), "--out", str(out)]) == 0
        model = json.loads(read(out / "report.json"))["report"]["model"]
        assert model["kind"] == "poly"
        assert model["a"] == pytest.approx(1.5, abs=1e-8)
        assert model["c"] == pytest.approx(2.0, rel=1e-8)

    def test_missing_input_file_is_io_error(self, tmp_path):
        assert run(["fit", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path)]) == 4

    @pytest.mark.parametrize(
        "pairs",
        [
            [(n, 2.0 * n**-1.5) for n in (1, 2, 3, 4, 5, 6)],
            [(n, 2.0 * n**-1.5) for n in (8, 16, 32, 64, 128)] + [(256, "nan")],
            [(n, 2.0 * n**-1.5) for n in (8, 16, 32, 64, 128)] + [(256, "inf")],
            # Finite positive values whose fitted constant, the value at n = 1, is about 1e309.
            [(n, 1e300 * (8 / n) ** 10) for n in (8, 12, 16, 24, 32, 48)],
        ],
        ids=["n-one", "nan-value", "inf-value", "constant-overflow"],
    )
    def test_malformed_points_are_config_errors(self, tmp_path, capsys, pairs):
        data, out = tmp_path / "data.csv", tmp_path / "out"
        write_series(data, pairs)
        assert run(["fit", "--input", str(data), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "config error" in err
        assert not out.exists()

    def test_non_finite_fitted_rows(self, tmp_path):
        """Below n = 8 the fitted polylog leaves its domain: nan at n = 0.5
        (ln n < 0) and inf at n = 1 (ln n = 0).  The run exits 0 and plots the
        finite points."""
        data, out = tmp_path / "data.csv", tmp_path / "out"
        write_series(data, [(0.5, 2.0), (1, 1.5)] + [(n, 1 / math.log(n)) for n in (8, 12, 16, 24, 32, 48, 64)])
        assert run(["fit", "--input", str(data), "--out", str(out)]) == 0
        assert json.loads(read(out / "report.json"))["report"]["model"]["kind"] == "polylog"
        rows = read(out / "results.csv").decode().splitlines()
        assert rows[10:12] == ["0.5,fitted,nan", "1,fitted,inf"]
        assert (out / "plot.svg").exists()

    def test_fits_polylog_approx_output(self, tmp_path):
        approx_out, out = tmp_path / "approx", tmp_path / "fit"
        n_list = ["8", "16", "32", "64", "128", "256"]
        assert run(["approx", "--family", "polylog", "--n-list", *n_list, "--out", str(approx_out)]) == 0
        assert run(["fit", "--input", str(approx_out / "results.csv"), "--out", str(out)]) == 0

    def test_csv_without_n_value_columns_is_config_error(self, tmp_path):
        mz_out, out = tmp_path / "mz", tmp_path / "fit"
        assert run(["mz", "--p-list", "2", "--m-list", "4", "--trials", "5", "--out", str(mz_out)]) == 0
        assert run(["fit", "--input", str(mz_out / "results.csv"), "--out", str(out)]) == 2
        assert not out.exists()


class TestMzCommand:
    def test_schema_and_determinism(self, tmp_path):
        args = ["mz", "--p-list", "2.0", "--m-list", "4", "8", "--trials", "20"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", str(out_a)]) == 0
        assert run(args + ["--out", str(out_b)]) == 0
        assert read(out_a / "results.csv") == read(out_b / "results.csv")
        with open(out_a / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {"m", "p", "quantity", "value"}
        for row in rows:
            if row["quantity"] == "min_ratio":
                assert float(row["value"]) > 0


    def test_report_gives_each_cells_quadrature(self, tmp_path):
        out = tmp_path / "out"
        assert run(["mz", "--p-list", "1.5", "2", "--m-list", "4", "128", "--trials", "20", "--out", str(out)]) == 0
        quadrature = json.loads(read(out / "report.json"))["report"]["quadrature"]
        # p = 2: the first exact grid.  p = 1.5: the ladder converges at
        # m = 4 and stops at the cap, exactly 2^16 points, at m = 128.
        assert quadrature == {
            "1.5": {"4": {"grid": 65536, "converged": True}, "128": {"grid": 65536, "converged": False}},
            "2": {"4": {"grid": 256, "converged": True}, "128": {"grid": 516, "converged": True}},
        }

    @pytest.mark.parametrize(
        "args", [["--p-list", "0.5", "--m-list", "4"], ["--m-list", "0"]], ids=["p-below-1", "m-zero"]
    )
    def test_out_of_range_cell_is_config_error(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        assert run(["mz", *args, "--trials", "5", "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_memory_error_is_config_error(self, tmp_path, capsys, monkeypatch):
        # Injected: a real oversized request could reach the OOM killer on a
        # host that overcommits memory.
        def exhausted(m, trials, rng):
            raise MemoryError

        monkeypatch.setattr(widthlab.norms, "_random_unit_polys", exhausted)
        out = tmp_path / "out"
        assert run(["mz", "--m-list", "4", "--trials", "5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "config error: mz " in err
        assert not out.exists()

    def test_memory_error_in_a_split_level_is_config_error(self, tmp_path, capsys, monkeypatch):
        # Injected, as above, into the first full block of a level that splits:
        # the 8,192 midpoints of 200 rows run in blocks of 128 rows.
        synthesize_rows = widthlab.norms.synthesize_rows
        failed = []

        def exhausted_in_a_block(coeffs, n_grid, shift=0.0):
            if len(coeffs) * n_grid == widthlab.norms.QUADRATURE_BLOCK:
                failed.append((len(coeffs), n_grid))
                raise MemoryError
            return synthesize_rows(coeffs, n_grid, shift)

        monkeypatch.setattr(widthlab.norms, "synthesize_rows", exhausted_in_a_block)
        out = tmp_path / "out"
        assert run(["mz", "--p-list", "1.5", "--m-list", "128", "--trials", "200", "--out", str(out)]) == 2
        assert failed == [(128, 8192)]
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "config error: mz " in err
        assert not out.exists()


class TestWidthsCommand:
    def test_basic_run(self, tmp_path):
        code = run(
            [
                "widths",
                "--m", "4",
                "--n-list", "0", "2", "4",
                "--p", "2.0",
                "--q", "2.0",
                "--restarts", "2",
                "--inner-starts", "8",
                "--final-starts", "16",
                "--max-iter", "8",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        with open(tmp_path / "results.csv", newline="") as fh:
            rows = {(r["n"], r["quantity"]): float(r["value"]) for r in csv.DictReader(fh)}
        assert rows[("0", "bruteforce_width")] == pytest.approx(1.0, abs=1e-6)
        assert rows[("4", "bruteforce_width")] == 0.0

    @pytest.mark.parametrize(
        "args",
        [["--restarts", "0"], ["--restarts", "-1"], ["--inner-starts", "-1"], ["--final-starts", "-2"],
         ["--max-iter", "-1"]],
        ids=["restarts-0", "restarts-negative", "inner-negative", "final-negative", "max-iter-negative"],
    )
    def test_bad_search_budget_is_config_error(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        assert run(["widths", "--m", "4", "--n-list", "2", "--p", "1.5", "--q", "3", *args, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_p_equals_q_equals_one_is_width_one(self, tmp_path):
        args = ["widths", "--m", "5", "--n-list", "1", "2", "3", "4", "--p", "1", "--q", "1", "--restarts", "2"]
        assert run(args + ["--out", str(tmp_path)]) == 0
        with open(tmp_path / "results.csv", newline="") as fh:
            widths = [float(r["value"]) for r in csv.DictReader(fh) if r["quantity"] == "bruteforce_width"]
        assert widths == [1.0] * 4

    def test_q_below_p_is_closed_form(self, tmp_path):
        # Exact (Pietsch, Stesin): seed 4 made this cell exit 3 under the primal ascent.
        code = run(
            ["widths", "--m", "5", "--n-list", "1", "2", "3", "4", "--p", "3", "--q", "1.5",
             "--restarts", "2", "--seed", "4", "--out", str(tmp_path)]
        )
        assert code == 0
        with open(tmp_path / "report.json") as fh:
            report = json.load(fh)["report"]
        assert report["converged"] == [True] * 4
        assert report["stops"] == [[]] * 4
        assert report["medians"] == [None] * 4
        with open(tmp_path / "results.csv", newline="") as fh:
            rows = {(r["n"], r["quantity"]): float(r["value"]) for r in csv.DictReader(fh)}
        for n in range(1, 5):
            assert rows[(str(n), "bruteforce_width")] == (5 - n) ** (1 / 1.5 - 1 / 3)

    @pytest.mark.parametrize("p, q, label", [("3", "1.5", "two-sided"), ("1.5", "3", "upper-bound")])
    def test_report_labels_each_n(self, tmp_path, p, q, label):
        args = ["widths", "--m", "5", "--n-list", "1", "2", "3", "4", "--p", p, "--q", q, "--restarts", "2"]
        assert run(args + ["--max-iter", "2", "--out", str(tmp_path)]) == 0
        with open(tmp_path / "report.json") as fh:
            report = json.load(fh)["report"]
        assert report["directions"] == [label] * 4
        assert report["direction"] == "upper-bound"

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.integers(1, 8).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m))),
        p=st.floats(1.0, 8.0),
        q=st.floats(1.0, 8.0),
    )
    def test_closed_form_cells_match_the_brute_force(self, shape, p, q):
        """Cells with n = 0, n = m or q <= p never reach widths, and write what
        ball_width_bruteforce gives for them."""
        m, n = shape
        assume(n in (0, m) or q <= p)
        inst = BallWidthInstance(m, n, p, q)
        est = widths.ball_width_bruteforce(inst)
        try:
            phi = phi_gluskin(inst)
        except OutOfBranchError:
            phi = float("nan")
        expected = [[str(n), "bruteforce_width", cli.fmt(est.value)], [str(n), "phi_order", cli.fmt(phi)],
                    [str(n), "coordinate_bound", cli.fmt(coordinate_subspace_bound(inst))]]

        def unreachable(*args, **kwargs):
            raise AssertionError("a closed-form cell reached the brute force")

        with tempfile.TemporaryDirectory() as out, pytest.MonkeyPatch.context() as mp:
            mp.setattr(widths, "ball_width_bruteforce", unreachable)
            args = ["widths", "--m", str(m), "--n-list", str(n), "--p", repr(p), "--q", repr(q)]
            assert run(args + ["--out", out]) == 0
            with open(os.path.join(out, "results.csv"), newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            with open(os.path.join(out, "report.json")) as fh:
                report = json.load(fh)["report"]
        assert sorted(rows) == sorted(expected)
        assert report["directions"] == [est.direction] == ["two-sided"]
        assert report["medians"] == [est.diagnostics.get("median")]
        assert report["converged"] == [est.diagnostics.get("converged", True)]
        assert report["stops"] == [est.diagnostics.get("stops", [])]
        assert report["nonconverged"] is False

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--m", "9", "--n-list", "2", "--p", "2", "--q", "2"], "m=9 above desk-scale cap 8"),
            (["--m", "9", "--n-list", "2", "--p", "inf", "--q", "2"], "m=9 above desk-scale cap 8"),
            (["--m", "5", "--n-list", "2", "--p", "inf", "--q", "2"], "brute force needs finite exponents"),
            (["--m", "5", "--n-list", "5", "--p", "2", "--q", "inf"], "brute force needs finite exponents"),
        ],
        ids=["guard", "guard-before-exponent", "p-inf", "q-inf-at-n-equal-m"],
    )
    def test_closed_form_cells_keep_the_error_order(self, tmp_path, capsys, args, message):
        out = tmp_path / "out"
        assert run(["widths", *args, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()


def readme_usage_lines():
    """The widthlab lines of the sh block under README.md's '## CLI usage'."""
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme) as fh:
        text = fh.read()
    block = re.search(r"^## CLI usage\n.*?^```sh\n(.*?)^```", text, re.S | re.M).group(1)
    return [shlex.split(line) for line in block.splitlines() if line.startswith("widthlab ")]


def test_readme_usage_runs(tmp_path, monkeypatch):
    """Each usage line exits 0 and writes results.csv, in order (fit reads approx's output)."""
    monkeypatch.chdir(tmp_path)
    lines = readme_usage_lines()
    assert len(lines) == 6
    for argv in lines:
        assert run(argv[1:]) == 0, argv
        assert (tmp_path / argv[argv.index("--out") + 1] / "results.csv").exists(), argv
