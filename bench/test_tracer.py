"""The tracer's attribution rules and the metric names BENCHMARK.json declares."""

import json
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("widthlab")

from run import END_TO_END  # noqa: E402
from tracer import LAYER_METRICS, Tracer, layer_metrics, overhead_s, summarize, wrapper_costs  # noqa: E402


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == LAYER_METRICS
    assert set(layer_metrics({}, {}, 0.0)) == {name for name, _, _ in LAYER_METRICS}


def test_solves_count_under_the_enclosing_public_span():
    from widthlab import classes, norms, widths
    from widthlab.fourier import TrigPoly, synthesize

    solve = np.linalg.solve
    f = synthesize(TrigPoly(0.0, np.array([1.0, 0.3, 0.2]), np.array([0.5, 0.0, 0.1])), 64)
    tracer = Tracer()
    tracer.install()
    try:
        assert not hasattr(widths._lq_regress, "__wrapped__")
        assert not hasattr(norms._design_matrix, "__wrapped__")
        classes.best_approx(f, 1, 3.0)
    finally:
        tracer.uninstall()
    assert np.linalg.solve is solve
    assert not hasattr(classes.best_approx, "__wrapped__")

    stats, totals = summarize(tracer.spans, tracer.root.kernels)
    approx = stats["norms.best_approx"]
    assert approx["calls"] == 1
    assert approx["solve_calls"] == totals["solve_calls"] > 0
    assert stats["fourier.analyze"]["calls"] == 1
    assert 0 <= approx["self_s"] <= approx["total_s"]
    assert tracer.spans[0].name == "norms.best_approx" and tracer.spans[0].parent == -1
    assert all(s.parent == 0 for s in tracer.spans[1:])


def test_overhead_counts_every_wrapped_call_at_its_measured_cost():
    costs = wrapper_costs(calls=2000, reps=3)
    assert all(cost > 0 for cost in costs.values())
    totals = {"solve_calls": 5, "irfft_calls": 2, "rfft_calls": 1}
    expected = 10 * costs["span"] + 5 * costs["solve"] + 3 * costs["fft"]
    assert overhead_s(10, totals, costs) == pytest.approx(expected)
