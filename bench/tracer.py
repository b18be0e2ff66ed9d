"""In-memory span tracer for widthlab's public functions and numpy kernels.

A span is recorded around each public function of every loaded widthlab
module, under the name its callers look it up by: ``widthlab.classes.
best_approx`` and ``widthlab.norms.best_approx`` are both patched, and both
record ``norms.best_approx`` (the defining module, then the function). Private
names are left alone, so merging or renaming them does not break the tracer.

``numpy.linalg.solve``, ``numpy.fft.irfft`` and ``numpy.fft.rfft`` record no
span; their counts go to the innermost open span.
"""

import inspect
import statistics
import sys
import time

import numpy as np

# Quadrature grids at or above this many points count as cap hits.
QUADRATURE_CAP = 2**16

KERNEL_KEYS = (
    "solve_calls",
    "solve_matrices",
    "irfft_calls",
    "irfft_points",
    "irfft_max_n",
    "rfft_calls",
    "rfft_points",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "invocation", "kernels")

    def __init__(self, name, parent, invocation):
        self.name = name
        self.parent = parent
        self.invocation = invocation
        self.start = self.end = 0.0
        self.kernels = None

    def add(self, key, value):
        if self.kernels is None:
            self.kernels = dict.fromkeys(KERNEL_KEYS, 0)
        _merge(self.kernels, {key: value})


def _merge(into, kernels):
    """Add kernel counts into another set; the largest transform length is a max."""
    for key, value in kernels.items():
        into[key] = max(into[key], value) if key == "irfft_max_n" else into[key] + value


class Tracer:
    """Patches widthlab and numpy on install(), restores them on uninstall()."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.invocation = None
        # Kernel calls made outside any span.
        self.root = Span("<root>", -1, None)
        self._patched = []

    def _top(self):
        return self.spans[self.stack[-1]] if self.stack else self.root

    def _span_wrapper(self, fn, name):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.invocation)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _solve_wrapper(self, fn):
        def traced(a, b):
            out = fn(a, b)
            a = np.asarray(a)
            top = self._top()
            top.add("solve_calls", 1)
            top.add("solve_matrices", a.size // (a.shape[-1] * a.shape[-1]) if a.ndim >= 2 else 1)
            return out

        return traced

    def _fft_wrapper(self, fn, kind):
        def traced(*args, **kwargs):
            out = fn(*args, **kwargs)
            top = self._top()
            top.add(kind + "_calls", 1)
            if kind == "irfft":
                top.add("irfft_points", out.size)
                top.add("irfft_max_n", out.shape[kwargs.get("axis", -1)])
            else:
                top.add("rfft_points", np.size(args[0]))
            return out

        return traced

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        for mod_name, module in sorted(sys.modules.items()):
            if not mod_name.startswith("widthlab.") or module is None:
                continue
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith("widthlab."):
                    continue
                name = home.split(".", 1)[1] + "." + obj.__name__
                self._patch(module, attr, self._span_wrapper(obj, name))
        self._patch(np.linalg, "solve", self._solve_wrapper(np.linalg.solve))
        self._patch(np.fft, "irfft", self._fft_wrapper(np.fft.irfft, "irfft"))
        self._patch(np.fft, "rfft", self._fft_wrapper(np.fft.rfft, "rfft"))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self):
        """Spans as plain records, in the order they opened."""
        out = [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "invocation": s.invocation,
                **({"kernels": s.kernels} if s.kernels else {}),
            }
            for s in self.spans
        ]
        if self.root.kernels:
            out.append({"name": self.root.name, "parent": -1, "kernels": self.root.kernels})
        return out


def _added_cost(wrapped, bare, args, calls, reps):
    """Median over ``reps`` of the seconds per call that ``wrapped`` adds to ``bare``."""
    added = []
    for _ in range(reps):
        start = time.perf_counter()
        for _ in range(calls):
            bare(*args)
        mid = time.perf_counter()
        for _ in range(calls):
            wrapped(*args)
        added.append((time.perf_counter() - mid - (mid - start)) / calls)
    return statistics.median(added)


def wrapper_costs(calls=20000, reps=5):
    """Seconds one span, one solve count and one FFT count add to a call, timed here.

    Each wrapper is timed around a stand-in that does nothing, under a tracer
    of its own, so the figures hold the wrapper's bookkeeping only.
    """
    tracer = Tracer()
    vec, mat = np.ones(1), np.ones((1, 1))

    def noop(*args):
        return vec

    return {
        "span": _added_cost(tracer._span_wrapper(noop, "noop"), noop, (), calls, reps),
        "solve": _added_cost(tracer._solve_wrapper(noop), noop, (mat, vec), calls, reps),
        "fft": _added_cost(tracer._fft_wrapper(noop, "irfft"), noop, (vec,), calls, reps),
    }


def overhead_s(span_count, totals, costs):
    """Wall time the tracer adds to a run: each wrapped call times its measured cost.

    Timing the same work with and without the tracer would measure this
    directly, but run-to-run noise is larger than the difference.
    """
    fft_calls = totals["irfft_calls"] + totals["rfft_calls"]
    return span_count * costs["span"] + totals["solve_calls"] * costs["solve"] + fft_calls * costs["fft"]


def summarize(spans, root_kernels=None):
    """Per-function stats from a span list: calls, total, self time and kernel counts.

    ``self_s`` is a span's duration minus its children's. Kernel counts are
    inclusive: a span's own plus every descendant's. A span whose largest
    inverse FFT reaches QUADRATURE_CAP points counts as a cap hit.
    """
    child_time = [0.0] * len(spans)
    inclusive = [dict.fromkeys(KERNEL_KEYS, 0) for _ in spans]
    # Children open after their parents, so a reverse sweep sees every child first.
    for i in range(len(spans) - 1, -1, -1):
        s = spans[i]
        if s.kernels:
            _merge(inclusive[i], s.kernels)
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
            _merge(inclusive[s.parent], inclusive[i])
    stats = {}
    totals = dict.fromkeys(KERNEL_KEYS, 0)
    for i, s in enumerate(spans):
        st = stats.setdefault(
            s.name,
            {"calls": 0, "total_s": 0.0, "self_s": 0.0, "cap_hits": 0, **dict.fromkeys(KERNEL_KEYS, 0)},
        )
        st["calls"] += 1
        st["total_s"] += s.end - s.start
        st["self_s"] += s.end - s.start - child_time[i]
        st["cap_hits"] += inclusive[i]["irfft_max_n"] >= QUADRATURE_CAP
        _merge(st, inclusive[i])
        if s.kernels:
            _merge(totals, s.kernels)
    if root_kernels:
        _merge(totals, root_kernels)
    return stats, totals


def _stat(name, key):
    return lambda stats, totals: stats.get(name, {}).get(key, 0)


def _per_call(name, key):
    def get(stats, totals):
        st = stats.get(name)
        return st[key] / st["calls"] if st and st["calls"] else 0.0

    return get


def _total(key):
    return lambda stats, totals: totals.get(key, 0)


# (metric, unit, getter); trace.overhead_s is added by layer_metrics().
_LAYERS = [
    ("widths.ball_width_bruteforce.calls", "count", _stat("widths.ball_width_bruteforce", "calls")),
    ("widths.ball_width_bruteforce.self_s", "s", _stat("widths.ball_width_bruteforce", "self_s")),
    ("widths.ball_width_bruteforce.solve_calls", "count", _stat("widths.ball_width_bruteforce", "solve_calls")),
    ("widths.ball_width_bruteforce.solve_matrices", "count", _stat("widths.ball_width_bruteforce", "solve_matrices")),
    ("numpy.linalg.solve.calls", "count", _total("solve_calls")),
    ("numpy.linalg.solve.matrices", "count", _total("solve_matrices")),
    ("norms.best_approx.calls", "count", _stat("norms.best_approx", "calls")),
    ("norms.best_approx.self_s", "s", _stat("norms.best_approx", "self_s")),
    ("norms.best_approx.solves_per_call", "count", _per_call("norms.best_approx", "solve_calls")),
    ("norms.poly_lp_norm.calls", "count", _stat("norms.poly_lp_norm", "calls")),
    ("norms.poly_lp_norm.self_s", "s", _stat("norms.poly_lp_norm", "self_s")),
    ("norms.poly_lp_norm.grids_per_call", "count", _per_call("norms.poly_lp_norm", "irfft_calls")),
    ("norms.poly_lp_norm.cap_hits", "count", _stat("norms.poly_lp_norm", "cap_hits")),
    ("norms.mz_ratio_stats.calls", "count", _stat("norms.mz_ratio_stats", "calls")),
    ("norms.mz_ratio_stats.self_s", "s", _stat("norms.mz_ratio_stats", "self_s")),
    ("norms.mz_ratio_stats.fft_points", "count", _stat("norms.mz_ratio_stats", "irfft_points")),
    ("norms.mz_ratio_stats.cap_hits", "count", _stat("norms.mz_ratio_stats", "cap_hits")),
    ("norms.mz_ratio_stats.max_grid", "count", _stat("norms.mz_ratio_stats", "irfft_max_n")),
    ("fourier.synthesize.calls", "count", _stat("fourier.synthesize", "calls")),
    ("fourier.synthesize.self_s", "s", _stat("fourier.synthesize", "self_s")),
    ("fourier.synthesize.points", "count", _stat("fourier.synthesize", "irfft_points")),
    ("fourier.analyze.calls", "count", _stat("fourier.analyze", "calls")),
    ("fourier.analyze.self_s", "s", _stat("fourier.analyze", "self_s")),
    ("fourier.eval_poly.calls", "count", _stat("fourier.eval_poly", "calls")),
    ("fourier.eval_poly.self_s", "s", _stat("fourier.eval_poly", "self_s")),
    ("fourier.apply_multiplier.calls", "count", _stat("fourier.apply_multiplier", "calls")),
    ("fourier.apply_multiplier.self_s", "s", _stat("fourier.apply_multiplier", "self_s")),
    ("classes.en_lower_search.self_s", "s", _stat("classes.en_lower_search", "self_s")),
    ("classes.lower_bound_pipeline.self_s", "s", _stat("classes.lower_bound_pipeline", "self_s")),
    ("rates.fit_rate.self_s", "s", _stat("rates.fit_rate", "self_s")),
    ("rates.catalog_record.self_s", "s", _stat("rates.catalog_record", "self_s")),
    ("cli.main.self_s", "s", _stat("cli.main", "self_s")),
    ("cli.write_outputs.self_s", "s", _stat("cli.write_outputs", "self_s")),
    ("svg.render_plot.self_s", "s", _stat("svg.render_plot", "self_s")),
    ("numpy.fft.irfft.calls", "count", _total("irfft_calls")),
    ("numpy.fft.rfft.calls", "count", _total("rfft_calls")),
]

LAYER_METRICS = [(name, unit, "lower") for name, unit, _ in _LAYERS] + [("trace.overhead_s", "s", "lower")]


def layer_metrics(stats, totals, overhead):
    """Every per-layer metric by name; layers a workload does not touch read 0."""
    metrics = {name: get(stats, totals) for name, _, get in _LAYERS}
    metrics["trace.overhead_s"] = overhead
    return metrics
