"""Dependency-free log-log SVG polyline plots.

Figures are a convenience next to the CSV/JSON outputs, so this stays tiny:
axes, tick labels, one polyline per series, a legend.
"""

import math

WIDTH = 640
HEIGHT = 440
MARGIN = 60
COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _transform(values):
    return [math.log10(v) for v in values]


def _ticks(lo, hi):
    lo_i, hi_i = math.floor(lo), math.ceil(hi)
    if hi_i - lo_i < 1:
        hi_i = lo_i + 1
    return [(t, f"1e{t}") for t in range(lo_i, hi_i + 1)]


def render_plot(series, title=""):
    """Return an SVG document string with log axes labelled n and value.

    series: list of (label, xs, ys); points with a nonpositive or non-finite
    coordinate are dropped.
    """
    cleaned = []
    for label, xs, ys in series:
        pts = [(x, y) for x, y in zip(xs, ys) if 0 < x < math.inf and 0 < y < math.inf]
        if pts:
            cleaned.append((label, pts))
    if not cleaned:
        raise ValueError("nothing to plot")

    all_x = _transform([x for _, pts in cleaned for x, _ in pts])
    all_y = _transform([y for _, pts in cleaned for _, y in pts])
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo:
        x_hi += 1.0
    if y_hi == y_lo:
        y_hi += 1.0

    def sx(v):
        return MARGIN + (v - x_lo) / (x_hi - x_lo) * (WIDTH - 2 * MARGIN)

    def sy(v):
        return HEIGHT - MARGIN - (v - y_lo) / (y_hi - y_lo) * (HEIGHT - 2 * MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'font-family="sans-serif" font-size="11">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
    ]
    axis = f'stroke="#333" stroke-width="1"'
    parts.append(
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" {axis}/>'
    )
    parts.append(
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" y2="{HEIGHT - MARGIN}" {axis}/>'
    )
    for t, lab in _ticks(x_lo, x_hi):
        if x_lo <= t <= x_hi:
            parts.append(
                f'<text x="{sx(t):.1f}" y="{HEIGHT - MARGIN + 16}" '
                f'text-anchor="middle">{lab}</text>'
            )
    for t, lab in _ticks(y_lo, y_hi):
        if y_lo <= t <= y_hi:
            parts.append(
                f'<text x="{MARGIN - 6}" y="{sy(t):.1f}" text-anchor="end" '
                f'dominant-baseline="middle">{lab}</text>'
            )
    parts.append(
        f'<text x="{WIDTH / 2}" y="{HEIGHT - 12}" text-anchor="middle">n</text>'
    )
    parts.append(
        f'<text x="16" y="{HEIGHT / 2}" text-anchor="middle" '
        f'transform="rotate(-90 16 {HEIGHT / 2})">value</text>'
    )
    for idx, (label, pts) in enumerate(cleaned):
        color = COLORS[idx % len(COLORS)]
        coords = " ".join(
            f"{sx(xv):.2f},{sy(yv):.2f}"
            for xv, yv in zip(
                _transform([x for x, _ in pts]),
                _transform([y for _, y in pts]),
            )
        )
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = MARGIN + 14 * idx + 4
        parts.append(
            f'<line x1="{WIDTH - MARGIN - 90}" y1="{ly}" x2="{WIDTH - MARGIN - 70}" '
            f'y2="{ly}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{WIDTH - MARGIN - 64}" y="{ly + 4}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
