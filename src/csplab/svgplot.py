"""Self-contained SVG line charts for sweep results.

The files are assembled by hand from the sweep data with fixed formatting,
so identical input produces byte-identical output (no timestamps, no ids, no
library-version drift).
"""

from __future__ import annotations

import html
import math

_WIDTH, _HEIGHT = 640, 420
_ML, _MR, _MT, _MB = 64, 16, 36, 48
_SERIES = (
    ("mean_error", "#1f77b4", "mean error"),
    ("max_error", "#d62728", "max error"),
    ("bound_error", "#2ca02c", "bound"),
)


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        return [lo]
    return [lo + i * (hi - lo) / 4 for i in range(5)]


def render_svg(sweep, log_y: bool = False, title: str | None = None) -> str:
    """Render a SweepResult as SVG text: empirical mean/max error and the
    bound curve (when the sweep carried one) against the axis values.  With
    log_y, nonpositive values are dropped from the plot."""
    points = [p for p in sweep.points if not math.isnan(p.mean_error)]
    if not points:
        raise ValueError("sweep has no plottable points")
    xs = [p.axis_value for p in points]

    def ty(v: float) -> float:
        return math.log10(v) if log_y else v

    series = []
    for attr, color, label in _SERIES:
        vals = [getattr(p, attr) for p in points]
        pairs = [
            (x, ty(float(v))) for x, v in zip(xs, vals)
            if v is not None and not math.isnan(float(v))
            and (not log_y or float(v) > 0)
        ]
        if pairs:
            series.append((label, color, pairs))
    if not series:
        raise ValueError("nothing to plot (log scale dropped every value)")

    all_y = [v for _, _, pairs in series for _, v in pairs]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pw = _WIDTH - _ML - _MR
    ph = _HEIGHT - _MT - _MB

    def px(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * pw

    def py(v: float) -> float:
        return _MT + (y_hi - v) / (y_hi - y_lo) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="#333333" stroke-width="1"/>',
    ]
    if title:
        out.append(
            f'<text x="{_WIDTH // 2}" y="{_MT - 12}" text-anchor="middle" '
            f'font-family="monospace" font-size="13">{html.escape(title, quote=False)}</text>'
        )
    for x in _ticks(x_lo, x_hi):
        X = _fmt(px(x))
        out.append(
            f'<line x1="{X}" y1="{_MT + ph}" x2="{X}" y2="{_MT + ph + 5}" '
            f'stroke="#333333"/>'
        )
        out.append(
            f'<text x="{X}" y="{_MT + ph + 18}" text-anchor="middle" '
            f'font-family="monospace" font-size="11">{_fmt(x)}</text>'
        )
    for yv in _ticks(y_lo, y_hi):
        Y = _fmt(py(yv))
        label = _fmt(10.0**yv) if log_y else _fmt(yv)
        out.append(
            f'<line x1="{_ML - 5}" y1="{Y}" x2="{_ML}" y2="{Y}" stroke="#333333"/>'
        )
        out.append(
            f'<text x="{_ML - 8}" y="{Y}" text-anchor="end" dy="4" '
            f'font-family="monospace" font-size="11">{label}</text>'
        )
    out.append(
        f'<text x="{_WIDTH // 2}" y="{_HEIGHT - 10}" text-anchor="middle" '
        f'font-family="monospace" font-size="12">{sweep.axis_name}</text>'
    )
    legend_y = _MT + 14
    for label, color, pairs in series:
        pts = " ".join(f"{_fmt(px(x))},{_fmt(py(v))}" for x, v in pairs)
        if len(pairs) > 1:
            out.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
        for x, v in pairs:
            out.append(
                f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(v))}" r="3" '
                f'fill="{color}"/>'
            )
        out.append(
            f'<rect x="{_ML + pw - 150}" y="{legend_y - 9}" width="10" '
            f'height="10" fill="{color}"/>'
        )
        out.append(
            f'<text x="{_ML + pw - 136}" y="{legend_y}" font-family="monospace" '
            f'font-size="11">{label}</text>'
        )
        legend_y += 16
    out.append("</svg>")
    return "\n".join(out) + "\n"

