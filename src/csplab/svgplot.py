"""Self-contained SVG line charts for sweep results.

The files are assembled from the sweep data with fixed formatting, so
identical input produces byte-identical output (no timestamps, no ids, no
library-version drift).  Every element goes through one writer, _element,
which keeps attributes in call order and escapes every text node.  Points
are plotted in axis order, whatever order the sweep lists them in.
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
    """Five evenly spaced values from lo to hi, lo + i (hi - lo) / 4, computed
    in halves so that a range wider than the largest float stays finite;
    halving is exact above the subnormals, so any other range keeps the
    direct formula's bits."""
    step = (hi / 2 - lo / 2) / 4
    return [2 * (lo / 2 + i * step) for i in range(5)]


def _span(values) -> tuple[float, float]:
    """An axis range lo < hi: the values' min and max, widened by 0.5 each
    way when they are equal, or by one float each way where 0.5 is below
    their rounding (1e16 - 0.5 == 1e16)."""
    lo, hi = min(values), max(values)
    if hi == lo:
        lo, hi = lo - 0.5, hi + 0.5
    if hi == lo:
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    return lo, hi


def _element(tag: str, text: str | None = None, **attrs) -> str:
    """One element: attributes in call order with '_' in a name written as
    '-'; self-closing without text, the text escaped otherwise."""
    head = f"<{tag}" + "".join(f' {k.replace("_", "-")}="{v}"' for k, v in attrs.items())
    if text is None:
        return head + "/>"
    return f"{head}>{html.escape(text, quote=False)}</{tag}>"


def _label(x, y, size: int, text: str, **attrs) -> str:
    """A monospace text label; anchor and offset attrs precede the font."""
    return _element("text", text, x=x, y=y, **attrs, font_family="monospace",
                    font_size=size)


def render_svg(sweep, log_y: bool = False, title: str | None = None) -> str:
    """Render a SweepResult as SVG text: empirical mean/max error and the
    bound curve (when the sweep carried one) against the axis values.
    Values that are not finite, and with log_y nonpositive values, are
    dropped from the plot."""
    # a config may list its axis values in any order; plot them ascending
    points = sorted((p for p in sweep.points if not math.isnan(p.mean_error)),
                    key=lambda p: p.axis_value)
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
            if v is not None and math.isfinite(float(v))
            and (not log_y or float(v) > 0)
        ]
        if pairs:
            series.append((label, color, pairs))
    if not series:
        raise ValueError("nothing to plot (log scale dropped every value)")

    x_lo, x_hi = _span(xs)
    y_lo, y_hi = _span([v for _, _, pairs in series for _, v in pairs])
    pw = _WIDTH - _ML - _MR
    ph = _HEIGHT - _MT - _MB

    # offsets and widths in halves, as in _ticks
    def px(x: float) -> str:
        return _fmt(_ML + (x / 2 - x_lo / 2) / (x_hi / 2 - x_lo / 2) * pw)

    def py(v: float) -> str:
        return _fmt(_MT + (y_hi / 2 - v / 2) / (y_hi / 2 - y_lo / 2) * ph)

    out = [
        _element("rect", width=_WIDTH, height=_HEIGHT, fill="white"),
        _element("rect", x=_ML, y=_MT, width=pw, height=ph, fill="none",
                 stroke="#333333", stroke_width=1),
    ]
    if title:
        out.append(_label(_WIDTH // 2, _MT - 12, 13, title, text_anchor="middle"))
    for x in _ticks(x_lo, x_hi):
        out.append(_element("line", x1=px(x), y1=_MT + ph, x2=px(x),
                            y2=_MT + ph + 5, stroke="#333333"))
        out.append(_label(px(x), _MT + ph + 18, 11, _fmt(x), text_anchor="middle"))
    for yv in _ticks(y_lo, y_hi):
        out.append(_element("line", x1=_ML - 5, y1=py(yv), x2=_ML, y2=py(yv),
                            stroke="#333333"))
        out.append(_label(_ML - 8, py(yv), 11, _fmt(10.0**yv if log_y else yv),
                          text_anchor="end", dy=4))
    out.append(_label(_WIDTH // 2, _HEIGHT - 10, 12, sweep.axis_name,
                      text_anchor="middle"))
    for i, (label, color, pairs) in enumerate(series):
        legend_y = _MT + 14 + 16 * i
        if len(pairs) > 1:
            out.append(_element(
                "polyline", points=" ".join(f"{px(x)},{py(v)}" for x, v in pairs),
                fill="none", stroke=color, stroke_width=1.5))
        out.extend(_element("circle", cx=px(x), cy=py(v), r=3, fill=color)
                   for x, v in pairs)
        out.append(_element("rect", x=_ML + pw - 150, y=legend_y - 9, width=10,
                            height=10, fill=color))
        out.append(_label(_ML + pw - 136, legend_y, 11, label))
    root = _element("svg", xmlns="http://www.w3.org/2000/svg", width=_WIDTH,
                    height=_HEIGHT, viewBox=f"0 0 {_WIDTH} {_HEIGHT}")
    # the root element encloses the others: its self-closing "/>" becomes ">"
    return "\n".join([root.removesuffix("/>") + ">", *out, "</svg>\n"])
