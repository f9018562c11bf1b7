"""Self-contained SVG line plots (polyline + axis primitives, no dependencies).

Plots are reproduction aids for the sweep output, not the product: content is
deterministic for a given curve, and emission never affects CSV data.  The
one plot is the sweep's: risk lower bounds against n, at most three series
(the two bound families and the oracle risk), one palette colour each.
"""

from __future__ import annotations

import math

__all__ = ["render_line_plot"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c")

_WIDTH = 720
_HEIGHT = 480
_MARGIN_L = 72
_MARGIN_R = 24
_MARGIN_T = 40
_MARGIN_B = 48


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _line(x1, y1, x2, y2, stroke: str, width: float) -> str:
    ends = f'x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}"'
    return f'<line {ends} stroke="{stroke}" stroke-width="{width}"/>'


def _text(x, y, size: int, body, attrs: str = "") -> str:
    """A sans-serif label; ``attrs``, if any, ends in a space."""
    font = f'font-family="sans-serif" font-size="{size}"'
    return f'<text x="{x}" y="{y}" {attrs}{font}>{body}</text>'


def render_line_plot(
    xs: list[int],
    series: list[tuple[str, list[float | None]]],
    *,
    title: str,
) -> str:
    """Render up to three named curves of risk lower bounds over integer n
    values on a log-scaled y axis.

    Non-positive or missing points are dropped from their polyline (they have
    no log-scale position); a series with no positive points is legended but
    not drawn.
    """
    if not xs:
        raise ValueError("no x values to plot")
    positive = [v for _, vals in series for v in vals if v is not None and v > 0.0]
    if not positive:
        raise ValueError("no positive values to plot")
    lo_exp = math.floor(math.log10(min(positive)))
    hi_exp = math.ceil(math.log10(max(positive)))
    if hi_exp == lo_exp:
        hi_exp += 1

    x_lo, x_hi = min(xs), max(xs)
    span_x = max(1, x_hi - x_lo)
    # The plot area's edges.
    left, right = _MARGIN_L, _WIDTH - _MARGIN_R
    top, bottom = _MARGIN_T, _HEIGHT - _MARGIN_B
    middle = 'text-anchor="middle" '

    def px(x: float) -> float:
        return left + (x - x_lo) / span_x * (right - left)

    def py(v: float) -> float:
        frac = (math.log10(v) - lo_exp) / (hi_exp - lo_exp)
        return top + (1.0 - frac) * (bottom - top)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        _text(_WIDTH // 2, 22, 14, title, middle),
    ]

    # Decade gridlines and y tick labels.
    for exp in range(lo_exp, hi_exp + 1):
        y = py(10.0**exp)
        parts.append(_line(left, _fmt(y), right, _fmt(y), "#dddddd", 1))
        parts.append(_text(left - 8, _fmt(y + 4), 11, f"1e{exp}", 'text-anchor="end" '))

    # x ticks at up to eight integers.
    step = max(1, span_x // 8)
    parts += (_text(_fmt(px(x)), bottom + 18, 11, x, middle) for x in range(x_lo, x_hi + 1, step))

    # Axes, and their labels; the y label is rotated about its anchor.
    parts += [
        _line(left, top, left, bottom, "black", 1),
        _line(left, bottom, right, bottom, "black", 1),
        _text(_WIDTH // 2, _HEIGHT - 10, 12, "n", middle),
        f'<text x="16" y="{_HEIGHT // 2}" {middle}font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {_HEIGHT // 2})">risk lower bound</text>',
    ]

    for idx, (name, vals) in enumerate(series):
        color = _PALETTE[idx]
        points = " ".join(
            f"{_fmt(px(x))},{_fmt(py(v))}"
            for x, v in zip(xs, vals)
            if v is not None and v > 0.0
        )
        if points:
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
            )
        legend_y = top + 16 * idx + 8
        parts.append(_line(_WIDTH - 190, legend_y, _WIDTH - 166, legend_y, color, 1.5))
        parts.append(_text(_WIDTH - 160, legend_y + 4, 11, name))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
