"""Self-contained SVG line plots (polyline + axis primitives, no dependencies).

Plots are reproduction aids for the sweep output, not the product: content is
deterministic for a given curve, and emission never affects CSV data.
"""

from __future__ import annotations

import math

__all__ = ["render_line_plot"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")

_WIDTH = 720
_HEIGHT = 480
_MARGIN_L = 72
_MARGIN_R = 24
_MARGIN_T = 40
_MARGIN_B = 48


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def render_line_plot(
    xs: list[int],
    series: list[tuple[str, list[float | None]]],
    *,
    title: str,
    x_label: str,
    y_label: str,
) -> str:
    """Render named curves over integer x values on a log-scaled y axis.

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
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / span_x * plot_w

    def py(v: float) -> float:
        frac = (math.log10(v) - lo_exp) / (hi_exp - lo_exp)
        return _MARGIN_T + (1.0 - frac) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.0f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]

    # Decade gridlines and y tick labels.
    for exp in range(lo_exp, hi_exp + 1):
        y = py(10.0**exp)
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{_fmt(y)}" x2="{_WIDTH - _MARGIN_R}" y2="{_fmt(y)}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">1e{exp}</text>'
        )

    # x ticks at up to eight integers.
    step = max(1, span_x // 8)
    for x in range(x_lo, x_hi + 1, step):
        parts.append(
            f'<text x="{_fmt(px(x))}" y="{_HEIGHT - _MARGIN_B + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{x}</text>'
        )

    # Axes.
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
        f'y2="{_HEIGHT - _MARGIN_B}" stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{_HEIGHT - _MARGIN_B}" x2="{_WIDTH - _MARGIN_R}" '
        f'y2="{_HEIGHT - _MARGIN_B}" stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{_WIDTH / 2:.0f}" y="{_HEIGHT - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{_HEIGHT / 2:.0f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="12" transform="rotate(-90 16 {_HEIGHT / 2:.0f})">{y_label}</text>'
    )

    for idx, (name, vals) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(
            f"{_fmt(px(x))},{_fmt(py(v))}"
            for x, v in zip(xs, vals)
            if v is not None and v > 0.0
        )
        if points:
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
            )
        legend_y = _MARGIN_T + 16 * idx + 8
        parts.append(
            f'<line x1="{_WIDTH - 190}" y1="{legend_y}" x2="{_WIDTH - 166}" y2="{legend_y}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_WIDTH - 160}" y="{legend_y + 4}" font-family="sans-serif" '
            f'font-size="11">{name}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
