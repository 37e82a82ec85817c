"""Minimal SVG scatter plots. Advisory output only; the CSV files
written alongside are the machine-readable contract."""

from __future__ import annotations

import numpy as np

_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd")


def _scale(values, lo, hi, out_lo, out_hi):
    values = np.asarray(values, dtype=float)
    span = hi - lo
    if span <= 0:
        span = 1.0
    return out_lo + (values - lo) / span * (out_hi - out_lo)


def scatter_svg(series, title: str = "") -> str:
    """Render (label, x, y) series as a 640 x 480 SVG scatter plot.

    `series` is a list of (label, x-array, y-array) triples; each label
    gets its own color and a legend entry.
    """
    series = [(str(lbl), np.asarray(x, float), np.asarray(y, float))
              for lbl, x, y in series]
    xs = np.concatenate([x for _, x, _ in series]) if series else np.zeros(1)
    ys = np.concatenate([y for _, _, y in series]) if series else np.zeros(1)
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    width, height = 640, 480
    m = 48  # margin for axes and labels
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-size="14">{title}</text>',
        f'<line x1="{m}" y1="{height - m}" x2="{width - m}" '
        f'y2="{height - m}" stroke="black"/>',
        f'<line x1="{m}" y1="{m}" x2="{m}" y2="{height - m}" stroke="black"/>',
        f'<text x="{m}" y="{height - m + 16}" font-size="10">{x_lo:.4g}</text>',
        f'<text x="{width - m}" y="{height - m + 16}" text-anchor="end" '
        f'font-size="10">{x_hi:.4g}</text>',
        f'<text x="{m - 4}" y="{height - m}" text-anchor="end" '
        f'font-size="10">{y_lo:.4g}</text>',
        f'<text x="{m - 4}" y="{m}" text-anchor="end" '
        f'font-size="10">{y_hi:.4g}</text>',
    ]
    for i, (label, x, y) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        px = _scale(x, x_lo, x_hi, m, width - m)
        py = _scale(y, y_lo, y_hi, height - m, m)  # y grows upward on screen
        for j in range(px.size):
            parts.append(
                f'<circle cx="{px[j]:.2f}" cy="{py[j]:.2f}" r="2" '
                f'fill="{color}" fill-opacity="0.6"/>'
            )
        parts.append(
            f'<text x="{width - m}" y="{m + 14 * i}" text-anchor="end" '
            f'font-size="11" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

