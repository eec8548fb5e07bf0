"""Deterministic SVG figures for cluster uncertainty reports.

Hand-rolled SVG with fixed float formatting and no timestamps, so identical
inputs render byte-identical files that can be diffed in regression tests.
Heatmaps additionally ship as PGM (see report.write_pgm) for bit-exact
pixel checks; the SVG variant is a block-averaged preview.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:
    from .calibration import ReliabilityBin
    from .report import ClusterReport, KdeCurve

__all__ = [
    "box_figure",
    "class_figure",
    "heatmap_figure",
    "kde_figure",
    "reliability_figure",
]

_MARGIN = 40.0
_MAX_COLS = 128  # heatmap previews are block-averaged to at most this many columns


def _f(x: float) -> str:
    return f"{x:.6g}"


def _svg(width: float, height: float, body: List[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(width)}" '
        f'height="{_f(height)}" viewBox="0 0 {_f(width)} {_f(height)}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def _line(x1, y1, x2, y2, stroke, width=1.0, dash: Optional[str] = None) -> str:
    d = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<line x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}" '
        f'stroke="{stroke}" stroke-width="{_f(width)}"{d}/>'
    )


def _rect(x, y, w, h, fill="none", stroke="none", stroke_width=1.0) -> str:
    return (
        f'<rect x="{_f(x)}" y="{_f(y)}" width="{_f(w)}" height="{_f(h)}" '
        f'fill="{fill}" stroke="{stroke}" stroke-width="{_f(stroke_width)}"/>'
    )


def _circle(cx, cy, r, fill) -> str:
    return f'<circle cx="{_f(cx)}" cy="{_f(cy)}" r="{_f(r)}" fill="{fill}"/>'


def _text(x, y, s, size=11.0, anchor="middle") -> str:
    return (
        f'<text x="{_f(x)}" y="{_f(y)}" font-family="monospace" '
        f'font-size="{_f(size)}" text-anchor="{anchor}">{s}</text>'
    )


def _polyline(points: Sequence[Tuple[float, float]], stroke: str, width=1.5) -> str:
    pts = " ".join(f"{_f(x)},{_f(y)}" for x, y in points)
    return (
        f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
        f'stroke-width="{_f(width)}"/>'
    )


def box_figure(r: ClusterReport, image_width: int, image_height: int) -> str:
    """Mean box with per-edge std whiskers and member center dots."""
    body = [_rect(0, 0, image_width, image_height, fill="white", stroke="#ccc")]
    x1, y1, x2, y2 = r.box_stats.mean_box
    sx1, sy1, sx2, sy2 = r.box_stats.edge_std
    body.append(_rect(x1, y1, x2 - x1, y2 - y1, stroke="#1f77b4", stroke_width=2.0))
    mx, my = (x1 + x2) / 2.0, (y1 + y2) / 2.0
    # one whisker per edge, spanning +-1 std around the edge position
    body.append(_line(x1 - sx1, my, x1 + sx1, my, "red", 2.0))
    body.append(_line(x2 - sx2, my, x2 + sx2, my, "red", 2.0))
    body.append(_line(mx, y1 - sy1, mx, y1 + sy1, "red", 2.0))
    body.append(_line(mx, y2 - sy2, mx, y2 + sy2, "red", 2.0))
    for cx, cy in r.box_stats.centers:
        body.append(_circle(cx, cy, 1.5, "red"))
    body.append(_line(mx - 4, my, mx + 4, my, "#444", 1.0))
    body.append(_line(mx, my - 4, mx, my + 4, "#444", 1.0))
    return _svg(image_width, image_height, body)


def class_figure(r: ClusterReport) -> str:
    """Mean class score with one-std whiskers per class, background included."""
    means = r.class_stats.mean_scores
    stds = r.class_stats.std_scores
    k1 = len(means)
    seg = 44.0
    width = _MARGIN * 2 + seg * k1
    height = 260.0
    y0, y1 = height - _MARGIN, _MARGIN

    def ys(v: float) -> float:
        return y0 + (y1 - y0) * v

    body = [_rect(0, 0, width, height, fill="white")]
    body.append(_line(_MARGIN, y0, width - _MARGIN, y0, "#444"))
    body.append(_line(_MARGIN, y0, _MARGIN, y1, "#444"))
    for tick in (0.0, 0.5, 1.0):
        body.append(_line(_MARGIN - 4, ys(tick), _MARGIN, ys(tick), "#444"))
        body.append(_text(_MARGIN - 8, ys(tick) + 4, _f(tick), anchor="end"))
    for i in range(k1):
        x = _MARGIN + seg * (i + 0.5)
        lo = ys(max(means[i] - stds[i], 0.0))
        hi = ys(min(means[i] + stds[i], 1.0))
        body.append(_line(x, lo, x, hi, "#1f77b4", 2.0))
        body.append(_circle(x, ys(means[i]), 3.0, "red"))
        label = "bg" if i == 0 else str(i)
        body.append(_text(x, y0 + 16, label))
    return _svg(width, height, body)


def heatmap_figure(values: np.ndarray) -> str:
    """White-to-red heatmap of a [0, 1] array, block-averaged to _MAX_COLS."""
    arr = np.asarray(values, dtype=np.float64)
    h, w = arr.shape
    step = max(1, math.ceil(w / _MAX_COLS))
    rows = math.ceil(h / step)
    cols = math.ceil(w / step)
    cell = 4.0
    body = [_rect(0, 0, cols * cell, rows * cell, fill="white")]
    # A block whose mean is > 0 has a pixel > 0, so blocks without one are
    # skipped. The test runs once on a zero-padded boolean copy, reduced
    # over the rows of each block and then over its columns: contiguous
    # reductions, unlike one over both axes at once.
    positive = np.zeros((rows * step, cols * step), dtype=bool)
    np.greater(arr, 0.0, out=positive[:h, :w])
    lit = positive.reshape(rows, step, cols * step).any(axis=1)
    lit = lit.reshape(rows, cols, step).any(axis=2)
    for i, j in np.argwhere(lit).tolist():
        block = arr[i * step : (i + 1) * step, j * step : (j + 1) * step]
        v = float(block.mean())
        if v <= 0.0:
            continue
        g = int(round(255 * (1.0 - v)))
        body.append(_rect(j * cell, i * cell, cell, cell, fill=f"rgb(255,{g},{g})"))
    return _svg(cols * cell, rows * cell, body)


def kde_figure(box_kde: Optional[KdeCurve], mask_kde: Optional[KdeCurve]) -> str:
    """Box (blue) and mask (orange) IoU densities with mean and one-std marks.

    The mean is the coarse-dashed vertical line, the fine-dashed lines sit
    one standard deviation to each side.
    """
    width, height = 480.0, 300.0
    y0, y1 = height - _MARGIN, _MARGIN
    curves = [c for c in (box_kde, mask_kde) if c is not None]
    body = [_rect(0, 0, width, height, fill="white")]
    body.append(_line(_MARGIN, y0, width - _MARGIN, y0, "#444"))
    if not curves:
        body.append(_text(width / 2, height / 2, "degenerate samples: no density"))
        return _svg(width, height, body)
    lo = min(c.grid[0] for c in curves)
    hi = max(c.grid[-1] for c in curves)
    peak = max(max(c.density) for c in curves)

    def xs(v: float) -> float:
        return _MARGIN + (width - 2 * _MARGIN) * (v - lo) / (hi - lo)

    def ys(v: float) -> float:
        return y0 + (y1 - y0) * (v / peak if peak > 0 else 0.0)

    for curve, color in ((box_kde, "#1f77b4"), (mask_kde, "#ff7f0e")):
        if curve is None:
            continue
        body.append(
            _polyline([(xs(g), ys(d)) for g, d in zip(curve.grid, curve.density)], color)
        )
        m, s = curve.sample_mean, curve.sample_std
        body.append(_line(xs(m), y0, xs(m), y1, color, 1.5, dash="8,4"))
        for edge in (m - s, m + s):
            if lo <= edge <= hi:
                body.append(_line(xs(edge), y0, xs(edge), y1, color, 1.0, dash="2,3"))
    for tick in (lo, hi):
        body.append(_text(xs(tick), y0 + 16, _f(tick)))
    return _svg(width, height, body)


def reliability_figure(bins: Sequence[ReliabilityBin], title: str) -> str:
    """Confidence-vs-accuracy bars with the identity diagonal."""
    width, height = 360.0, 360.0
    y0, y1 = height - _MARGIN, _MARGIN
    x0, x1 = _MARGIN, width - _MARGIN

    def xs(v: float) -> float:
        return x0 + (x1 - x0) * v

    def ys(v: float) -> float:
        return y0 + (y1 - y0) * v

    body = [_rect(0, 0, width, height, fill="white")]
    body.append(_text(width / 2, _MARGIN / 2 + 4, title))
    for b in bins:
        if b.count == 0:
            continue
        body.append(
            _rect(
                xs(b.lo),
                ys(b.accuracy),
                xs(b.hi) - xs(b.lo),
                y0 - ys(b.accuracy),
                fill="#9ecae1",
                stroke="#444",
                stroke_width=0.5,
            )
        )
    body.append(_line(xs(0), ys(0), xs(1), ys(1), "red", 1.5, dash="6,3"))
    body.append(_line(x0, y0, x1, y0, "#444"))
    body.append(_line(x0, y0, x0, y1, "#444"))
    for tick in (0.0, 0.5, 1.0):
        body.append(_text(xs(tick), y0 + 16, _f(tick)))
        body.append(_text(x0 - 8, ys(tick) + 4, _f(tick), anchor="end"))
    return _svg(width, height, body)
