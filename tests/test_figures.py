import inspect
import math

import numpy as np
import pytest

from dropuq import figures
from dropuq.figures import _rect, _svg, heatmap_figure


def reference_heatmap(values, max_cols=128):
    """The block-by-block rendering: one mean per block, empty blocks included."""
    arr = np.asarray(values, dtype=np.float64)
    h, w = arr.shape
    step = max(1, math.ceil(w / max_cols))
    rows = math.ceil(h / step)
    cols = math.ceil(w / step)
    cell = 4.0
    body = [_rect(0, 0, cols * cell, rows * cell, fill="white")]
    for i in range(rows):
        for j in range(cols):
            block = arr[i * step : (i + 1) * step, j * step : (j + 1) * step]
            v = float(block.mean())
            if v <= 0.0:
                continue
            g = int(round(255 * (1.0 - v)))
            body.append(
                _rect(j * cell, i * cell, cell, cell, fill=f"rgb(255,{g},{g})")
            )
    return _svg(cols * cell, rows * cell, body)


SHAPES = [(1, 1), (7, 5), (30, 129), (33, 257), (50, 300), (64, 640), (97, 385)]


class TestHeatmapFigure:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_random_arrays(self, shape):
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        arr = rng.random(shape)
        assert heatmap_figure(arr) == reference_heatmap(arr)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_sparse_arrays(self, shape):
        rng = np.random.default_rng(shape[0] + shape[1])
        arr = np.where(rng.random(shape) < 0.02, rng.random(shape), 0.0)
        assert heatmap_figure(arr) == reference_heatmap(arr)

    def test_mean_mask_like(self):
        yy, xx = np.mgrid[0:120, 0:170]
        arr = np.clip(1.0 - ((yy - 60) ** 2 + (xx - 80) ** 2) / 40.0**2, 0.0, 1.0)
        assert heatmap_figure(arr) == reference_heatmap(arr)

    def test_small_max_cols(self, monkeypatch):
        rng = np.random.default_rng(1)
        arr = np.where(rng.random((41, 59)) < 0.1, rng.random((41, 59)), 0.0)
        for max_cols in (1, 3, 8):
            monkeypatch.setattr(figures, "_MAX_COLS", max_cols)
            assert heatmap_figure(arr) == reference_heatmap(arr, max_cols)

    def test_signature_pinned(self):
        assert list(inspect.signature(heatmap_figure).parameters) == ["values"]

    def test_all_zero_is_blank(self):
        svg = heatmap_figure(np.zeros((20, 30)))
        assert svg == reference_heatmap(np.zeros((20, 30)))
        assert svg.count("<rect") == 1
