"""Synthetic MC-Dropout sample generation with known ground truth.

Scenes are the test oracle for the rest of the library: every detection
carries a known instance label, so clustering recovery, statistics and
evaluation can be checked against the generating truth.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence, Tuple

import numpy as np

from .evaluation import GroundTruthInstance
from .ingest import _INT, _OBJECT, _REAL, _STR, ParseError, _array, _scalar, json_document
from .model import SampleSet, _check_box, _check_pixels, _double, rasterize_box, rle_encode

if TYPE_CHECKING:
    from .calibration import CalibrationSet

__all__ = [
    "MAX_DETECTIONS",
    "InstanceSpec",
    "SceneSpec",
    "generate",
    "generate_calibration_records",
    "adjusted_rand_index",
    "scene_spec_from_json",
    "scene_spec_to_json",
]

_SHAPES = ("box", "ellipse", "none")
# Repetitions x instances a scene may draw: generate holds every detection
# (and its mask runs) in memory before it writes any.
MAX_DETECTIONS = 1 << 20


@dataclass(frozen=True)
class InstanceSpec:
    true_box: Tuple[float, float, float, float]  # (x1, y1, x2, y2)
    true_class: int                 # foreground class id, >= 1
    shape: str = "ellipse"          # "box", "ellipse", or "none" (no masks emitted)
    box_jitter_sigma: float = 0.0   # Gaussian noise per box edge, pixels
    class_confusion: float = 0.0    # score mass leaked away from the true class
    mask_noise: float = 0.0         # per-pixel flip probability near the contour
    miss_rate: float = 0.0          # probability a repetition omits the instance

    def __post_init__(self):
        _check_box(self.true_box)
        if self.true_class < 1:
            raise ValueError(f"true_class must be >= 1, got {self.true_class}")
        if self.shape not in _SHAPES:
            raise ValueError(f"shape must be one of {_SHAPES}, got {self.shape!r}")
        for name in ("class_confusion", "mask_noise", "miss_rate"):
            v = _double(getattr(self, name))
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        sigma = _double(self.box_jitter_sigma)
        if not 0.0 <= sigma < np.inf:
            raise ValueError(f"box_jitter_sigma must be in [0, inf), got {sigma}")


@dataclass(frozen=True)
class SceneSpec:
    image_id: str
    height: int
    width: int
    num_classes: int
    n_repetitions: int
    instances: Tuple[InstanceSpec, ...]
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "instances", tuple(self.instances))
        if self.height < 1 or self.width < 1:
            raise ValueError(f"height and width must be >= 1, got {self.height} x {self.width}")
        _check_pixels(self.height, self.width)
        if self.num_classes < 1:
            raise ValueError(f"num_classes must be >= 1, got {self.num_classes}")
        if self.n_repetitions < 1:
            raise ValueError(f"n_repetitions must be >= 1, got {self.n_repetitions}")
        if self.n_repetitions * len(self.instances) > MAX_DETECTIONS:
            raise ValueError(
                f"{self.n_repetitions} repetitions x {len(self.instances)} instances exceed "
                f"the limit of {MAX_DETECTIONS} detections"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for inst in self.instances:
            if inst.true_class > self.num_classes:
                raise ValueError(
                    f"true_class {inst.true_class} exceeds num_classes {self.num_classes}"
                )


def _render_shape(box: Sequence[float], shape: str, height: int, width: int) -> np.ndarray:
    if shape == "box":
        return rasterize_box(box, height, width)
    cols = np.arange(width) + 0.5
    rows = np.arange(height) + 0.5
    x1, y1, x2, y2 = box
    cx, cy = (x1 + x2) / 2.0, (y1 + y2) / 2.0
    ax, ay = max((x2 - x1) / 2.0, 1e-9), max((y2 - y1) / 2.0, 1e-9)
    return ((cols - cx) / ax)[None, :] ** 2 + ((rows - cy) / ay)[:, None] ** 2 <= 1.0


def _dilate(m: np.ndarray) -> np.ndarray:
    out = m.copy()
    out[1:, :] |= m[:-1, :]
    out[:-1, :] |= m[1:, :]
    out[:, 1:] |= m[:, :-1]
    out[:, :-1] |= m[:, 1:]
    return out


def _erode(m: np.ndarray) -> np.ndarray:
    return ~_dilate(~m)


def _contour_band(m: np.ndarray, radius: int = 2) -> np.ndarray:
    grown, shrunk = m, m
    for _ in range(radius):
        grown = _dilate(grown)
        shrunk = _erode(shrunk)
    return grown & ~shrunk


def _jitter_box(
    box: Sequence[float], sigma: float, width: int, height: int, rng: np.random.Generator
) -> Tuple[float, float, float, float]:
    """A jittered copy of the box that keeps positive area inside the image,
    or after 100 tries the box itself, which SampleSet clamps (or rejects)."""
    for _ in range(100):
        noise = rng.normal(0.0, sigma, 4) if sigma > 0 else (0.0,) * 4
        x1, y1, x2, y2 = (min(max(v + d, 0.0), float(limit))
                          for v, d, limit in zip(box, noise, (width, height) * 2))
        if x1 < x2 and y1 < y2:
            return x1, y1, x2, y2
    return tuple(box)


def _sample_scores(
    inst: InstanceSpec, num_classes: int, rng: np.random.Generator
) -> np.ndarray:
    # Half the leaked mass goes to background (it shows up among the top
    # scores of every instance), the rest spreads over the other classes.
    scores = np.zeros(num_classes + 1)
    leak = inst.class_confusion
    scores[inst.true_class] = 1.0 - leak
    others = [c for c in range(1, num_classes + 1) if c != inst.true_class]
    if others:
        scores[0] = 0.5 * leak
        if leak > 0.0:
            scores[others] = 0.5 * leak * rng.dirichlet(np.ones(len(others)))
    else:
        scores[0] = leak
    return scores


def generate(
    spec: SceneSpec,
) -> Tuple[SampleSet, List[int], List[GroundTruthInstance]]:
    """Sample a scene: returns (sample set, per-detection true labels, GT).

    Per repetition and instance, with probability 1 - miss_rate, emits one
    detection with jittered box edges, a score vector concentrated on the
    true class, and the true shape with contour-band pixel flips.
    Deterministic given the spec (seed included).
    """
    rng = np.random.default_rng(spec.seed)
    shapes = [
        None
        if inst.shape == "none"
        else _render_shape(inst.true_box, inst.shape, spec.height, spec.width)
        for inst in spec.instances
    ]
    # Flat indices of each shape's contour band, where mask noise flips pixels.
    bands = [None if s is None else np.flatnonzero(_contour_band(s)) for s in shapes]

    repetitions, boxes, scores, masks, labels = [], [], [], [], []
    for rep in range(spec.n_repetitions):
        for idx, inst in enumerate(spec.instances):
            if rng.random() < inst.miss_rate:
                continue
            boxes.append(
                _jitter_box(inst.true_box, inst.box_jitter_sigma, spec.width, spec.height, rng)
            )
            scores.append(_sample_scores(inst, spec.num_classes, rng))
            mask = None
            if shapes[idx] is not None:
                grid = shapes[idx]
                if inst.mask_noise > 0.0:
                    grid = grid.copy()
                    flips = bands[idx][rng.random(bands[idx].size) < inst.mask_noise]
                    flat = grid.reshape(-1)
                    flat[flips] = ~flat[flips]
                mask = rle_encode(grid)
            repetitions.append(rep)
            masks.append(mask)
            labels.append(idx)

    sample_set = SampleSet(
        image_id=spec.image_id,
        height=spec.height,
        width=spec.width,
        n_repetitions=spec.n_repetitions,
        boxes=np.reshape(boxes, (-1, 4)),
        scores=np.reshape(scores, (-1, spec.num_classes + 1)),
        repetition=repetitions,
        masks=masks,
    )
    gts = [
        GroundTruthInstance(
            image_id=spec.image_id,
            bbox=inst.true_box,
            class_id=inst.true_class,
            mask=None if shapes[i] is None else rle_encode(shapes[i]),
        )
        for i, inst in enumerate(spec.instances)
    ]
    return sample_set, labels, gts


def generate_calibration_records(
    n: int, true_temperature: float, k: int, seed: int = 0
) -> CalibrationSet:
    """Records whose NLL-optimal temperature is the given one.

    Base logits are drawn calibrated (labels sampled from their own
    softmax), then multiplied by the temperature; fitting on the output
    recovers approximately that temperature.
    """
    from .calibration import CalibrationSet, softmax  # a scene never needs them

    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if true_temperature <= 0:
        raise ValueError(f"true_temperature must be positive, got {true_temperature}")
    rng = np.random.default_rng(seed)
    base = rng.normal(0.0, 1.5, size=(n, k + 1))
    p = softmax(base)
    u = rng.random(n)
    y = (np.cumsum(p, axis=1) < u[:, None]).sum(axis=1)
    return CalibrationSet(base * true_temperature, y)


def adjusted_rand_index(a: Sequence[int], b: Sequence[int]) -> float:
    """Chance-corrected agreement between two labelings of the same items."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"label shapes differ: {a.shape} vs {b.shape}")
    n = a.size
    if n == 0:
        raise ValueError("empty labelings")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_cells = comb2(table).sum()
    sum_rows = comb2(table.sum(axis=1)).sum()
    sum_cols = comb2(table.sum(axis=0)).sum()
    total = comb2(n)
    expected = sum_rows * sum_cols / total if total > 0 else 0.0
    max_index = (sum_rows + sum_cols) / 2.0
    if max_index == expected:
        return 1.0
    return float((sum_cells - expected) / (max_index - expected))


def scene_spec_to_json(spec: SceneSpec) -> str:
    doc = {
        "image_id": spec.image_id,
        "height": spec.height,
        "width": spec.width,
        "num_classes": spec.num_classes,
        "n_repetitions": spec.n_repetitions,
        "seed": spec.seed,
        "instances": [
            {
                "box": list(inst.true_box),
                "class_id": inst.true_class,
                "shape": inst.shape,
                "box_jitter_sigma": inst.box_jitter_sigma,
                "class_confusion": inst.class_confusion,
                "mask_noise": inst.mask_noise,
                "miss_rate": inst.miss_rate,
            }
            for inst in spec.instances
        ],
    }
    return json_document(doc)


_SPEC_KEYS = ("image_id", "height", "width", "num_classes", "n_repetitions", "seed", "instances")
_INSTANCE_KEYS = (
    "box", "class_id", "shape", "box_jitter_sigma", "class_confusion", "mask_noise", "miss_rate",
)


def _known_keys(obj: dict, keys: Tuple[str, ...], where: str) -> None:
    unknown = [key for key in obj if key not in keys]
    if unknown:
        raise ParseError(None, f"unknown {where} key {unknown[0]!r}; known keys are {list(keys)}")


def _optional(obj: dict, key: str, kind: tuple, default):
    return _scalar(obj, key, kind, None) if key in obj else default


def scene_spec_from_json(text: str) -> SceneSpec:
    """Read a scene spec, its values typed as the sample reader types its
    fields (README lists them); a bad value or an unknown key is a ParseError
    naming it."""
    doc = json.loads(text)
    if type(doc) is not dict:
        raise ParseError(None, f"scene spec must be a JSON object, got {type(doc).__name__}")
    _known_keys(doc, _SPEC_KEYS, "scene spec")
    for inst in _array(doc, "instances", _OBJECT, None):
        _known_keys(inst, _INSTANCE_KEYS, "instance")
    instances = tuple(
        InstanceSpec(
            true_box=tuple(map(_double, _array(inst, "box", _REAL, None, 4))),
            true_class=_scalar(inst, "class_id", _INT, None),
            shape=_optional(inst, "shape", _STR, "ellipse"),
            **{
                key: _double(_optional(inst, key, _REAL, 0.0))
                for key in ("box_jitter_sigma", "class_confusion", "mask_noise", "miss_rate")
            },
        )
        for inst in doc["instances"]
    )
    return SceneSpec(
        image_id=_scalar(doc, "image_id", _STR, None),
        height=_scalar(doc, "height", _INT, None),
        width=_scalar(doc, "width", _INT, None),
        num_classes=_scalar(doc, "num_classes", _INT, None),
        n_repetitions=_scalar(doc, "n_repetitions", _INT, None),
        instances=instances,
        seed=_optional(doc, "seed", _INT, 0),
    )
