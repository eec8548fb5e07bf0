"""Shared synthetic-scene builders for the test suite."""

import numpy as np

from dropuq.synth import InstanceSpec, SceneSpec

# grid anchors keep instance centers >= 140 px apart (>> 10 sigma for sigma <= 10)
_SPACING = 140


def separated_scene(
    seed: int,
    n_instances: int,
    sigma: float = 3.0,
    n_repetitions: int = 100,
    num_classes: int = 3,
    shape: str = "none",
    class_confusion: float = 0.0,
    mask_noise: float = 0.0,
    miss_rate: float = 0.0,
    height: int = 640,
    width: int = 640,
    columns: int = 4,
) -> SceneSpec:
    """Scene with well-separated instances placed on a grid, row by row."""
    rng = np.random.default_rng(seed)
    instances = []
    for i in range(n_instances):
        cx, cy = 90 + _SPACING * (i % columns), 90 + _SPACING * (i // columns)
        w = rng.uniform(34, 70)
        h = rng.uniform(34, 70)
        instances.append(
            InstanceSpec(
                true_box=(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2),
                true_class=1 + (i % num_classes),
                shape=shape,
                box_jitter_sigma=sigma,
                class_confusion=class_confusion,
                mask_noise=mask_noise,
                miss_rate=miss_rate,
            )
        )
    return SceneSpec(
        image_id=f"scene{seed}",
        height=height,
        width=width,
        num_classes=num_classes,
        n_repetitions=n_repetitions,
        instances=tuple(instances),
        seed=seed * 7919 + 13,
    )


def overlapping_scene(
    seed: int,
    n_instances: int,
    sep_lo: float = 3.0,
    sep_hi: float = 5.0,
    sigma: float = 4.0,
    n_repetitions: int = 100,
) -> SceneSpec:
    """Moderate-overlap scene: nearest-neighbor center separation drawn in
    [sep_lo, sep_hi] * sigma, no pair closer than sep_lo * sigma."""
    rng = np.random.default_rng(seed)
    centers = [np.array([300.0, 300.0])]
    while len(centers) < n_instances:
        base = centers[rng.integers(len(centers))]
        step = rng.uniform(sep_lo, sep_hi) * sigma
        ang = rng.uniform(0.0, 2.0 * np.pi)
        cand = base + step * np.array([np.cos(ang), np.sin(ang)])
        if all(np.linalg.norm(cand - c) >= sep_lo * sigma for c in centers) and (
            60 < cand[0] < 540 and 60 < cand[1] < 540
        ):
            centers.append(cand)
    instances = []
    for i, c in enumerate(centers):
        w = rng.uniform(50, 70)
        h = rng.uniform(50, 70)
        instances.append(
            InstanceSpec(
                true_box=(c[0] - w / 2, c[1] - h / 2, c[0] + w / 2, c[1] + h / 2),
                true_class=1 + (i % 3),
                shape="none",
                box_jitter_sigma=sigma,
            )
        )
    return SceneSpec(
        image_id=f"overlap{seed}",
        height=600,
        width=600,
        num_classes=3,
        n_repetitions=n_repetitions,
        instances=tuple(instances),
        seed=seed * 31 + 7,
    )


def mixed_shape_scene(seed: int = 9) -> SceneSpec:
    """240 x 320 scene of 6 separated instances whose masks cycle through the
    shapes box, ellipse and none; 50 repetitions, each instance missed with
    probability 0.2, with mask noise 0.1 and class confusion 0.2."""
    rng = np.random.default_rng(seed)
    instances = []
    for i in range(6):
        cx, cy = 60 + 100 * (i % 3), 60 + 120 * (i // 3)
        w, h = rng.uniform(30, 50, 2)
        instances.append(
            InstanceSpec(
                true_box=(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2),
                true_class=1 + (i % 2),
                shape=("box", "ellipse", "none")[i % 3],
                box_jitter_sigma=2.0,
                class_confusion=0.2,
                mask_noise=0.1,
                miss_rate=0.2,
            )
        )
    return SceneSpec(
        image_id=f"mixed{seed}",
        height=240,
        width=320,
        num_classes=3,
        n_repetitions=50,
        instances=tuple(instances),
        seed=seed,
    )
