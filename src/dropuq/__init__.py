"""Per-instance epistemic uncertainty reports from MC-Dropout detection samples.

The library ingests N repeated detection predictions per image, groups them
into physical instances with a variational Bayesian Gaussian mixture (or
Ward-linkage agglomerative clustering), and derives per-instance box, class
and mask uncertainty statistics, calibration metrics, IoU-to-mean density
curves, and mAP@0.5 evaluation against ground truth.
"""

__version__ = "0.1.0"

from .model import SampleSet, box_ious, mask_ious, rasterize_box, rle_decode, rle_encode

__all__ = [
    "__version__",
    "SampleSet",
    "box_ious",
    "mask_ious",
    "rasterize_box",
    "rle_decode",
    "rle_encode",
]
