"""Softmax confidence, temperature scaling, reliability metrics, focal loss.

Temperature scaling divides logits by a single scalar fit on held-out
records by NLL minimization; it rescales every class confidence without
changing which class wins the argmax.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .ingest import ParseError, _jsonl_records
from .model import ScoreVector

__all__ = [
    "LogitVector",
    "CalibrationRecord",
    "ReliabilityBin",
    "ReliabilityDiagram",
    "softmax",
    "scaled_softmax",
    "negative_log_likelihood",
    "fit_temperature",
    "reliability",
    "mce",
    "ace",
    "focal_loss",
    "parse_calibration_records",
    "read_calibration_records",
    "serialize_calibration_records",
    "reliability_csv",
]

T_SEARCH_LO = 0.01
T_SEARCH_HI = 100.0


@dataclass(frozen=True)
class LogitVector:
    """Unconstrained pre-softmax class scores, index 0 = background."""

    logits: Tuple[float, ...]

    def __post_init__(self):
        logits = tuple(float(z) for z in self.logits)
        object.__setattr__(self, "logits", logits)
        if len(logits) < 2:
            raise ValueError("logit vector needs background plus >=1 class")
        if any(not math.isfinite(z) for z in logits):
            raise ValueError(f"logits must be finite, got {logits}")

    def __len__(self) -> int:
        return len(self.logits)


@dataclass(frozen=True)
class CalibrationRecord:
    logits: LogitVector
    true_class: int

    def __post_init__(self):
        if not 0 <= self.true_class < len(self.logits):
            raise ValueError(
                f"true_class {self.true_class} out of range for "
                f"{len(self.logits)} classes"
            )


@dataclass(frozen=True)
class ReliabilityBin:
    lo: float
    hi: float
    mean_confidence: Optional[float]  # None when the bin is empty
    accuracy: Optional[float]
    count: int


@dataclass(frozen=True)
class ReliabilityDiagram:
    bins: Tuple[ReliabilityBin, ...]
    num_bins: int


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax(z: LogitVector) -> ScoreVector:
    """Softmax with max-subtraction for overflow safety."""
    p = _softmax_rows(np.asarray(z.logits, dtype=np.float64))
    return ScoreVector(tuple(float(v) for v in p))


def scaled_softmax(z: LogitVector, temperature: float) -> ScoreVector:
    """Softmax of z / T. Preserves the argmax class for any T > 0."""
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    p = _softmax_rows(np.asarray(z.logits, dtype=np.float64) / temperature)
    return ScoreVector(tuple(float(v) for v in p))


def _records_arrays(records: Sequence[CalibrationRecord]) -> Tuple[np.ndarray, np.ndarray]:
    z = np.array([r.logits.logits for r in records], dtype=np.float64)
    y = np.array([r.true_class for r in records], dtype=np.int64)
    return z, y


def _nll(z: np.ndarray, y: np.ndarray, t: float) -> float:
    zt = z / t
    m = zt.max(axis=1)
    log_norm = m + np.log(np.exp(zt - m[:, None]).sum(axis=1))
    return float(np.sum(log_norm - zt[np.arange(len(y)), y]))


def negative_log_likelihood(
    records: Sequence[CalibrationRecord], temperature: float
) -> float:
    """Total NLL of the true classes under temperature-scaled softmax."""
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    return _nll(*_records_arrays(records), temperature)


def fit_temperature(records: Sequence[CalibrationRecord]) -> float:
    """Fit the scaling temperature by golden-section search on the NLL.

    Searches T in [0.01, 100] down to a bracket width of 1e-4. The result
    never yields a worse NLL than the unscaled T = 1 baseline.
    """
    if not records:
        raise ValueError("cannot fit temperature on empty records")
    z, y = _records_arrays(records)

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = T_SEARCH_LO, T_SEARCH_HI
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = _nll(z, y, c), _nll(z, y, d)
    while b - a > 1e-4:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = _nll(z, y, c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = _nll(z, y, d)
    t = (a + b) / 2.0
    # Never worsen the unscaled baseline.
    if _nll(z, y, 1.0) < _nll(z, y, t):
        return 1.0
    return t


def reliability(
    records: Sequence[CalibrationRecord], temperature: float = 1.0, num_bins: int = 10
) -> ReliabilityDiagram:
    """Bin records by top confidence into equal-width bins over [0, 1].

    Confidence is the maximum of the temperature-scaled softmax; a record
    counts as accurate when its argmax class equals the true class. The
    last bin is closed at 1.0.
    """
    if num_bins < 1:
        raise ValueError(f"num_bins must be >= 1, got {num_bins}")
    if records:
        z, y = _records_arrays(records)
        p = _softmax_rows(z / temperature)
        conf = p.max(axis=1)
        correct = p.argmax(axis=1) == y
        idx = np.minimum((conf * num_bins).astype(np.int64), num_bins - 1)
    else:
        conf = np.empty(0)
        correct = np.empty(0, dtype=bool)
        idx = np.empty(0, dtype=np.int64)

    bins = []
    for i in range(num_bins):
        member = idx == i
        count = int(member.sum())
        bins.append(
            ReliabilityBin(
                lo=i / num_bins,
                hi=(i + 1) / num_bins,
                mean_confidence=float(conf[member].mean()) if count else None,
                accuracy=float(correct[member].mean()) if count else None,
                count=count,
            )
        )
    return ReliabilityDiagram(bins=tuple(bins), num_bins=num_bins)


def _gaps(d: ReliabilityDiagram) -> List[float]:
    gaps = [
        abs(b.accuracy - b.mean_confidence) for b in d.bins if b.count > 0
    ]
    if not gaps:
        raise ValueError("all reliability bins are empty")
    return gaps


def mce(d: ReliabilityDiagram) -> float:
    """Maximum confidence-accuracy gap over non-empty bins."""
    return max(_gaps(d))


def ace(d: ReliabilityDiagram) -> float:
    """Mean confidence-accuracy gap over non-empty bins."""
    gaps = _gaps(d)
    return sum(gaps) / len(gaps)


def focal_loss(
    p: ScoreVector,
    true_class: int,
    alpha: Optional[Sequence[float]] = None,
    gamma: float = 2.0,
) -> float:
    """-alpha_t * (1 - p_t)^gamma * log(p_t) with p_t the true-class score.

    Evaluation only; with gamma = 0 and unit alpha this is cross-entropy.
    """
    if not 0 <= true_class < len(p):
        raise ValueError(f"true_class {true_class} out of range")
    if gamma < 0:
        raise ValueError(f"gamma must be non-negative, got {gamma}")
    if alpha is None:
        alpha_t = 1.0
    else:
        if len(alpha) != len(p):
            raise ValueError("alpha needs one weight per class")
        if any(a <= 0 for a in alpha):
            raise ValueError("alpha entries must be positive")
        alpha_t = float(alpha[true_class])
    p_t = p.scores[true_class]
    if p_t == 0.0:
        raise ValueError("true-class probability is 0: focal loss is infinite")
    return -alpha_t * (1.0 - p_t) ** gamma * math.log(p_t)


def parse_calibration_records(
    stream: Union[str, IO[str], Iterable[str]],
) -> List[CalibrationRecord]:
    """Parse line-delimited {"logits": [...], "true_class": int} records.

    Every record must hold as many logits as the first one.
    """
    records = []
    first_line = 0
    for lineno, obj in _jsonl_records(stream, ["logits", "true_class"], []):
        try:
            record = CalibrationRecord(
                logits=LogitVector(tuple(float(v) for v in obj["logits"])),
                true_class=int(obj["true_class"]),
            )
        except (TypeError, ValueError) as exc:
            raise ParseError(lineno, str(exc)) from exc
        if not records:
            first_line = lineno
        elif len(record.logits) != len(records[0].logits):
            raise ParseError(
                lineno,
                f"{len(record.logits)} logits, but line {first_line} has "
                f"{len(records[0].logits)}",
            )
        records.append(record)
    return records


def read_calibration_records(path) -> List[CalibrationRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_calibration_records(fh)


def serialize_calibration_records(records: Sequence[CalibrationRecord]) -> str:
    lines = [
        json.dumps({"logits": list(r.logits.logits), "true_class": r.true_class})
        for r in records
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def reliability_csv(d: ReliabilityDiagram) -> str:
    """CSV rows (bin_lo, bin_hi, confidence, accuracy, count); empty bins blank."""
    out = ["bin_lo,bin_hi,confidence,accuracy,count"]
    for b in d.bins:
        conf = repr(b.mean_confidence) if b.mean_confidence is not None else ""
        acc = repr(b.accuracy) if b.accuracy is not None else ""
        out.append(f"{b.lo!r},{b.hi!r},{conf},{acc},{b.count}")
    return "\n".join(out) + "\n"
