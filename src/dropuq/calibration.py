"""Softmax confidence, temperature scaling, reliability metrics, focal loss.

Temperature scaling divides logits by a single scalar fit on held-out
records by NLL minimization; it rescales every class confidence without
changing which class wins the argmax. Records are held as columns in a
CalibrationSet, an (N, K+1) logit array and an (N,) true-class array, which
the parser, the generator and every consumer share. The records file is
the only one read in two passes: a block pass decodes _TEXT_BLOCK_ROWS
lines per orjson call (_calibration_columns), and a file it cannot take
whole is parsed again, line by line and from its first line, under the
stdlib ``json`` decoder (_calibration_set), whose result or error the
caller gets. That pass types each line's fields with ingest's _array and
_scalar, as the samples reader does, so a key, type or width fault names
the first faulty line. orjson rejects NaN, Infinity, 1e400 and lone
surrogates, which ``json`` accepts, and reads integers beyond 64 bits as
floats, which no integer field accepts; on every other line the two
decoders return equal values.
"""

from __future__ import annotations

import gc
import io
import math
from dataclasses import dataclass
from itertools import chain, filterfalse, islice
from operator import itemgetter
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np
from orjson import OPT_SERIALIZE_NUMPY, dumps, loads

from .ingest import _INT, _REAL, ParseError, _array, _jsonl_records, _scalar
from .model import RowError, _check, _equal_fields, _reals

__all__ = [
    "CalibrationSet",
    "ReliabilityBin",
    "softmax",
    "negative_log_likelihood",
    "fit_temperature",
    "reliability",
    "mce",
    "ace",
    "focal_loss",
    "read_calibration_records",
    "serialize_calibration_records",
    "reliability_csv",
]

T_SEARCH_LO = 0.01
T_SEARCH_HI = 100.0
_KEYS = ["logits", "true_class"]
_TEXT_BLOCK_ROWS = 4096  # lines decoded, or rows printed, per orjson call


@dataclass(frozen=True, eq=False)
class CalibrationSet:
    """N calibration records as columns: logits (N, K+1), true classes (N,).

    Both arrays are float64/int64 copies made read-only. Every row holds
    finite logits, background at index 0 plus at least one class, and a
    true class in [0, K].
    """

    logits: np.ndarray
    true_class: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.logits)
        y = np.asarray(self.true_class)
        if z.ndim != 2:
            raise ValueError(f"logits must be an (N, K+1) array, got shape {z.shape}")
        if len(z) and z.shape[1] < 2:  # every row is short, so the first one is
            raise RowError(0, f"logits need background plus >= 1 class, got {z.shape[1]}")
        if y.shape != (len(z),):
            raise ValueError(f"need one true class per row, got shape {y.shape}")
        if z.dtype.kind not in "iuf" or y.dtype.kind not in "iu":
            raise ValueError(
                f"logits must be numbers and true classes integers, got {z.dtype}, {y.dtype}"
            )
        z = z.astype(np.float64)
        y = y.astype(np.int64)
        _check([
            (np.isfinite(z).all(axis=1), lambda i: f"logits must be finite, got {z[i].tolist()}"),
            ((y >= 0) & (y < z.shape[1]),
             lambda i: f"true_class {y[i]} out of range for {z.shape[1]} classes"),
        ], RowError)
        z.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "logits", z)
        object.__setattr__(self, "true_class", y)

    def __len__(self) -> int:
        return len(self.true_class)

    __eq__ = _equal_fields


@dataclass(frozen=True)
class ReliabilityBin:
    lo: float
    hi: float
    mean_confidence: Optional[float]  # None when the bin is empty
    accuracy: Optional[float]
    count: int


def _temperature(t: float) -> float:
    """The temperature rule: T must be a finite number > 0."""
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"temperature must be finite and positive, got {t}")
    return t


def softmax(logits: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Softmax of logits / T over the last axis of an (N, K+1) array.

    Each row is divided by T, then shifted by its maximum, so that exp
    cannot overflow. A row whose maximum overflows to +inf when divided by
    T is shifted first instead, (z - max z) / T, which can only overflow to
    -inf, where exp is 0; every other row keeps the divide-then-shift bytes.
    """
    t = _temperature(temperature)
    z = np.asarray(logits, dtype=np.float64)
    with np.errstate(over="ignore"):
        scaled = z / t
        top = scaled.max(axis=-1, keepdims=True)
        overflow = np.isposinf(top)
        if overflow.any():
            scaled = np.where(overflow, (z - z.max(axis=-1, keepdims=True)) / t, scaled)
            top = np.where(overflow, 0.0, top)
    e = np.exp(scaled - top)
    return e / e.sum(axis=-1, keepdims=True)


def _nll_function(records: CalibrationSet) -> Callable[[float], float]:
    """NLL as a function of the temperature t, its t-free parts computed once.

    With m the row maximum, NLL(t) = sum_i log sum_k exp((z_ik - m_i) / t)
    + sum_i (m_i - z_iy) / t, because max(z / t) = max(z) / t for t > 0.
    Each call then costs one divide, one exp and two sums, in one buffer.
    The buffer is class-major, (K+1, N), so the sum over classes adds K+1
    contiguous rows instead of reducing N short ones.
    """
    if not records:
        raise ValueError("cannot compute the NLL of empty records")
    z, y = records.logits, records.true_class
    m = z.max(axis=1)
    shifted = np.subtract(z.T, m, order="C")
    gap = float(np.sum(m - z[np.arange(len(y)), y]))
    scratch = np.empty_like(shifted)

    def nll(t: float) -> float:
        np.divide(shifted, t, out=scratch)
        np.exp(scratch, out=scratch)
        return float(np.log(scratch.sum(axis=0)).sum() + gap / t)

    return nll


def negative_log_likelihood(records: CalibrationSet, temperature: float) -> float:
    """Total NLL of the true classes under temperature-scaled softmax."""
    return _nll_function(records)(_temperature(temperature))


def fit_temperature(records: CalibrationSet) -> float:
    """Fit the scaling temperature by golden-section search on the NLL.

    Searches T in [0.01, 100] down to a bracket width of 1e-4. The result
    never yields a worse NLL than the unscaled T = 1 baseline.
    """
    nll = _nll_function(records)

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = T_SEARCH_LO, T_SEARCH_HI
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = nll(c), nll(d)
    while b - a > 1e-4:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = nll(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = nll(d)
    t = (a + b) / 2.0
    # Never worsen the unscaled baseline.
    if nll(1.0) < nll(t):
        return 1.0
    return t


def reliability(
    records: CalibrationSet, temperature: float = 1.0, num_bins: int = 10
) -> Tuple[ReliabilityBin, ...]:
    """Bin records by top confidence into equal-width bins over [0, 1].

    Confidence is the maximum of the temperature-scaled softmax; a record
    counts as accurate when its argmax class equals the true class. The
    last bin is closed at 1.0.
    """
    if num_bins < 1:
        raise ValueError(f"num_bins must be >= 1, got {num_bins}")
    # An empty set may have no classes, and a row needs one for max and argmax.
    p = softmax(records.logits if records else np.zeros((0, 1)), temperature)
    conf = p.max(axis=1)
    correct = p.argmax(axis=1) == records.true_class
    idx = np.minimum((conf * num_bins).astype(np.int64), num_bins - 1)

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
    return tuple(bins)


def _gaps(bins: Sequence[ReliabilityBin]) -> List[float]:
    gaps = [
        abs(b.accuracy - b.mean_confidence) for b in bins if b.count > 0
    ]
    if not gaps:
        raise ValueError("all reliability bins are empty")
    return gaps


def mce(bins: Sequence[ReliabilityBin]) -> float:
    """Maximum confidence-accuracy gap over non-empty bins."""
    return max(_gaps(bins))


def ace(bins: Sequence[ReliabilityBin]) -> float:
    """Mean confidence-accuracy gap over non-empty bins."""
    gaps = _gaps(bins)
    return sum(gaps) / len(gaps)


def focal_loss(
    records: CalibrationSet,
    temperature: float = 1.0,
    alpha: Optional[Sequence[float]] = None,
    gamma: float | Sequence[float] = 2.0,
) -> np.ndarray:
    """Each record's -alpha_y * (1 - p_y)^gamma * log(p_y), p_y being its true
    class's probability under the temperature-scaled softmax. ``gamma`` is
    one number or one per record.

    Evaluation only; with gamma = 0 and unit alpha this is cross-entropy.
    """
    if not records:
        raise ValueError("cannot compute the focal loss of empty records")
    gamma = np.asarray(gamma, dtype=np.float64)
    if not (np.isfinite(gamma) & (gamma >= 0)).all():
        raise ValueError(f"gamma must be finite and non-negative, got {gamma}")
    y = records.true_class
    p = softmax(records.logits, temperature)
    weights = np.ones(p.shape[1]) if alpha is None else np.asarray(alpha, dtype=np.float64)
    if weights.shape != (p.shape[1],):
        raise ValueError("alpha needs one weight per class")
    if not (np.isfinite(weights) & (weights > 0)).all():
        raise ValueError("alpha entries must be finite and positive")
    p_y = p[np.arange(len(y)), y]
    if not p_y.all():
        raise RowError(int(np.argmin(p_y)), "true-class probability is 0: focal loss is infinite")
    return -weights[y] * (1.0 - p_y) ** gamma * np.log(p_y)


def read_calibration_records(path) -> CalibrationSet:
    """Read line-delimited {"logits": [...], "true_class": int} records.

    Every record must hold as many logits as the first one, all numbers
    (a string, boolean or null is an error). The true class must be a JSON
    integer: not 1.0, "1" or true.

    The block pass reads the file first; if it raises ParseError, the
    reference pass reads the same text again from its start (see the module
    docstring). A stream that cannot seek, such as a pipe, is read into
    memory first. The cyclic GC is paused throughout and then left as it
    was found: decoded JSON holds no reference cycles, so a collection would
    free nothing sooner.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, encoding="utf-8") as file:
            lines = file
            if not file.seekable():  # a pipe: keep its bytes, to read them twice
                lines = io.TextIOWrapper(io.BytesIO(file.buffer.read()), encoding="utf-8")
            try:
                return _calibration_columns(lines)
            except ParseError:
                lines.seek(0)
            return _calibration_set(lines)
    finally:
        if enabled:
            gc.enable()


def _calibration_columns(lines: Iterable[str]) -> CalibrationSet:
    """The block pass of read_calibration_records. It decodes _TEXT_BLOCK_ROWS
    lines in one call, checks their types, key orders and widths with one
    C-level set scan each, and turns them into columns at once; a file it
    cannot take whole raises ParseError (see _regular)."""
    lines, logits, classes = iter(lines), [], []
    try:
        while block := list(islice(lines, _TEXT_BLOCK_ROWS)):
            records = list(map(loads, filterfalse(str.isspace, block)))
            if not records:
                continue
            _regular(set(map(type, records)) == {dict})
            _regular(set(map(tuple, records)) == {tuple(_KEYS)})
            rows, true_class = (list(map(itemgetter(key), records)) for key in _KEYS)
            _regular(set(map(type, true_class)) == {int})
            _regular(set(map(type, rows)) == {list})
            width = logits[0].shape[1] if logits else len(rows[0])
            _regular(set(map(len, rows)) == {width})
            _regular(set(map(type, chain.from_iterable(rows))).issubset(_REAL))
            values = np.fromiter(chain.from_iterable(rows), np.float64, len(rows) * width)
            logits.append(values.reshape(len(rows), width))
            classes.append(np.array(true_class, dtype=np.int64))
        if not logits:
            return CalibrationSet(np.empty((0, 0)), np.empty(0, dtype=np.int64))
        z, y = np.concatenate(logits), np.concatenate(classes)
        del logits, classes  # before the set copies the columns
        return CalibrationSet(z, y)
    except (OverflowError, ValueError):  # JSONDecodeError and RowError are ValueErrors
        _regular(False)


def _regular(ok: bool) -> None:
    """Raise ParseError unless ``ok``: the block pass cannot take the file
    whole, and the reference pass then finds and words the fault, if any."""
    if not ok:
        raise ParseError(None, "irregular block")


def _calibration_set(lines: Iterable[str]) -> CalibrationSet:
    """The reference pass of read_calibration_records, one line at a time."""
    linenos, rows, classes = [], [], []
    for lineno, obj in _jsonl_records(lines, _KEYS, []):
        logits = _array(obj, "logits", _REAL, lineno)
        if rows and len(logits) != len(rows[0]):
            raise ParseError(
                lineno, f"{len(logits)} logits, but line {linenos[0]} has {len(rows[0])}"
            )
        linenos.append(lineno)
        rows.append(logits)
        classes.append(_scalar(obj, "true_class", _INT, lineno))
    if not rows:
        return CalibrationSet(np.empty((0, 0)), np.empty(0, dtype=np.int64))

    z = _reals(rows)
    try:
        y = np.array(classes, dtype=np.int64)
    except OverflowError:  # a class beyond 64 bits is out of range too
        i = int(np.argmax([not -(2**63) <= c < 2**63 for c in classes]))
        raise ParseError(
            linenos[i], f"true_class {classes[i]} out of range for {z.shape[1]} classes"
        ) from None
    try:
        return CalibrationSet(z, y)
    except RowError as exc:
        raise ParseError(linenos[exc.row], exc.message) from None


def serialize_calibration_records(records: CalibrationSet) -> str:
    """One '{"logits": [...], "true_class": c}' line per record, byte-identical
    to what json.dumps writes for the record.

    json.dumps prints a float with float.__repr__, the shortest text that
    reads back to the same double. orjson prints the same digits for a whole
    block of rows in one call, and the same text wherever x == 0 or
    1e-4 <= |x| < 1e16; outside that it writes 0.00001 and 1e16 where repr
    writes 1e-05 and 1e+16. So each block is printed by orjson, and only
    the rows holding such a value are printed again with repr.
    """
    z, y = records.logits, records.true_class
    out = []
    for s in range(0, len(y), _TEXT_BLOCK_ROWS):
        block = np.ascontiguousarray(z[s : s + _TEXT_BLOCK_ROWS])  # orjson needs C order
        # b"[[a,b],[c,d]]" -> [b"a, b", b"c, d"]
        rows = dumps(block, option=OPT_SERIALIZE_NUMPY)[2:-2].replace(b",", b", ").split(b"], [")
        a = np.abs(block)
        for i in np.flatnonzero((((a < 1e-4) & (a != 0)) | (a >= 1e16)).any(axis=1)).tolist():
            rows[i] = ", ".join(map(repr, block[i].tolist())).encode()
        out.append(
            b"".join(
                b'{"logits": [%s], "true_class": %d}\n' % line
                for line in zip(rows, y[s : s + _TEXT_BLOCK_ROWS].tolist())
            ).decode()
        )
    return "".join(out)


def reliability_csv(bins: Sequence[ReliabilityBin]) -> str:
    """CSV rows (bin_lo, bin_hi, confidence, accuracy, count); empty bins blank."""
    out = ["bin_lo,bin_hi,confidence,accuracy,count"]
    for b in bins:
        conf = repr(b.mean_confidence) if b.mean_confidence is not None else ""
        acc = repr(b.accuracy) if b.accuracy is not None else ""
        out.append(f"{b.lo!r},{b.hi!r},{conf},{acc},{b.count}")
    return "\n".join(out) + "\n"
