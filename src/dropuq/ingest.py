"""Parsing and validation of prediction-sample files, plus score filtering.

File format (one file per image, one JSON object per line):

    {"image_id": "...", "height": H, "width": W, "n_repetitions": N, "num_classes": K}
    {"repetition": R, "bbox": [x1, y1, x2, y2], "scores": [K+1 reals], "mask_runs": [ints]}
    ...

The first line is the header; every following line is one detection.
``scores[0]`` is the background class. ``mask_runs`` is optional and holds
the run-length encoding of the binary mask (background run first). Field
order is fixed and unknown fields are rejected. Values are typed strictly:
``image_id`` is a string; the header counts, ``repetition`` and the mask runs
are JSON integers; box coordinates and scores are numbers (an integer is a
number, a boolean or a numeric string is not). Boxes are clamped into the
image; a box with no area left inside it is rejected. The header may declare
at most MAX_PIXELS pixels (H * W), so that the per-pixel arrays of the mask
statistics stay bounded.

Sample sets and ground truth are read once, line by line, under the stdlib
``json`` decoder, and a detection's mask runs become an int64 array as soon
as their types are checked; calibration records take a two-pass reader of
their own (``calibration.read_calibration_records``). A string field
holding a lone surrogate, which ``json`` decodes, is an error that names
its line and field: such a string cannot be encoded as UTF-8, so no file
name, seed or message could use it. In every real field of every format, a
number beyond the double range, 1e400 or an integer of 400 digits alike,
reads as ±inf (``model._reals``) and then meets that field's finite or
range rule.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .model import MAX_PIXELS, RowError, SampleSet, _check_pixels

__all__ = [
    "MAX_PIXELS",
    "ParseError",
    "read_sample_set",
    "serialize_sample_set",
    "filter_background",
    "json_document",
    "write_file",
]

_HEADER_KEYS = ["image_id", "height", "width", "n_repetitions", "num_classes"]
_DET_KEYS = ["repetition", "bbox", "scores"]
_DET_OPTIONAL = ["mask_runs"]


class ParseError(ValueError):
    """Malformed record; carries the 1-based line number, None for a whole document."""

    def __init__(self, line_number: Optional[int], message: str):
        super().__init__(message if line_number is None else f"line {line_number}: {message}")
        self.line_number = line_number


def _record(line: str, line_number: int, keys: List[str], optional: List[str]):
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(line_number, f"invalid JSON ({exc.msg})") from exc
    if not isinstance(obj, dict):
        raise ParseError(line_number, "record must be a JSON object")
    names = list(obj)
    if names != keys and (
        names[: len(keys)] != keys or any(k not in optional for k in names[len(keys):])
    ):
        raise ParseError(
            line_number, f"fields must be {keys} (+ optional {optional}), got {names}"
        )
    return obj


_INT = (int,)  # a JSON integer; bool subclasses int in Python, but is not one
_REAL = (int, float)
_STR = (str,)
_BOOL = (bool,)
_OBJECT = (dict,)
_KINDS = {_INT: "integer", _REAL: "number", _STR: "string", _BOOL: "boolean", _OBJECT: "object"}


def _value(obj: dict, key: str, lineno: Optional[int]):
    """obj[key], or a ParseError naming the missing key."""
    if key not in obj:
        raise ParseError(lineno, f"missing key {key!r}")
    return obj[key]


def _scalar(obj: dict, key: str, kind: tuple, lineno: Optional[int]):
    """obj[key] if its type is one of ``kind`` (and, for a string, if it
    can be encoded as UTF-8), else ParseError."""
    value = _value(obj, key, lineno)
    if type(value) not in kind:
        raise ParseError(lineno, f"{key} must be a JSON {_KINDS[kind]}, got {value!r}")
    if kind is _STR:
        try:
            value.encode()
        except UnicodeEncodeError:  # a lone surrogate, which json decodes
            raise ParseError(lineno, f"{key} must be Unicode text, got {value!r}") from None
    return value


def _array(
    obj: dict, key: str, kind: tuple, lineno: Optional[int], length: Optional[int] = None
) -> list:
    """obj[key] if it is a list (of ``length`` values, if given) whose value
    types are in ``kind``, else ParseError."""
    value = _value(obj, key, lineno)
    if type(value) is not list:
        raise ParseError(lineno, f"{key} must be a list, got {value!r}")
    if length is not None and len(value) != length:
        raise ParseError(lineno, f"{key} needs {length} values, got {len(value)}")
    if not set(map(type, value)).issubset(kind):  # one C-level scan; mask runs are long
        bad = next(v for v in value if type(v) not in kind)
        raise ParseError(lineno, f"{key} must be a list of JSON {_KINDS[kind]}s, got {bad!r}")
    return value


def _jsonl_records(
    lines: Iterable[str],
    keys: List[str],
    optional: List[str],
    header: Optional[List[str]] = None,
) -> Iterator[Tuple[int, dict]]:
    """Yield (line_number, record) for every non-blank line of a text file.

    Line numbers are 1-based and count blank lines. Each line is decoded by
    ``json`` and checked by _record against ``keys`` then ``optional``; with
    ``header`` given, the first record must have exactly those fields instead.
    A line's terminator is stripped before decoding, so that a string the
    line leaves open is reported as unterminated, not as holding a control
    character.
    """
    for lineno, line in enumerate(lines, start=1):
        line = line.removesuffix("\n").removesuffix("\r")
        if not line or line.isspace():
            continue
        if header is not None:
            yield lineno, _record(line, lineno, header, [])
            header = None
        else:
            yield lineno, _record(line, lineno, keys, optional)


def read_sample_set(path) -> SampleSet:
    """Read a prediction-sample file into a validated SampleSet.

    Detections are sorted by repetition index (stable within a repetition).
    Raises ParseError with the offending line number on any malformed record.
    """
    with open(path, encoding="utf-8") as lines:
        return _sample_set(lines)


def _sample_set(lines: Iterable[str]) -> SampleSet:
    """The body of read_sample_set, one line at a time."""
    records = _jsonl_records(lines, _DET_KEYS, _DET_OPTIONAL, header=_HEADER_KEYS)
    first = next(records, None)
    if first is None:
        raise ParseError(1, "missing header record")

    header_lineno, header = first
    image_id = _scalar(header, "image_id", _STR, header_lineno)
    height, width, n_repetitions, num_classes = (
        _scalar(header, key, _INT, header_lineno) for key in _HEADER_KEYS[1:]
    )
    # Checked here, so that a bad value names the header line and a product of
    # two negative dims never passes the pixel limit below.
    for key, value in (("height", height), ("width", width), ("num_classes", num_classes)):
        if value < 1:
            raise ParseError(header_lineno, f"{key} must be >= 1, got {value}")
    try:
        _check_pixels(height, width)
    except ValueError as exc:
        raise ParseError(header_lineno, str(exc)) from None

    # Each line's types and lengths are checked here; its values, by SampleSet.
    linenos, repetitions, boxes, scores, masks = [], [], [], [], []
    for lineno, obj in records:
        repetitions.append(_scalar(obj, "repetition", _INT, lineno))
        boxes.append(_array(obj, "bbox", _REAL, lineno, length=4))
        scores.append(_array(obj, "scores", _REAL, lineno))
        masks.append(_runs(obj, lineno) if "mask_runs" in obj else None)
        if len(scores[-1]) != num_classes + 1:
            raise ParseError(
                lineno,
                f"scores has {len(scores[-1])} entries, expected "
                f"{num_classes + 1} (k={num_classes} classes + background)",
            )
        linenos.append(lineno)

    try:
        if not linenos:  # the columns take their widths from the header
            boxes, scores = np.empty((0, 4)), np.empty((0, num_classes + 1))
        return SampleSet(image_id, height, width, n_repetitions, boxes, scores, repetitions, masks)
    except RowError as exc:
        raise ParseError(linenos[exc.row], exc.message) from None
    except ValueError as exc:
        raise ParseError(header_lineno, str(exc)) from exc


def _runs(obj: dict, lineno: int):
    """A detection's mask runs as an int64 array, 8 bytes a run where a list
    of Python ints takes up to 36; as the list if a run is beyond 64 bits,
    for SampleSet to word that error exactly."""
    runs = _array(obj, "mask_runs", _INT, lineno)
    try:
        return np.array(runs, dtype=np.int64)
    except OverflowError:
        return runs


def json_document(doc) -> str:
    """The text of every JSON document a command writes: keys sorted, indented
    by two spaces, ending in a newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_file(path, *chunks: bytes) -> None:
    """Write ``chunks`` to ``path`` under a temporary name and rename it into
    place, so that a failed write leaves nothing under ``path``; the
    temporary file is removed if the write or the rename fails."""
    tmp = f"{path}.tmp"
    out = open(tmp, "wb")
    try:
        with out:
            out.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def serialize_sample_set(s: SampleSet) -> str:
    """Render a SampleSet back into the line-delimited file format."""
    header = {
        "image_id": s.image_id,
        "height": s.height,
        "width": s.width,
        "n_repetitions": s.n_repetitions,
        "num_classes": s.scores.shape[1] - 1,
    }
    out = [json.dumps(header)]
    runs, offsets = s.mask_runs.tolist(), s.mask_offsets.tolist()
    rows = zip(s.repetition.tolist(), s.boxes.tolist(), s.scores.tolist(), offsets, offsets[1:])
    # A list of ints and finite floats, all a SampleSet holds, has its JSON
    # text as its repr.
    for repetition, box, scores, start, end in rows:
        mask = f', "mask_runs": {runs[start:end]!r}' if end > start else ""
        out.append(f'{{"repetition": {repetition}, "bbox": {box!r}, "scores": {scores!r}{mask}}}')
    return "\n".join(out) + "\n"


def filter_background(s: SampleSet, threshold: float = 0.45) -> SampleSet:
    """Erase detections whose background score is above the threshold.

    Strictly above: a background score equal to the threshold survives.
    Surviving detections are untouched and keep their order. The threshold
    must lie in [0, 1].
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"background threshold must be in [0, 1], got {threshold}")
    return s.take(np.flatnonzero(s.scores[:, 0] <= threshold))
