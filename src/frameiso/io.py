"""JSON frame files and report encoding.

Frame file schema (version 1):

    {
      "schema_version": 1,
      "d": 2,
      "blocks": [{"cols": 2, "data": ["0x1.8p+1", ...]}, ...],
      "weights": [{"num": 2, "den": 3}, ...]        # optional
    }

``data`` is row-major of length d * cols.  Reals are written as
hex-float strings by default so write-then-read round-trips are
bit-exact; ``human=True`` writes plain decimals instead.  Readers accept
both forms.  Non-finite values are rejected on read and written as
strings (so reports containing -inf stay valid JSON).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from .frames import FrameDatum, MatrixFrame, WeightVector


class FrameFileError(ValueError):
    """Schema or content problem in a frame file; message names the field."""


SCHEMA_VERSION = 1


def _encode_real(value: float, human: bool) -> object:
    value = float(value)
    if not math.isfinite(value):
        return repr(value)
    return value if human else value.hex()


def _positive_integer(value, field: str) -> int:
    """A JSON integer >= 1; bool is an int subclass, but JSON's true is not one."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise FrameFileError(f"{field}: expected a positive integer, got {value!r}")
    return value


def _decode_real(value) -> float:
    """A frame-file real; a ValueError carries the message after the field name."""
    if isinstance(value, bool):
        raise ValueError("expected a real number")
    if isinstance(value, str):
        parse = float.fromhex if "x" in value.lower() else float
    elif isinstance(value, (int, float)):
        parse = float
    else:
        raise ValueError(f"expected a real number, got {type(value).__name__}")
    try:
        out = parse(value)
    except OverflowError:
        raise ValueError(f"real {value!r} is outside the float range") from None
    except ValueError:
        raise ValueError(f"cannot parse real {value!r}") from None
    if not math.isfinite(out):
        raise ValueError("non-finite value")
    return out


def _decode_reals(data: list, field: str) -> list:
    """``data`` as floats; an entry's field name is formatted only if it is rejected."""
    values = []
    for k, value in enumerate(data):
        try:
            values.append(_decode_real(value))
        except ValueError as exc:
            raise FrameFileError(f"{field}[{k}]: {exc}") from None
    return values


def encode_report(obj, human: bool = False):
    """Recursively hex-encode floats in a report structure."""
    if isinstance(obj, dict):
        return {k: encode_report(v, human) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode_report(v, human) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, str)) or obj is None:
        return obj
    if isinstance(obj, (float, np.floating)):
        return _encode_real(float(obj), human)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [encode_report(v, human) for v in obj.tolist()]
    raise TypeError(f"cannot encode {type(obj).__name__} in a report")


def frame_to_payload(frame: MatrixFrame, weights: WeightVector = None, human: bool = False) -> dict:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "d": frame.d,
        "blocks": [
            {
                "cols": block.shape[1],
                "data": [_encode_real(v, human) for v in block.reshape(-1)],
            }
            for block in frame.blocks
        ],
    }
    if weights is not None:
        payload["weights"] = [
            {"num": w.numerator, "den": w.denominator} for w in weights.weights
        ]
    return payload


def write_frame_file(path, frame: MatrixFrame, weights: WeightVector = None, human: bool = False):
    """Write ``frame`` (and ``weights``) as a frame file.

    The document is encoded whole before the file is opened, so a failed
    encode leaves an existing file at ``path`` as it was.  Raises
    FrameFileError when the file cannot be written.
    """
    text = json.dumps(frame_to_payload(frame, weights, human), indent=2) + "\n"
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise FrameFileError(f"cannot write {path}: {exc}") from None


def payload_to_frame(payload) -> tuple:
    """Validate a parsed frame file; returns (frame, weights-or-None)."""
    if not isinstance(payload, dict):
        raise FrameFileError("top level: expected an object")
    version = payload.get("schema_version")
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise FrameFileError(f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")
    d = _positive_integer(payload.get("d"), "d")
    raw_blocks = payload.get("blocks")
    if not isinstance(raw_blocks, list) or not raw_blocks:
        raise FrameFileError("blocks: expected a non-empty list")

    blocks = []
    for idx, entry in enumerate(raw_blocks):
        if not isinstance(entry, dict):
            raise FrameFileError(f"blocks[{idx}]: expected an object")
        cols = _positive_integer(entry.get("cols"), f"blocks[{idx}].cols")
        data = entry.get("data")
        if not isinstance(data, list) or len(data) != d * cols:
            have = len(data) if isinstance(data, list) else None
            raise FrameFileError(
                f"blocks[{idx}].data: expected {d * cols} values, got {have}"
            )
        values = _decode_reals(data, f"blocks[{idx}].data")
        blocks.append(np.array(values, dtype=float).reshape(d, cols))
    frame = MatrixFrame(d, tuple(blocks))

    weights = None
    if "weights" in payload and payload["weights"] is not None:
        raw_weights = payload["weights"]
        if not isinstance(raw_weights, list) or len(raw_weights) != len(blocks):
            raise FrameFileError(
                f"weights: expected {len(blocks)} entries, got "
                f"{len(raw_weights) if isinstance(raw_weights, list) else None}"
            )
        fractions = []
        for idx, entry in enumerate(raw_weights):
            if not isinstance(entry, dict):
                raise FrameFileError(f"weights[{idx}]: expected an object")
            num = _positive_integer(entry.get("num"), f"weights[{idx}].num")
            den = _positive_integer(entry.get("den"), f"weights[{idx}].den")
            fractions.append(Fraction(num, den))
        weights = WeightVector(tuple(fractions))
    return frame, weights


def read_frame_file(path) -> tuple:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except json.JSONDecodeError as exc:
        raise FrameFileError(f"{path}: invalid JSON ({exc})") from None
    except (OSError, ValueError) as exc:
        # ValueError: bytes that are not UTF-8, or an integer past the
        # interpreter's digit limit.
        raise FrameFileError(f"cannot read {path}: {exc}") from None
    return payload_to_frame(payload)


def read_frame_datum(path) -> FrameDatum:
    frame, weights = read_frame_file(path)
    if weights is None:
        raise FrameFileError("weights: required for this command but missing")
    return FrameDatum(frame, weights)
