"""Deterministic report serialization: JSON, CSV (17 significant digits) and
binary 8-bit PGM heatmaps.  No timestamps or environment-dependent fields are
ever written, so identical (config, seed) runs on one host with one BLAS
thread count produce byte-identical files.  Across hosts or thread counts the
BLAS reduction order can move last digits: the catalog's zhong-log solve
probe (its alpha values and oscillations) differs in its last 3-4 digits
between one BLAS thread and the default.
"""
from __future__ import annotations

import json
import math

import numpy as np

SCHEMA = "degenlap/1"

__all__ = ["SCHEMA", "sanitize", "write_json", "write_csv", "write_pgm"]


def sanitize(obj):
    """Convert numpy scalars/arrays and non-finite floats to JSON-safe values."""
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_json(path, payload: dict) -> None:
    doc = {"schema": SCHEMA}
    doc.update(sanitize(payload))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_pgm(path, values: np.ndarray, lo: float | None = None, hi: float | None = None) -> None:
    """8-bit binary PGM (P5); values scaled from [lo, hi] to 0..255."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise ValueError("PGM output requires a 2-d array")
    finite = arr[np.isfinite(arr)]
    lo = float(finite.min()) if lo is None else lo
    hi = float(finite.max()) if hi is None else hi
    span = hi - lo if hi > lo else 1.0
    scaled = np.clip((arr - lo) / span, 0.0, 1.0)
    scaled = np.where(np.isfinite(arr), scaled, 0.0)
    img = np.round(scaled * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii"))
        fh.write(img.tobytes())
