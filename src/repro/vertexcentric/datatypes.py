"""Struct dtypes and sentinel values for vertex programs.

The paper's device structs are plain C structs of 4-byte members; here they
are NumPy structured dtypes, which gives the engines flat per-field arrays
(SoA on the simulated device) and gives the memory model exact byte sizes.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphFormatError

__all__ = ["UINT_INF", "vertex_dtype", "field_bytes", "uint32_weights"]

UINT_INF = np.uint32(0xFFFFFFFF)
"""The paper's ``INF`` sentinel for unsigned 4-byte vertex values."""


def _invalid(code: str, message: str, subject: str):
    """A :class:`~repro.errors.ValidationError` carrying one violation.

    Imported lazily: this module sits below the analysis layer and must
    stay importable before it.
    """
    from repro.analysis.violations import Violation
    from repro.errors import ValidationError

    return ValidationError(
        [Violation(code=code, message=message, subject=subject)]
    )


def vertex_dtype(**fields: type | str) -> np.dtype:
    """Build a structured dtype from ``name=type`` pairs.

    >>> vertex_dtype(dist=np.uint32).itemsize
    4
    >>> vertex_dtype(q=np.float32, q_new=np.float32).names
    ('q', 'q_new')

    Zero-width and object dtypes are rejected: the memory model charges
    exact bytes per field, and neither has a meaningful device size.
    """
    if not fields:
        raise ValueError("a vertex dtype needs at least one field")
    resolved = []
    for name, t in fields.items():
        dt = np.dtype(t)
        if dt.itemsize == 0 or dt.kind == "O":
            label = "object" if dt.kind == "O" else "zero-width"
            raise _invalid(
                "L007",
                f"field {name!r} declares {label} dtype {dt!r}; vertex "
                f"fields need a fixed nonzero device byte size",
                subject=name,
            )
        resolved.append((name, dt))
    return np.dtype(resolved)


def field_bytes(dtype: np.dtype, name: str) -> int:
    """Byte size of one field of a structured dtype.

    Raises a typed :class:`~repro.errors.ValidationError` (not a bare
    ``KeyError``) when ``name`` is not a field of ``dtype``.
    """
    if dtype.fields is None or name not in dtype.fields:
        available = sorted(dtype.fields or ())
        raise _invalid(
            "L003",
            f"unknown field {name!r}; available fields: {available}",
            subject=name,
        )
    return dtype.fields[name][0].itemsize


def uint32_weights(weights: np.ndarray, program: str) -> np.ndarray:
    """``weights`` as ``uint32`` edge values; a weight the cast would wrap,
    zero or truncate (negative, NaN, inf, too large, fractional) is a
    ``GraphFormatError``."""
    if weights.size:
        lo, hi = weights.min(), weights.max()
        if not (0 <= lo and hi <= UINT_INF):  # NaN fails both
            raise GraphFormatError(
                f"{program} needs finite edge weights in "
                f"[0, {int(UINT_INF)}], found range [{lo}, {hi}]"
            )
    out = weights.astype(np.uint32)
    fractional = out != weights
    if fractional.any():
        raise GraphFormatError(
            f"{program} needs integral edge weights, found "
            f"{float(weights[fractional][0])}"
        )
    return out
