"""Secured positions: realized P&L bound together with the estimated reserve.

A day is covered when pnl + reserve >= 0. The normalized variant rescales
each day by its reserve so the implied risk is constant; it requires every
reserve to be strictly positive and preserves the sign of each entry. A
non-finite pnl or reserve is rejected, never scored as a covered day.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["SecuredSample", "build_secured", "build_normalized"]


@dataclass(frozen=True)
class SecuredSample:
    """Per-day secured-position realizations."""

    values: np.ndarray = field(repr=False)
    normalized: bool = False

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float).ravel()
        if arr.size == 0:
            raise ValueError("secured sample must not be empty")
        _require_finite(arr, "secured sample")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.size


def _require_finite(arr: np.ndarray, name: str) -> None:
    # any NaN or infinity makes the sum non-finite, and one sum costs less
    # than a per-entry test; an overflowing sum falls through to that test
    if math.isfinite(arr.sum()):
        return
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise ValueError(f"{name} has non-finite value {arr[bad[0]]} at index {bad[0]}")


def _pair(pnl, reserve) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(pnl, dtype=float).ravel()
    r = np.asarray(reserve, dtype=float).ravel()
    if p.size != r.size:
        raise ValueError(f"length mismatch: pnl has {p.size}, reserve has {r.size}")
    if p.size == 0:
        raise ValueError("inputs must not be empty")
    return p, r


def build_secured(pnl, reserve) -> SecuredSample:
    """Componentwise sum y_i = pnl_i + reserve_i."""
    p, r = _pair(pnl, reserve)
    return SecuredSample(p + r, normalized=False)


def build_normalized(pnl, reserve) -> SecuredSample:
    """Reserve-relative positions y_i = pnl_i / reserve_i + 1.

    Every reserve must be strictly positive; a nonpositive reserve has no
    meaningful scale, and silently dropping such days would bias the sample
    length, so the offending index is reported instead.
    """
    p, r = _pair(pnl, reserve)
    # an infinite reserve would map its day to exactly 1 and hide the fault
    _require_finite(r, "reserve")
    bad = np.flatnonzero(r <= 0)
    if bad.size:
        raise ValueError(
            f"reserve must be strictly positive to normalize; "
            f"found {r[bad[0]]} at index {bad[0]}"
        )
    return SecuredSample(p / r + 1.0, normalized=True)
