"""Secured positions: realized P&L bound together with the estimated reserve.

A day is covered when pnl + reserve >= 0. The normalized variant rescales
each day by its reserve so the implied risk is constant; it requires every
reserve to be strictly positive and preserves the sign of each entry. A
non-finite pnl or reserve is rejected, never scored as a covered day.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["SecuredSample", "build_secured", "build_normalized"]


@dataclass(frozen=True)
class SecuredSample:
    """Per-day secured-position realizations."""

    values: np.ndarray = field(repr=False)
    normalized: bool = False

    def __post_init__(self) -> None:
        arr = _finite_vector(np.array(self.values, dtype=float), "secured sample")  # owned
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.size


def _require_finite(arr: np.ndarray, name: str) -> None:
    """Raise at the first non-finite value; its index is the one along the last axis."""
    finite = np.isfinite(arr)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"{name} has non-finite value {arr.flat[i]} at index {i % arr.shape[-1]}")


def _finite_vector(x, name: str) -> np.ndarray:
    """``x`` as a flat float array that is neither empty nor non-finite."""
    arr = np.asarray(x, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError(f"{name} must not be empty")
    _require_finite(arr, name)
    return arr


def _same_length(**named) -> list[np.ndarray]:
    """Each named input as a flat float array; their lengths must agree."""
    arrays = [np.asarray(x, dtype=float).ravel() for x in named.values()]
    if len({arr.size for arr in arrays}) > 1:
        sizes = ", ".join(f"{k} has {arr.size}" for k, arr in zip(named, arrays))
        raise ValueError(f"length mismatch: {sizes}")
    return arrays


def _secured(pnl: np.ndarray, reserve, normalized: bool, out=None) -> np.ndarray:
    """The secured positions of ``build_secured`` or ``build_normalized``, row by
    row along the last axis of ``pnl``, with the same errors, written to ``out``
    if given; ``reserve`` broadcasts, and a message's index is the day in its row."""
    if normalized:
        # an infinite reserve would map its day to exactly 1 and hide the fault
        _require_finite(reserve, "reserve")
        bad = np.flatnonzero(reserve <= 0)
        if bad.size:
            raise ValueError(
                f"reserve must be strictly positive to normalize; "
                f"found {reserve.flat[bad[0]]} at index {bad[0] % reserve.shape[-1]}"
            )
    with np.errstate(over="ignore"):  # an overflowing position fails the finite check
        y = np.add(pnl / reserve, 1.0, out=out) if normalized else np.add(pnl, reserve, out=out)
    _require_finite(y, "secured sample")
    return y


def build_secured(pnl, reserve) -> SecuredSample:
    """Componentwise sum y_i = pnl_i + reserve_i."""
    return SecuredSample(_secured(*_same_length(pnl=pnl, reserve=reserve), False))


def build_normalized(pnl, reserve) -> SecuredSample:
    """Reserve-relative positions y_i = pnl_i / reserve_i + 1.

    Every reserve must be strictly positive; a nonpositive reserve has no
    meaningful scale, and silently dropping such days would bias the sample
    length, so the offending index is reported instead.
    """
    p, r = _same_length(pnl=pnl, reserve=reserve)
    return SecuredSample(_secured(p, r, True), normalized=True)
