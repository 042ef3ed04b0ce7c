"""Two's-complement fixed point and the truncation test for the ReLU sign.

A value is nonnegative exactly when 0 appears among the logical right shifts
of its complement code (shift amounts 0 .. l_x - 1). Shifting a nonnegative
code eventually clears it because the sign bit is 0; a negative code keeps
its sign bit in view until the last tested shift. The derivation below
simulates the shifts explicitly instead of just reading the sign bit, so the
equivalence stays an observable fact rather than an assumption.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polyapprox import check_number


@dataclass(frozen=True)
class FixedPointFormat:
    """l_x-bit two's complement, split evenly into integer and fraction."""

    total_bits: int

    def __post_init__(self):
        check_number("total_bits", self.total_bits, 4, 32, integer=True)
        if self.total_bits % 2:
            raise ValueError("total_bits must be even")

    @property
    def frac_bits(self) -> int:
        return self.total_bits // 2

    @property
    def raw_min(self) -> int:
        return -(1 << (self.total_bits - 1))

    @property
    def raw_max(self) -> int:
        return (1 << (self.total_bits - 1)) - 1

    @property
    def scale(self) -> int:
        return 1 << self.frac_bits


def quantize_array(x: np.ndarray, fmt: FixedPointFormat):
    """Truncation quantizer: the raw int64 array floor(x * 2^f), saturating
    at the raw range."""
    scaled = np.floor(np.asarray(x, dtype=np.float64) * fmt.scale)
    return np.clip(scaled, fmt.raw_min, fmt.raw_max).astype(np.int64)


def _nonneg_by_shifts(raw: np.ndarray, fmt: FixedPointFormat) -> np.ndarray:
    """Nonnegative where some logical right shift of the raw's complement
    code, by 0 .. l_x - 1, is 0 (raw is an int64 array)."""
    mask = (1 << fmt.total_bits) - 1
    u = raw & mask
    nonneg = np.zeros(u.shape, dtype=bool)
    for k in range(fmt.total_bits):
        nonneg |= (u >> k) == 0
    return nonneg


class TruncatedReLU:
    """Activation slot: quantize the input, gate it by the truncation sign.

    Forward semantics are the contract; the gradient is the plain ReLU
    subgradient of the unquantized input (straight-through), since training
    never runs in this mode.
    """

    def __init__(self, fmt: FixedPointFormat):
        self.fmt = fmt

    def apply(self, z: np.ndarray) -> np.ndarray:
        raw = quantize_array(z, self.fmt)
        nonneg = _nonneg_by_shifts(raw, self.fmt)
        return np.where(nonneg, raw / self.fmt.scale, 0.0)

    def grad(self, z: np.ndarray) -> np.ndarray:
        return (z > 0).astype(np.float64)

    def descriptor(self) -> dict:
        return {"kind": "truncated_relu", "total_bits": self.fmt.total_bits}

    def __repr__(self):
        return f"TruncatedReLU(l_x={self.fmt.total_bits})"
