"""Uniform affine fake quantization.

Simulates integer quantization in float64 via quantize-dequantize round
trips: Q(x) = (clamp(round(x/S) + z, q_min, q_max) - z) * S.  Rounding is
half-away-from-zero so independent implementations agree bit-exactly.

``bits=None`` is the identity-quantizer sentinel used by exact-cancellation
tests: quantize_ste then returns a copy of its input and a mask of all True.

``quantize_ste`` is the one quantizer: it takes a matrix the caller already
holds as finite 2-D float64 (it checks nothing), derives fresh parameters,
rounds once, and returns the quantized value with its boolean
straight-through mask (multiplying by it casts True/False to 1.0/0.0, the
same bits as a float mask).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

_TINY = np.finfo(np.float64).tiny


class Granularity(enum.Enum):
    PER_TENSOR = "per_tensor"
    PER_CHANNEL = "per_channel"  # one group per column
    PER_TOKEN = "per_token"      # one group per row


@dataclass(frozen=True)
class QuantSpec:
    bits: int | None
    symmetric: bool
    granularity: Granularity

    def __post_init__(self):
        if self.bits is not None and not 2 <= self.bits <= 16:
            raise ValueError(f"bits must be in [2, 16] or None, got {self.bits}")

    @property
    def is_identity(self) -> bool:
        return self.bits is None

    @property
    def q_min(self) -> int:
        if self.symmetric:
            return -(2 ** (self.bits - 1)) + 1
        return 0

    @property
    def q_max(self) -> int:
        if self.symmetric:
            return 2 ** (self.bits - 1) - 1
        return 2**self.bits - 1

    def with_floor(self, min_bits: int) -> "QuantSpec":
        """Raise the bit width to ``min_bits`` (identity stays identity)."""
        if self.bits is None or self.bits >= min_bits:
            return self
        return replace(self, bits=min_bits)


def _round_div(m: np.ndarray, s, out=None) -> np.ndarray:
    """m / s rounded to the nearest integer, halves away from zero, exactly
    for every finite quotient: x - rint(x) is exact, so every half is found,
    and x + 0.5 away from zero is exact there too.  m / s is written into
    ``out`` and overwritten; it is redone only at the rare exact halves."""
    x = np.divide(m, s, out=out)
    r = np.rint(x)
    x -= r
    np.abs(x, out=x)
    half = x == 0.5
    if np.count_nonzero(half):
        xh = m[half] / np.broadcast_to(s, m.shape)[half]
        r[half] = xh + np.copysign(0.5, xh)
    return r


# The axis each granularity reduces a group along (None: the whole matrix).
_AXIS = {Granularity.PER_TENSOR: None, Granularity.PER_CHANNEL: 0,
         Granularity.PER_TOKEN: 1}


def _params(m: np.ndarray, spec: QuantSpec):
    """Per-group scales and integer-valued float zero-points of a nonempty
    ``m``, kept 2-D so that they broadcast over it.  A symmetric spec's
    zero-points are all zero and come back as None.

    An asymmetric group's range is widened to include zero, so zero and
    constants map onto grid points and one-signed groups never saturate;
    all-zero groups get S = 1, z = 0.  Scales are floored at the smallest
    positive normal, so subnormal groups never underflow to a zero scale.
    """
    axis = _AXIS[spec.granularity]
    hi = np.maximum.reduce(m, axis=axis, keepdims=True)
    lo = np.minimum.reduce(m, axis=axis, keepdims=True)
    if spec.symmetric:
        # max |m| = max(max m, -min m), with no |m| copy of the matrix.
        np.negative(lo, out=lo)
        np.maximum(hi, lo, out=hi)
        return np.where(hi > 0, np.maximum(hi / spec.q_max, _TINY), 1.0), None
    np.minimum(lo, 0.0, out=lo)
    np.maximum(hi, 0.0, out=hi)
    levels = spec.q_max - spec.q_min
    with np.errstate(over="ignore"):
        span = hi - lo
    step = span / levels
    # hi - lo overflows only for finite ranges wider than the largest float;
    # only there is the step computed as hi/levels - lo/levels.
    inf = np.isinf(span)
    if np.count_nonzero(inf):
        step[inf] = hi[inf] / levels - lo[inf] / levels
    scales = np.where(span > 0, np.maximum(step, _TINY), 1.0)
    # S >= (hi - lo) / levels >= -lo / levels up to one rounding, so the
    # zero-point round(-lo / S) already lies in [0, levels] = [q_min, q_max].
    np.negative(lo, out=lo)
    return scales, _round_div(lo, scales)


def _round_clamp(m: np.ndarray, s: np.ndarray, z: np.ndarray | None, spec: QuantSpec):
    """Q(m) and the straight-through mask from one rounding of m/S, in two
    buffers.  ``s`` and ``z`` broadcast over ``m``; a None ``z`` is a zero
    zero-point, of which only the addition is kept: it turns -0.0 into +0.0."""
    buf = np.empty(m.shape)
    q = _round_div(m, s, out=buf)
    q += 0.0 if z is None else z
    np.maximum(q, spec.q_min, out=buf)
    np.minimum(buf, spec.q_max, out=buf)
    mask = buf == q
    if z is not None:
        buf -= z
    buf *= s
    return buf, mask


def quantize_ste(m: np.ndarray, spec: QuantSpec) -> tuple[np.ndarray, np.ndarray]:
    """Fake-quantize with fresh params; returns (value, straight-through mask).

    The boolean mask is True where round(x/S)+z stays inside [q_min, q_max]
    and False where it is clamped; an identity spec clamps nothing.  ``m``
    must already be a finite 2-D float64 matrix; it is not checked again.
    """
    if spec.is_identity or m.size == 0:
        return m.copy(), np.ones(m.shape, dtype=bool)
    return _round_clamp(m, *_params(m, spec), spec)
