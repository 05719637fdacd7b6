"""Uniform affine fake quantization: one fixed quantizer per role.

Simulates integer quantization in float64 via quantize-dequantize round
trips: Q(x) = (clamp(round(x/S) + z, q_min, q_max) - z) * S.  Rounding is
half-away-from-zero so independent implementations agree bit-exactly.

A bit width is the whole setting, as in SmoothQuant's convention:
``quantize_act`` is asymmetric with one scale and zero-point per row (token),
``quantize_weight`` symmetric with one scale per column (output channel).
``bits=None`` is the identity sentinel used by exact-cancellation tests: the
quantizer then returns a copy of its input (and the act mask all True).

Each quantizer takes a matrix the caller already holds as finite 2-D float64
(it checks nothing), derives fresh parameters and rounds once.
``quantize_act`` returns the value with its boolean straight-through mask
(multiplying by it casts True/False to 1.0/0.0, the same bits as a float
mask); ``quantize_weight`` returns the value alone, since no weight code
leaves [-q_max, q_max] (see ``_weight_params``) and its mask is all True.
Both are total over finite input: in the rare group whose scale times its
largest code could pass the largest float, the value is clamped to +-max
float (``_times_scale``), never inf.
"""

from __future__ import annotations

import numpy as np

_TINY = np.finfo(np.float64).tiny
_MAX = np.finfo(np.float64).max


def check_bits(bits: int | None) -> int | None:
    """``bits`` if it is None or in [2, 16]; a ValueError otherwise."""
    if bits is not None and not 2 <= bits <= 16:
        raise ValueError(f"bits must be in [2, 16] or None, got {bits}")
    return bits


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


def _act_params(m: np.ndarray, bits: int):
    """(S, z, q_min, q_max) of ``quantize_act``: one scale and integer-valued
    float zero-point per row of a nonempty ``m``, kept 2-D (rows x 1).

    Each row's range is widened to include zero, so zero and constants map
    onto grid points and one-signed rows never saturate; all-zero rows get
    S = 1, z = 0.  Scales are floored at the smallest positive normal, so
    subnormal rows never underflow to a zero scale.
    """
    levels = 2**bits - 1
    hi = np.maximum.reduce(m, axis=1, keepdims=True)
    lo = np.minimum.reduce(m, axis=1, keepdims=True)
    np.minimum(lo, 0.0, out=lo)
    np.maximum(hi, 0.0, out=hi)
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
    return scales, _round_div(lo, scales), 0, levels


def _weight_params(m: np.ndarray, bits: int) -> np.ndarray:
    """The scales of ``quantize_weight``: one per column of a nonempty ``m``,
    kept 2-D (1 x cols), S = max|m| / q_max floored at the smallest positive
    normal (1 for an all-zero column).  So |m| / S <= q_max (1 + 2^-52),
    which rounds to at most q_max: no code round(m/S) needs a clamp."""
    q_max = 2 ** (bits - 1) - 1
    hi = np.maximum.reduce(m, axis=0, keepdims=True)
    lo = np.minimum.reduce(m, axis=0, keepdims=True)
    # max |m| = max(max m, -min m), with no |m| copy of the matrix.
    np.negative(lo, out=lo)
    np.maximum(hi, lo, out=hi)
    return np.where(hi > 0, np.maximum(hi / q_max, _TINY), 1.0)


def _times_scale(q: np.ndarray, s: np.ndarray, top: int) -> np.ndarray:
    """q *= s in place, for integer codes |q| < ``top``.  Where S <= max
    float / top, |q| S stays below the largest float, rounding included;
    the other groups, found from the scales alone, are clamped to +-max
    float, so a finite input never quantizes to inf."""
    big = s > _MAX / top
    if not np.count_nonzero(big):
        q *= s
        return q
    with np.errstate(over="ignore"):
        q *= s
    return np.clip(q, -_MAX, _MAX, out=q, where=big)


def _round_clamp(m: np.ndarray, s: np.ndarray, z: np.ndarray, q_min: int, q_max: int):
    """Q(m) and the straight-through mask from one rounding of m/S, in two
    buffers; ``s`` and ``z`` broadcast over ``m``."""
    buf = np.empty(m.shape)
    q = _round_div(m, s, out=buf)
    q += z
    np.maximum(q, q_min, out=buf)
    np.minimum(buf, q_max, out=buf)
    mask = buf == q
    buf -= z
    # z lies in [q_min, q_max], so every code q - z within q_max - q_min of 0.
    return _times_scale(buf, s, q_max - q_min + 1), mask


def quantize_act(m: np.ndarray, bits: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Asymmetric fake quantization, one group per row; (value, STE mask),
    the mask False where round(x/S)+z is clamped."""
    if bits is None or m.size == 0:
        return m.copy(), np.ones(m.shape, dtype=bool)
    return _round_clamp(m, *_act_params(m, bits))


def quantize_weight(m: np.ndarray, bits: int | None) -> np.ndarray:
    """Symmetric fake quantization, one group per column: round(m/S) * S,
    with no clamp (see ``_weight_params``)."""
    if bits is None or m.size == 0:
        return m.copy()
    s = _weight_params(m, bits)
    q = _round_div(m, s)
    q += 0.0  # turns -0.0 into +0.0
    return _times_scale(q, s, 2 ** (bits - 1))
