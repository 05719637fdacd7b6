"""Uniform affine fake quantization: one fixed quantizer per role.

Simulates integer quantization in float64 via quantize-dequantize round
trips: Q(x) = (clamp(round(x/S) + z, q_min, q_max) - z) * S.  Rounding is
half-away-from-zero so independent implementations agree bit-exactly.

A bit width is the whole setting, as in SmoothQuant's convention:
``quantize_act`` is asymmetric with one scale and zero-point per row (token),
``quantize_weight`` symmetric with one scale per column (output channel).
``bits=None`` is the identity sentinel used by exact-cancellation tests: the
quantizer then returns a copy of its input (and no act mask).

Both quantizers also take a matrix in consecutive blocks, ``widths`` of
them, each with its own bit width from the sequence ``bits``: column blocks
for ``quantize_act``, whose groups are then (row, block), and row blocks for
``quantize_weight``, whose groups are (column, block).  So one call
quantizes every path of the split layer, and ``quantize_*(m, bits)`` is its
one-block case.  Empty blocks are skipped; the blocks' bits are all None or
none is.

Each quantizer takes a matrix the caller already holds as nonempty, finite
2-D float64 (it checks nothing), derives fresh parameters and rounds once,
in the one routine ``_round`` that both roles share.  ``quantize_act``
returns the value with its boolean straight-through mask, or with None
where no code leaves the grid (multiplying by a mask casts True/False to
1.0/0.0, the same bits as a float mask).  Its range includes zero, so no
code round(x/S) + z falls below 0; rounding is monotone, so whether one
rises above q_max is read from each group's maximum alone, and only then
are the codes round(x/S) capped at q_max - z.  ``quantize_weight`` returns
the value alone, since no weight code leaves [-q_max, q_max] (see
``_weight_params``).  Both are total over finite input: in the rare group
whose scale times its largest code could pass the largest float, the value
is clamped to +-max float, never inf.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

_TINY = np.finfo(np.float64).tiny
_MAX = np.finfo(np.float64).max
_HALF_DOWN = 0.5 - 2.0**-54


def check_bits(bits: int | None) -> int | None:
    """``bits`` if it is None or in [2, 16]; a ValueError otherwise."""
    if bits is not None and not 2 <= bits <= 16:
        raise ValueError(f"bits must be in [2, 16] or None, got {bits}")
    return bits


def _round_div(m: np.ndarray, s) -> np.ndarray:
    """m / s rounded to the nearest integer, halves away from zero:
    trunc(x + copysign(h, x)) for h = 1/2 - 2^-54, the largest double below
    1/2, exact for every finite quotient x.  Below 2^52, 1/2 is a multiple of
    x's spacing u, so a fraction under 1/2 is at most 1/2 - u and |x| + h
    rounds to below the next integer; a fraction of 1/2 or more puts |x| + h
    within 2^-54 of the next integer or above it, and it rounds up to it
    (1 - 2^-54 ties to 1, the even neighbour).  From 2^52 on x is an integer,
    and h is under half its spacing."""
    x = np.divide(m, s)
    x += np.copysign(_HALF_DOWN, x)
    return np.trunc(x, out=x)


def _blocks(size: int, bits, widths) -> list[tuple[int, int | None]]:
    """The (width, bits) of each nonempty block of ``size`` rows or columns:
    one block of all of them when ``widths`` is None, else consecutive
    blocks of ``widths`` at the bit widths in ``bits``."""
    if widths is None:
        return [(size, bits)]
    return [(width, b) for width, b in zip(widths, bits) if width]


def _act_fit(m: np.ndarray, blocks):
    """(S, z, levels, hi) of ``quantize_act``: one scale and integer-valued
    float zero-point per group of a nonempty ``m``, kept 2-D (rows x
    blocks), each block's levels = q_max = 2^b - 1 (q_min is 0), and each
    group's maximum widened to zero.

    Each group's range is widened to include zero, so zero and constants map
    onto grid points and one-signed groups never saturate; all-zero groups
    get S = 1, z = 0.  Scales are floored at the smallest positive normal,
    so subnormal groups never underflow to a zero scale.
    """
    levels = np.array([2.0**b - 1 for _, b in blocks])
    starts = list(accumulate((width for width, _ in blocks[:-1]), initial=0))
    # reduceat along axis 1, against a loop over blocks: 500 against 873 us at 1024 x 512.
    hi = np.maximum.reduceat(m, starts, axis=1)
    lo = np.minimum.reduceat(m, starts, axis=1)
    np.minimum(lo, 0.0, out=lo)
    np.maximum(hi, 0.0, out=hi)
    with np.errstate(over="ignore"):
        span = hi - lo
    step = span / levels
    # hi - lo overflows only for finite ranges wider than the largest float;
    # only there is the step computed as hi/levels - lo/levels.
    inf = np.isinf(span)
    if np.count_nonzero(inf):
        level = np.broadcast_to(levels, span.shape)[inf]
        step[inf] = hi[inf] / level - lo[inf] / level
    scales = np.where(span > 0, np.maximum(step, _TINY), 1.0)
    # S >= (hi - lo) / levels >= -lo / levels up to one rounding, so the
    # zero-point round(-lo / S) already lies in [0, levels] = [q_min, q_max].
    np.negative(lo, out=lo)
    return scales, _round_div(lo, scales), levels, hi


def _weight_params(m: np.ndarray, bits, widths=None) -> np.ndarray:
    """The scales of ``quantize_weight(m, bits, widths)``: one per column of
    each nonempty row block of ``m``, kept 2-D (blocks x cols), S = max|m| /
    q_max floored at the smallest positive normal (1 for an all-zero group).
    So |m| / S <= q_max (1 + 2^-52), which rounds to at most q_max: no code
    round(m/S) needs a clamp."""
    blocks = _blocks(m.shape[0], bits, widths)
    hi = np.empty((len(blocks), m.shape[1]))
    lo = np.empty_like(hi)
    # One reduction per row block: reduceat along axis 0 takes 1789 against 215 us at 530 x 512.
    start = 0
    for k, (width, _) in enumerate(blocks):
        np.maximum.reduce(m[start : start + width], axis=0, out=hi[k])
        np.minimum.reduce(m[start : start + width], axis=0, out=lo[k])
        start += width
    q_max = np.array([[2.0 ** (b - 1) - 1] for _, b in blocks])
    # max |m| = max(max m, -min m), with no |m| copy of the matrix.
    np.negative(lo, out=lo)
    np.maximum(hi, lo, out=hi)
    return np.where(hi > 0, np.maximum(hi / q_max, _TINY), 1.0)


def _round(m: np.ndarray, s: np.ndarray, blocks, axis: int, top, ceiling=None):
    """round(m/S) * S and the straight-through mask, for codes below ``top``
    in magnitude: each group's scale (and ceiling) is spread over its block
    along ``axis``, so the divide and the multiply each run once, on whole
    contiguous matrices.  With a ``ceiling``, codes above it are clamped to
    it and the mask is False there; without one the mask is None."""
    widths = [width for width, _ in blocks]
    spread = s.repeat(widths, axis=axis)
    q = _round_div(m, spread)
    mask = None
    if ceiling is not None:
        ceiling = ceiling.repeat(widths, axis=axis)
        mask = q <= ceiling
        np.minimum(q, ceiling, out=q)
    q += 0.0  # turns -0.0 into +0.0
    # Where S <= max float / top, |q| S stays below the largest float,
    # rounding included; if some group's scale is larger, the products are
    # clamped to +-max float (a no-op on the others), never inf.
    if not np.count_nonzero(s > _MAX / top):
        q *= spread
        return q, mask
    with np.errstate(over="ignore"):
        q *= spread
    return np.clip(q, -_MAX, _MAX, out=q), mask


def quantize_act(m: np.ndarray, bits, widths=None) -> tuple[np.ndarray, np.ndarray | None]:
    """Asymmetric fake quantization, one group per row of each column block
    of a nonempty ``m``; (value, STE mask), the mask False where
    round(x/S)+z is clamped, and None where no code is."""
    blocks = _blocks(m.shape[1], bits, widths)
    if blocks[0][1] is None:
        return m.copy(), None
    s, z, levels, hi = _act_fit(m, blocks)
    # Rounding is monotone and odd, so a group's lowest code is
    # round(lo/S) + z = 0, and its codes leave [0, levels] exactly when its
    # maximum's code round(hi/S) + z does: for hi >= 0, exactly when
    # hi/S >= levels - z + 1/2 (both sides exact, halves away from zero).
    # Then round(m/S) is clamped at levels - z, which below 2^53 equals
    # min(round(m/S) + z, levels) - z for integer-valued floats.
    ceiling = levels - z
    clamps = np.count_nonzero(hi / s >= ceiling + 0.5)
    return _round(m, s, blocks, 1, levels.max() + 1, ceiling if clamps else None)


def quantize_weight(m: np.ndarray, bits, widths=None) -> np.ndarray:
    """Symmetric fake quantization, one group per column of each row block
    of a nonempty ``m``: round(m/S) * S, with no clamp (see
    ``_weight_params``)."""
    blocks = _blocks(m.shape[0], bits, widths)
    if blocks[0][1] is None:
        return m.copy()
    top = 2.0 ** (max(b for _, b in blocks) - 1)
    return _round(m, _weight_params(m, bits, widths), blocks, 0, top)[0]
