"""Fake quantization walkthrough: scales, zero-points, and error behavior.

Run with:  python3 demos/01_quantization_basics.py
"""

import numpy as np

from modquant.quantizer import quantize_act, quantize_weight

rng = np.random.default_rng(0)

# ---------------------------------------------------------------------------
# The weight quantizer is symmetric with one scale per column (output
# channel): the zero-point is 0 and S = max|column| / q_max, q_max = 2^(b-1) - 1.
# A bit width is its whole setting.
# ---------------------------------------------------------------------------
x = rng.standard_normal((4, 6))
q_max = 2 ** (8 - 1) - 1
scale = np.max(np.abs(x), axis=0) / q_max
once = quantize_weight(x, 8)
print("8-bit symmetric scales per column:", np.round(scale, 5))
print("max |error| <= S/2 in every column:", bool(np.all(np.abs(x - once) <= scale / 2)))
# S is fitted to the column's absmax, so no weight code needs a clamp.
codes = np.round(once / scale)
print(f"every weight code in [-{q_max}, {q_max}]:", bool(np.all(np.abs(codes) <= q_max)))

# ---------------------------------------------------------------------------
# Quantize-dequantize is idempotent: once a value sits on the integer grid,
# re-quantizing does not move it.
# ---------------------------------------------------------------------------
twice = quantize_weight(once, 8)
print("idempotent:", np.array_equal(once, twice))

# ---------------------------------------------------------------------------
# Error shrinks monotonically with bit width, for both quantizers.  The
# activation quantizer is asymmetric with one scale and zero-point per row
# (token) and returns its value with a clamp mask: [0] drops the mask.
# ---------------------------------------------------------------------------
print("\nbits  weight mse  act mse")
for bits in (2, 3, 4, 6, 8, 12):
    mse_w = np.mean((x - quantize_weight(x, bits)) ** 2)
    mse_a = np.mean((x - quantize_act(x, bits)[0]) ** 2)
    print(f"{bits:4d}  {mse_w:.3e}  {mse_a:.3e}")

# ---------------------------------------------------------------------------
# The grouping matters once channels have very different ranges: one huge
# column leaves the per-column weight scales of the other columns untouched,
# but enters every row's activation scale.  That is why outlier channels of
# the activations are split off into their own paths.
# ---------------------------------------------------------------------------
y = rng.standard_normal((64, 8))
y[:, 3] *= 100.0
for name, value in (("quantize_weight", quantize_weight(y, 4)),
                    ("quantize_act", quantize_act(y, 4)[0])):
    mse_small = np.mean((y[:, :3] - value[:, :3]) ** 2)
    print(f"{name:15s} 4-bit mse on ordinary columns: {mse_small:.3e}")

# ---------------------------------------------------------------------------
# bits=None is the identity sentinel used by the exact-cancellation tests.
# ---------------------------------------------------------------------------
print("\nidentity quantizers return input exactly:",
      np.array_equal(quantize_weight(y, None), y) and np.array_equal(quantize_act(y, None)[0], y))
