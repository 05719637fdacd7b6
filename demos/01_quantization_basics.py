"""Fake quantization walkthrough: scales, zero-points, and error behavior.

Run with:  python3 demos/01_quantization_basics.py
"""

import numpy as np

from modquant import Granularity, QuantSpec
from modquant.quantizer import quantize_ste

rng = np.random.default_rng(0)

# ---------------------------------------------------------------------------
# A symmetric per-tensor quantizer keeps the zero-point at 0 and derives the
# scale from the absolute maximum: S = max|x| / q_max.
# ---------------------------------------------------------------------------
x = rng.standard_normal((4, 6))
spec8 = QuantSpec(bits=8, symmetric=True, granularity=Granularity.PER_TENSOR)
scale = np.max(np.abs(x)) / spec8.q_max
once, mask = quantize_ste(x, spec8)
print("8-bit symmetric scale:", scale)
print("max |error|:", np.max(np.abs(x - once)))
print("half scale  :", scale / 2)
print("clamped values:", int(np.count_nonzero(~mask)))

# ---------------------------------------------------------------------------
# Quantize-dequantize is idempotent: once a value sits on the integer grid,
# re-quantizing does not move it.
# ---------------------------------------------------------------------------
twice, _ = quantize_ste(once, spec8)
print("idempotent:", np.array_equal(once, twice))

# ---------------------------------------------------------------------------
# Error shrinks monotonically with bit width.  From here on only the value
# is used: [0] drops the mask.
# ---------------------------------------------------------------------------
print("\nbits  mse")
for bits in (2, 3, 4, 6, 8, 12):
    spec = QuantSpec(bits, True, Granularity.PER_TENSOR)
    print(f"{bits:4d}  {np.mean((x - quantize_ste(x, spec)[0]) ** 2):.3e}")

# ---------------------------------------------------------------------------
# Granularity matters once channels have very different ranges: one huge
# column ruins a per-tensor scale but leaves per-channel scales untouched.
# ---------------------------------------------------------------------------
y = rng.standard_normal((64, 8))
y[:, 3] *= 100.0
for gran in (Granularity.PER_TENSOR, Granularity.PER_CHANNEL):
    spec = QuantSpec(4, True, gran)
    mse_small = np.mean((y[:, :3] - quantize_ste(y, spec)[0][:, :3]) ** 2)
    print(f"{gran.value:12s} mse on ordinary columns: {mse_small:.3e}")

# ---------------------------------------------------------------------------
# bits=None is the identity sentinel used by the exact-cancellation tests.
# ---------------------------------------------------------------------------
ident = QuantSpec(None, True, Granularity.PER_TENSOR)
print("\nidentity quantizer returns input exactly:",
      np.array_equal(quantize_ste(y, ident)[0], y))
