"""End-to-end low-bit pipeline: split layer, corrections, and calibration.

Builds a quantized linear layer at aggressive bit widths, shows how each
component (channel split, weight smoothing branch, activation compensation
branch) reduces reconstruction error, then calibrates the learnable
parameters by gradient descent.

Run with:  python3 demos/03_split_layer_and_calibration.py
"""

import numpy as np

from modquant import (
    CalibConfig,
    MocdConfig,
    SynthConfig,
    build_layer,
    build_partition,
    calibrate,
    forward,
    forward_reference,
    generate,
    generate_weight,
)
from modquant.mocd import trivial_partition

batch = generate(SynthConfig(seed=7))
w = generate_weight(64, 64, seed=123)
ref = forward_reference(w, batch)


def mse(layer):
    return float(np.mean((forward(layer, batch) - ref) ** 2))


# ---------------------------------------------------------------------------
# Ablation at 3-bit weights and activations: a bit width per role is the
# whole quantizer setting (activations asymmetric per token, weights
# symmetric per output channel).  The naive layer quantizes the huge vision
# outlier channels together with everything else; splitting them off is
# where nearly all of the win comes from.
# ---------------------------------------------------------------------------
part = build_partition(batch, MocdConfig(ratio_vision=2 / 64, ratio_text=2 / 64))
# A correction branch is built when its rank ratio is positive.
variants = [
    ("no split, no corrections", trivial_partition(64), 0.0, 0.0),
    ("channel split", part, 0.0, 0.0),
    ("split + weight smoothing", part, 0.02, 0.0),
    ("split + smoothing + compensation", part, 0.02, 0.03),
]
print("reconstruction MSE at 3-bit weights / 3-bit activations:")
layers = {}
for name, p, rank_cws, rank_mac in variants:
    layer = build_layer(w, batch, p, act_bits=3, weight_bits=3,
                        rank_cws=rank_cws, rank_mac=rank_mac)
    layers[name] = layer
    print(f"  {name:34s} {mse(layer):10.4f}")

# ---------------------------------------------------------------------------
# Sanity: with identity quantizers everything cancels algebraically and the
# layer reproduces X @ W to machine precision, corrections included.
# ---------------------------------------------------------------------------
exact = build_layer(w, batch, part, act_bits=None, weight_bits=None,
                    rank_cws=0.02, rank_mac=0.03)
err = np.linalg.norm(forward(exact, batch) - ref) / np.linalg.norm(ref)
print(f"\nidentity-quantizer relative error: {err:.2e}")

# ---------------------------------------------------------------------------
# Calibration: gradient descent on the per-channel scaling transforms and
# the branch gates, straight-through through the rounding.
# ---------------------------------------------------------------------------
full = layers["split + smoothing + compensation"]
calibrated, trace = calibrate(full, batch, CalibConfig(steps=200))
print(f"\ncalibration: initial loss {trace.losses[0]:.4f}, "
      f"best {trace.best_loss:.4f} at step {trace.best_step} "
      f"({1 - trace.best_loss / trace.losses[0]:.1%} improvement)")
print(f"calibrated layer MSE: {mse(calibrated):.4f}")
