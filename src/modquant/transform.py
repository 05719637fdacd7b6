"""The split layer's smoothing-scale policy.

Each path is smoothed with SmoothQuant's per-channel migration scale s:
Y = (X diag(s)) (diag(s)^-1 W) leaves the output unchanged and moves
activation outliers into the weights before quantization.  This module holds
the init of s from calibration activations and the bounds every scale keeps:
calibration clips its log-scales to them, and ``load_layer`` checks them.
"""

from __future__ import annotations

import numpy as np

DIAG_EPS = 1e-6
DIAG_MAX = 1e6
SMOOTHING_ALPHA = 0.5


def smoothing_scale(x: np.ndarray) -> np.ndarray:
    """s_i = max(eps, max_rows |X[:, i]|) ** alpha, clipped to the bounds.
    ``x`` must already be a finite 2-D float64 matrix with at least one row."""
    col_max = np.max(np.abs(x), axis=0)
    d = np.maximum(col_max, DIAG_EPS) ** SMOOTHING_ALPHA
    return np.clip(d, DIAG_EPS, DIAG_MAX)


def checked_scale(values: np.ndarray) -> np.ndarray:
    """A 1-D ``values`` as a float64 scale vector; raises ``ValueError``
    unless every entry is positive and in [DIAG_EPS, DIAG_MAX]."""
    scale = np.array(values, dtype=np.float64)
    mag = np.abs(scale)
    if np.any(mag < DIAG_EPS) or np.any(mag > DIAG_MAX):
        raise ValueError(f"diagonal magnitudes must lie in [{DIAG_EPS}, {DIAG_MAX}]")
    if np.any(scale <= 0):
        raise ValueError("diagonal scales must be positive")
    return scale
