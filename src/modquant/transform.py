"""Invertible transformations.

A transform P rewrites a linear layer as Y = (X P)(P^-1 W) without changing
its output; applying it before quantization redistributes outliers between
activations and weights.  Two families are supported: per-channel diagonal
scaling and small dense invertible matrices.  The split layer holds its
diagonal as one plain scale vector; it takes the smoothing init and the
range check of loaded scales from here, and the ``apply_*`` functions serve
the computational-invariance check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import as_matrix

DIAG_EPS = 1e-6
DIAG_MAX = 1e6
DENSE_INVERSE_TOL = 1e-8
SMOOTHING_ALPHA = 0.5


@dataclass(frozen=True)
class Transform:
    """Either a diagonal scaling (scale set) or a dense invertible matrix."""

    dim: int
    scale: np.ndarray | None = None
    dense: np.ndarray | None = None
    dense_inv: np.ndarray | None = field(default=None, repr=False)

    @property
    def is_diagonal(self) -> bool:
        return self.scale is not None


def diagonal_transform(scale: np.ndarray) -> Transform:
    scale = np.array(scale, dtype=np.float64)
    if scale.ndim != 1:
        raise ValueError("diagonal scale must be 1-D")
    mag = np.abs(scale)
    if np.any(mag < DIAG_EPS) or np.any(mag > DIAG_MAX):
        raise ValueError(f"diagonal magnitudes must lie in [{DIAG_EPS}, {DIAG_MAX}]")
    if np.any(scale <= 0):
        raise ValueError("diagonal scales must be positive")
    return Transform(dim=scale.shape[0], scale=scale)


def dense_transform(p: np.ndarray) -> Transform:
    """Construct a dense transform; rejects badly conditioned matrices."""
    p = as_matrix(p)
    if p.shape[0] != p.shape[1]:
        raise ValueError("dense transform must be square")
    try:
        p_inv = np.linalg.inv(p)
    except np.linalg.LinAlgError as exc:
        raise ValueError("dense transform is singular") from exc
    residual = np.max(np.abs(p @ p_inv - np.eye(p.shape[0])))
    if not np.isfinite(residual) or residual > DENSE_INVERSE_TOL:
        raise ValueError(
            f"inverse residual {residual:.3e} exceeds {DENSE_INVERSE_TOL:.0e}"
        )
    return Transform(dim=p.shape[0], dense=p, dense_inv=p_inv)


def identity_transform(dim: int) -> Transform:
    return diagonal_transform(np.ones(dim))


def init_transform(dim: int, x_calib: np.ndarray | None = None) -> Transform:
    """Diagonal identity init, or activation-magnitude smoothing init when
    calibration data is given: d_i = max(eps, max_rows |X[:, i]|) ** alpha."""
    if x_calib is None or x_calib.size == 0:
        return diagonal_transform(np.ones(dim))
    x_calib = as_matrix(x_calib, cols=dim)
    col_max = np.max(np.abs(x_calib), axis=0)
    d = np.maximum(col_max, DIAG_EPS) ** SMOOTHING_ALPHA
    return diagonal_transform(np.clip(d, DIAG_EPS, DIAG_MAX))


def apply_right(x: np.ndarray, t: Transform) -> np.ndarray:
    """X -> X P (diagonal: column-wise scaling).  Checks shapes only: ``x``
    must already be a finite matrix."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != t.dim:
        raise ValueError(f"matrix shape {x.shape} does not fit transform dim {t.dim}")
    if t.is_diagonal:
        return x * t.scale[np.newaxis, :]
    return x @ t.dense


def apply_inv_left(w: np.ndarray, t: Transform) -> np.ndarray:
    """W -> P^-1 W (diagonal: row-wise scaling by 1/d).  Checks shapes only:
    ``w`` must already be a finite matrix."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != t.dim:
        raise ValueError(f"matrix shape {w.shape} does not fit transform dim {t.dim}")
    if t.is_diagonal:
        return w / t.scale[:, np.newaxis]
    return t.dense_inv @ w

