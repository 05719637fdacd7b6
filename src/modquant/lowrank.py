"""Truncated SVD and gated low-rank branch construction.

Both auxiliary branches (weight smoothing and activation compensation) are
anchored to the dominant singular subspace of the main-path weight: the left
factor's rows are divided by the path's smoothing scales, and learnability
is confined to a diagonal gate reweighting the singular directions.  One
SVD at the larger rank serves both branches: the sign convention is per
column, so each branch's leading r triplets equal those of a rank-r SVD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import as_matrix


@dataclass(frozen=True)
class SvdFactors:
    u: np.ndarray        # rows x r, orthonormal columns
    sigma: np.ndarray    # length r, descending, nonnegative
    vt: np.ndarray       # r x cols, orthonormal rows


def truncated_svd(w: np.ndarray, r: int) -> SvdFactors:
    """Best rank-r factors of w (Eckart-Young optimal in Frobenius norm).

    Sign convention: the first nonzero entry of each left singular vector is
    made positive, so results are deterministic across runs.
    """
    w = as_matrix(w)
    if not 1 <= r <= min(w.shape):
        raise ValueError(f"rank {r} out of range for shape {w.shape}")
    u, s, vt = np.linalg.svd(w, full_matrices=False)
    u, s, vt = u[:, :r].copy(), s[:r].copy(), vt[:r].copy()
    for j in range(r):
        col = u[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size and col[nz[0]] < 0:
            u[:, j] = -col
            vt[j] = -vt[j]
    return SvdFactors(u, s, vt)


@dataclass(frozen=True)
class LowRankBranch:
    """Gated rank-r branch: effective product is u_star @ diag(gate) @ v_base."""

    u_star: np.ndarray   # path_width x r
    v_base: np.ndarray   # r x d_out, holds sigma_r * vt_r
    gate: np.ndarray     # length r, learnable

    @property
    def rank(self) -> int:
        return self.u_star.shape[1]

    def effective_v(self) -> np.ndarray:
        return self.gate[:, None] * self.v_base


def build_branch(factors: SvdFactors, scale: np.ndarray, r: int) -> LowRankBranch:
    """Anchor a branch to the leading r triplets of ``truncated_svd(w_m, R)``.

    ``scale`` holds the main path's smoothing scales, one per row of w_m.
    With the gate at its all-ones init, the branch product equals the rank-r
    approximation of w_m with row i divided by scale[i].
    """
    if scale.shape != (factors.u.shape[0],):
        raise ValueError(f"{scale.size} scales for {factors.u.shape[0]} weight rows")
    if not 1 <= r <= factors.sigma.size:
        raise ValueError(f"rank {r} out of range for {factors.sigma.size} factors")
    u_star = factors.u[:, :r] / scale[:, None]
    v_base = factors.sigma[:r, None] * factors.vt[:r]
    return LowRankBranch(u_star, v_base, np.ones(r))


def default_rank(ratio: float, path_width: int, d_out: int) -> int:
    """Rank from a ratio of the full weight rank, at least 1 on nonempty paths."""
    full = min(path_width, d_out)
    if full == 0:
        return 0
    return max(1, int(np.floor(ratio * full + 0.5)))

