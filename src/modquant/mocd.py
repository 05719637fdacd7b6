"""Modality-specific outlier channel selection.

Vision-specific outlier channels are picked by maximum absolute activation.
Text-specific ones are picked among the remaining channels by rank
instability: each channel's within-token percentile ranks are clustered
(1-D k-means) and scored by within-cluster variance.  The leftover channels
form the modality-compatible main set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ActivationBatch

KMEANS_MAX_ITER = 50


@dataclass(frozen=True)
class ChannelPartition:
    """Disjoint (main, text, vision) channel index sets covering 0..dim-1."""

    c_main: np.ndarray
    c_text: np.ndarray
    c_vision: np.ndarray
    dim: int

    def __post_init__(self):
        for name in ("c_main", "c_text", "c_vision"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            if arr.size and (np.any(np.diff(arr) <= 0)):
                raise ValueError(f"{name} must be strictly ascending")
            object.__setattr__(self, name, arr)
        total = np.concatenate([self.c_main, self.c_text, self.c_vision])
        if len(np.unique(total)) != len(total):
            raise ValueError("channel sets must be pairwise disjoint")
        if len(total) != self.dim or (
            self.dim and (total.min() < 0 or total.max() >= self.dim)
        ):
            raise ValueError("channel sets must cover exactly 0..dim-1")
        if len(self.c_main) < len(self.c_text) or len(self.c_main) < len(self.c_vision):
            raise ValueError("main set must be at least as large as each outlier set")


def trivial_partition(dim: int) -> ChannelPartition:
    return ChannelPartition(np.arange(dim), np.empty(0, np.int64), np.empty(0, np.int64), dim)


@dataclass(frozen=True)
class MocdConfig:
    ratio_vision: float = 0.02
    ratio_text: float = 0.02
    clusters_k: int = 3

    def __post_init__(self):
        for name in ("ratio_vision", "ratio_text"):
            r = getattr(self, name)
            if not 0.0 <= r <= 0.5:
                raise ValueError(f"{name} must be in [0, 0.5], got {r}")
        if self.clusters_k < 1:
            raise ValueError("clusters_k must be positive")

    def k_vision(self, dim: int) -> int:
        return int(np.floor(self.ratio_vision * dim + 0.5))

    def k_text(self, dim: int) -> int:
        return int(np.floor(self.ratio_text * dim + 0.5))


def vision_score(batch: ActivationBatch) -> np.ndarray:
    """Per-channel maximum absolute activation over vision tokens."""
    rows = batch.vision_rows
    if rows.size == 0:
        raise ValueError("no vision tokens present")
    return np.max(np.abs(batch.data[rows]), axis=0)


def select_topk(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest scores, ties to the lower index, sorted ascending."""
    scores = np.asarray(scores, dtype=np.float64)
    if k > scores.shape[0]:
        raise ValueError(f"k={k} exceeds score vector length {scores.shape[0]}")
    if k == 0:
        return np.empty(0, dtype=np.int64)
    # Stable sort on (-score, index): equal scores keep ascending index order.
    order = np.argsort(-scores, kind="stable")
    return np.sort(order[:k]).astype(np.int64)


def percentile_rank(
    batch: ActivationBatch, candidate_channels: np.ndarray
) -> np.ndarray:
    """Within-token percentile rank of |activation| over the candidate set.

    Returns a (num text tokens) x (num candidates) matrix with entries in
    (0, 1]; ties count via <=, so a constant row ranks 1 everywhere.
    """
    cand = np.asarray(candidate_channels, dtype=np.int64)
    if cand.size == 0:
        raise ValueError("candidate channel set is empty")
    rows = batch.text_rows
    if rows.size == 0:
        raise ValueError("no text tokens present")
    a = np.abs(batch.data[np.ix_(rows, cand)])
    ranks = np.empty_like(a)
    for i in range(a.shape[0]):
        srt = np.sort(a[i])
        ranks[i] = np.searchsorted(srt, a[i], side="right")
    return ranks / cand.size


def _kmeans_1d(values: np.ndarray, k: int) -> float:
    """Lloyd's algorithm on 1-D data with quantile-based init.

    Returns the within-cluster variance (mean squared deviation from the
    assigned center).  Effective k drops to the number of distinct values.
    """
    distinct = np.unique(values)
    k = min(k, distinct.size)
    if k == 1:
        return float(np.var(values))
    quantiles = (2 * np.arange(1, k + 1) - 1) / (2 * k)
    centers = np.quantile(values, quantiles)
    assign = np.argmin(np.abs(values[:, None] - centers[None, :]), axis=1)
    for _ in range(KMEANS_MAX_ITER):
        new_centers = centers.copy()
        for j in range(k):
            members = values[assign == j]
            if members.size:
                new_centers[j] = members.mean()
        new_assign = np.argmin(np.abs(values[:, None] - new_centers[None, :]), axis=1)
        centers = new_centers
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return float(np.mean((values - centers[assign]) ** 2))


def text_score(ranks: np.ndarray, k: int) -> np.ndarray:
    """Rank-instability score per candidate channel: within-cluster variance
    of the channel's rank sequence after 1-D k-means into k groups."""
    if k < 1:
        raise ValueError("cluster count must be positive")
    if k > ranks.shape[0]:
        raise ValueError("cluster count exceeds number of text tokens")
    return np.array(
        [_kmeans_1d(ranks[:, c], k) for c in range(ranks.shape[1])]
    )


def build_partition(batch: ActivationBatch, cfg: MocdConfig) -> ChannelPartition:
    """Compose scoring and selection into a full channel partition.

    Vision channels come first (top-K over all channels), text channels are
    drawn from the remainder, and everything else is the main set.
    """
    dim = batch.data.shape[1]
    k_v = cfg.k_vision(dim)
    k_t = cfg.k_text(dim)
    all_channels = np.arange(dim)
    if k_v > 0:
        if batch.vision_rows.size == 0:
            raise ValueError("nonzero vision ratio but no vision tokens")
        c_vision = select_topk(vision_score(batch), k_v)
    else:
        c_vision = np.empty(0, dtype=np.int64)
    remaining = np.setdiff1d(all_channels, c_vision)
    if k_t > 0:
        if batch.text_rows.size == 0:
            raise ValueError("nonzero text ratio but no text tokens")
        ranks = percentile_rank(batch, remaining)
        scores = text_score(ranks, min(cfg.clusters_k, ranks.shape[0]))
        c_text = remaining[select_topk(scores, k_t)]
    else:
        c_text = np.empty(0, dtype=np.int64)
    c_main = np.setdiff1d(all_channels, np.concatenate([c_vision, c_text]))
    return ChannelPartition(c_main, c_text, c_vision, dim)


def jaccard(a, b) -> float:
    """|A n B| / |A u B|; two empty sets count as identical (1.0)."""
    sa, sb = set(np.asarray(a, dtype=np.int64).tolist()), set(
        np.asarray(b, dtype=np.int64).tolist()
    )
    union = sa | sb
    if not union:
        return 1.0
    return len(sa & sb) / len(union)
