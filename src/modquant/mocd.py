"""Modality-specific outlier channel selection.

Vision-specific outlier channels are picked by maximum absolute activation.
Text-specific ones are picked among the remaining channels by rank
instability: each channel's within-token rank counts are clustered by exact
1-D k-means on integers, all channels at once, and scored by within-cluster
variance.  The leftover channels form the modality-compatible main set.
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
    """Within-token rank counts of |activation| over the candidate set.

    Returns a (num text tokens) x (num candidates) int64 matrix: each entry
    counts the candidates in its token whose |activation| is <= its own, so
    it lies in 1..C for C candidates (C throughout a constant row), and the
    percentile rank is count / C.
    """
    cand = np.asarray(candidate_channels, dtype=np.int64)
    if cand.size == 0:
        raise ValueError("candidate channel set is empty")
    rows = batch.text_rows
    if rows.size == 0:
        raise ValueError("no text tokens present")
    a = np.abs(batch.data[np.ix_(rows, cand)])
    order = np.argsort(a, axis=1)
    srt = np.take_along_axis(a, order, axis=1)
    # A count is one past the sorted position of the last entry equal to it.
    run_end = np.diff(srt, axis=1, append=np.inf) != 0
    ends = np.where(run_end, np.arange(1, cand.size + 1), cand.size)
    ends = np.minimum.accumulate(ends[:, ::-1], axis=1)[:, ::-1]
    counts = np.empty_like(ends)
    np.put_along_axis(counts, order, ends, axis=1)
    return counts


def _nearest(levels: np.ndarray, num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Per row, the index of the center num/den nearest each level, ties to the
    lower index.  Over den_i den_j the centers i, j are a_i, a_j, and j is strictly
    nearer to v when sign(a_j - a_i) (2 v den_i den_j - a_i - a_j) > 0 (in int64)."""
    best = np.zeros((num.shape[0], levels.size), dtype=np.min_scalar_type(num.shape[1]))
    for j in range(1, num.shape[1]):
        closer = np.zeros(best.shape, dtype=bool)
        for i in range(j):
            a_i, a_j = num[:, [i]] * den[:, [j]], num[:, [j]] * den[:, [i]]
            sign, two_d = np.sign(a_j - a_i), 2 * den[:, [i]] * den[:, [j]]
            closer |= (best == i) & (sign * two_d * levels > sign * (a_i + a_j))
        best[closer] = j
    return best


def _lloyd_sse(hist: np.ndarray, tokens: int, k: int) -> np.ndarray:
    """Within-cluster sum of squares after k-means, per row of a histogram
    of the levels 1..L, all rows at once.  Centers are exact fractions
    num/den; np.quantile's linear interpolation between sorted positions i
    and i + 1 at fraction r / 2k is (2k v_i + r (v_(i+1) - v_i)) / 2k."""
    def cluster_sums(assign, *weights):
        onehot = assign[:, None, :] == np.arange(k)[:, None]
        return [np.einsum("nkl,nl->nk", onehot, w) for w in weights]

    levels = np.arange(1, hist.shape[1] + 1)
    i, r = np.divmod((2 * np.arange(1, k + 1) - 1) * (tokens - 1), 2 * k)
    cum = np.cumsum(hist, axis=1)[:, :, None]
    v_lo = 1 + np.count_nonzero(cum <= i, axis=1)
    v_hi = 1 + np.count_nonzero(cum <= i + 1, axis=1)  # r = 0 where i + 1 = tokens
    num, den = 2 * k * v_lo + r * (v_hi - v_lo), np.full((hist.shape[0], k), 2 * k)
    assign = _nearest(levels, num, den)
    active, hist_x = np.arange(hist.shape[0]), hist * levels
    for _ in range(KMEANS_MAX_ITER):
        w, s = cluster_sums(assign[active], hist[active], hist_x[active])
        num[active] = np.where(w > 0, s, num[active])
        den[active] = np.where(w > 0, w, den[active])
        new = _nearest(levels, num[active], den[active])
        moved = np.any(new != assign[active], axis=1)
        assign[active] = new
        active = active[moved]
        if active.size == 0:
            break
    # Per cluster, sum h (x - c)^2 = (Q W - S^2 + (S den - num W)^2 / den^2) / W; the
    # second term, the center's offset from the mean, is 0 unless the cap stopped it.
    w, s, q = cluster_sums(assign, hist, hist_x, hist_x * levels)
    sse = (q * w - s * s) + (s * den - num * w).astype(np.float64) ** 2 / den**2
    return np.sum(np.divide(sse, w, out=np.zeros_like(sse), where=w > 0), axis=1)


def text_score(ranks: np.ndarray, k: int) -> np.ndarray:
    """Rank-instability score per candidate channel: the within-cluster
    variance, in rank units (count / C), of its column of ``percentile_rank``
    counts (1..C for C columns) after 1-D k-means into k groups, or fewer if
    the column has fewer distinct values.  k-means is exact Lloyd's algorithm:
    np.quantile's centers, each value to its nearest center with ties to the
    lower index, an empty cluster keeps its center, KMEANS_MAX_ITER updates.
    """
    tokens, cols = ranks.shape
    if k < 1:
        raise ValueError("cluster count must be positive")
    if k > tokens:
        raise ValueError("cluster count exceeds number of text tokens")
    if ranks.dtype.kind not in "iu" or ranks.min() < 1 or ranks.max() > cols:
        raise ValueError(f"ranks must be integer counts in 1..{cols}")
    flat = (ranks + np.arange(-1, cols * cols - 1, cols)).ravel()
    hist = np.bincount(flat, minlength=cols * cols).reshape(cols, cols)
    k_col = np.minimum(k, np.count_nonzero(hist, axis=1))
    sse = np.empty(cols)
    for kk in np.unique(k_col):
        sse[k_col == kk] = _lloyd_sse(hist[k_col == kk], tokens, int(kk))
    return sse / (tokens * cols * cols)


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
