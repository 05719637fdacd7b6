"""Modality-specific outlier channel selection.

Vision-specific outlier channels are picked by maximum absolute activation.
Text-specific ones are picked among the remaining channels by rank
instability: each channel's within-token rank counts are clustered by exact
1-D k-means on integers, all channels at once, and scored by within-cluster
variance; in 1-D each cluster is an interval of levels (Ckmeans.1d.dp), so a
Lloyd step costs O(k^2) per channel, whatever the number of levels.  The
leftover channels form the modality-compatible main set.  Ranks are
row-local, so the stability report ranks its subsets' rows once (``_partition``).
``build_partition`` is the entry point and checks what its steps need; the
steps (``vision_score``, ``select_topk``, ``percentile_rank``,
``text_score``, ``jaccard``) state their preconditions and check nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ActivationBatch

KMEANS_MAX_ITER = 50
DEFAULT_RATIO = 0.02  # selection ratio per modality, shared by MocdConfig and the CLI


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
    ratio_vision: float = DEFAULT_RATIO
    ratio_text: float = DEFAULT_RATIO
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
    """Per-channel maximum absolute activation over vision tokens; the batch
    holds at least one."""
    return np.max(np.abs(batch.data[batch.vision_rows]), axis=0)


def select_topk(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest of a float64 score vector, 0 <= k <= its
    length, ties to the lower index, sorted ascending."""
    # Stable sort on (-score, index): equal scores keep ascending index order.
    order = np.argsort(-scores, kind="stable")
    return np.sort(order[:k]).astype(np.int64)


def percentile_rank(batch: ActivationBatch, cand: np.ndarray) -> np.ndarray:
    """Within-token rank counts of |activation| over the candidate channels
    ``cand``, a nonempty int64 index array, on a batch with a text token.

    Returns a (num text tokens) x (num candidates) int64 matrix: each entry
    counts the candidates in its token whose |activation| is <= its own, so
    it lies in 1..C for C candidates (C throughout a constant row), and the
    percentile rank is count / C.
    """
    rows = batch.text_rows
    # Each float array is released before the int64 stages, so at most three
    # arrays of the result's size are alive at once.
    a = batch.data[np.ix_(rows, cand)]
    np.abs(a, out=a)
    order = np.argsort(a, axis=1)
    srt = np.take_along_axis(a, order, axis=1)
    del a
    # A count is one past the sorted position of the last entry equal to it.
    run_end = np.empty(srt.shape, dtype=bool)
    run_end[:, -1] = True
    np.not_equal(srt[:, 1:], srt[:, :-1], out=run_end[:, :-1])
    del srt
    ends = np.where(run_end, np.arange(1, cand.size + 1), cand.size)
    del run_end
    backward = ends[:, ::-1]
    np.minimum.accumulate(backward, axis=1, out=backward)
    counts = np.empty_like(ends)
    np.put_along_axis(counts, order, ends, axis=1)
    return counts


def _intervals(num: np.ndarray, den: np.ndarray, levels: int):
    """Per row, the levels [lo, hi] (1, 0 if none) nearest each center
    num_j/den_j, ties to the lower index.  Over den_i den_j the centers are
    a_i, a_j; j takes v where sign(a_j - a_i) (2 v den_i den_j - a_i - a_j) is
    >= 1 for all i < j and >= 0 for all i > j, each a bound below or above."""
    a = num[:, :, None] * den[:, None, :]
    side, mid2 = np.sign(a - a.swapaxes(1, 2)), a + a.swapaxes(1, 2)
    two_d, tie = 2 * den[:, :, None] * den[:, None, :], np.tri(num.shape[1], k=-1, dtype=int)
    lo = np.where(side > 0, -((-mid2 - tie) // two_d), 1).max(axis=2)
    hi = np.where(side < 0, (mid2 - tie) // two_d, np.where(side < tie, 0, levels)).min(axis=2)
    return np.where(lo > hi, 1, lo), np.where(lo > hi, 0, hi)


def _lloyd_sse(hist: np.ndarray, tokens: int, k: int) -> np.ndarray:
    """Within-cluster sum of squares after k-means, per row of a histogram
    of the levels 1..L, all rows at once.  Centers are exact fractions
    num/den; np.quantile's linear interpolation between sorted positions i
    and i + 1 at fraction r / 2k is (2k v_i + r (v_(i+1) - v_i)) / 2k.
    Clusters cut all levels 1..L, zero counts too, into intervals (a change at
    any level is a move) summed by prefix sums.  An empty cluster keeps its
    center, so centers can leave index order: a tie goes to the lower index,
    not value, and equal centers give the whole cell to the lowest index.
    With den <= max(tokens, 2k), int64 products stay <= 2 L max(tokens, 2k)^2."""
    n, levels = hist.shape
    rows, v = np.arange(n)[:, None], np.arange(1, levels + 1)
    pre = np.zeros((3, n, levels + 1), dtype=np.int64)  # prefix sums of hist v^0, v^1, v^2
    for p in range(3):
        np.cumsum(hist * v**p, axis=1, out=pre[p, :, 1:])
    # Sorted value i is the number of prefix counts <= i; row m's add m (tokens + 1).
    i, r = np.divmod((2 * np.arange(1, k + 1) - 1) * (tokens - 1), 2 * k)
    at = np.searchsorted((pre[0] + rows * (tokens + 1)).ravel(),
                         np.concatenate([i, i + 1]) + rows * (tokens + 1), side="right")
    v_lo, v_hi = np.split(at - rows * (levels + 1), 2, axis=1)  # r = 0 where i + 1 = tokens
    num, den = 2 * k * v_lo + r * (v_hi - v_lo), np.full((n, k), 2 * k)
    (lo, hi), active = _intervals(num, den, levels), np.arange(n)
    for _ in range(KMEANS_MAX_ITER):
        w, s = pre[:2, active[:, None], hi[active]] - pre[:2, active[:, None], lo[active] - 1]
        num[active] = np.where(w > 0, s, num[active])
        den[active] = np.where(w > 0, w, den[active])
        new_lo, new_hi = _intervals(num[active], den[active], levels)
        moved = np.any((new_lo != lo[active]) | (new_hi != hi[active]), axis=1)
        lo[active], hi[active] = new_lo, new_hi
        active = active[moved]
        if active.size == 0:
            break
    # Per cluster, sum h (x - c)^2 = (Q W - S^2 + (S den - num W)^2 / den^2) / W; the
    # second term, the center's offset from the mean, is 0 unless the cap stopped it.
    w, s, q = pre[:, rows, hi] - pre[:, rows, lo - 1]
    sse = (q * w - s * s) + (s * den - num * w).astype(np.float64) ** 2 / den**2
    return np.sum(np.divide(sse, w, out=np.zeros_like(sse), where=w > 0), axis=1)


def text_score(ranks: np.ndarray, k: int) -> np.ndarray:
    """Rank-instability score per candidate channel: the within-cluster
    variance, in rank units (count / C), of its column of ``percentile_rank``
    counts (1..C for C columns) after 1-D k-means into k groups, or fewer if
    the column has fewer distinct values.  k-means is exact Lloyd's algorithm:
    np.quantile's centers, each value to its nearest center with ties to the
    lower index, an empty cluster keeps its center, KMEANS_MAX_ITER updates.
    ``ranks`` holds ``percentile_rank``'s int64 counts and 1 <= k <= tokens.
    """
    tokens, cols = ranks.shape
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
    return _partition(batch, cfg, percentile_rank)


def _partition(batch: ActivationBatch, cfg: MocdConfig, rank) -> ChannelPartition:
    """``build_partition`` with the text rank counts from ``rank(batch, remaining)``.
    It checks what its steps take on trust: the picks leave the main set at
    least as large as each outlier set, and each modality with a pick has a
    token."""
    dim = batch.data.shape[1]
    k_v = cfg.k_vision(dim)
    k_t = cfg.k_text(dim)
    if dim - k_v - k_t < max(k_v, k_t):
        raise ValueError(f"picking {k_v} vision and {k_t} text of {dim} channels "
                         "leaves the main set smaller than an outlier set")
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
        ranks = rank(batch, remaining)
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
