"""Modality-specific outlier channel selection.

Vision-specific outlier channels are picked by maximum absolute activation.
Text-specific ones are picked among the remaining channels by rank
instability: each channel's within-token rank counts are clustered by exact
1-D k-means on integers, all channels at once, and scored by within-cluster
variance; in 1-D each cluster is an interval of levels (Ckmeans.1d.dp), so a
Lloyd step costs O(k^2) per channel, whatever the number of levels.  The
leftover channels form the modality-compatible main set.  A selection reads
a set of tokens of one batch, a (text rows, vision rows) pair of ascending
row-index arrays, so the modality split is made where the rows are drawn,
and ``_select`` picks for all of a caller's sets in one call: ranks are
row-local, so each distinct vision pick ranks the union of its sets' text
rows once, and sets with as many text rows share ``text_score`` calls over
their rank matrices side by side.  ``_select`` is the one place that checks
that the picks fit and that each set holds a token of each modality with a
pick.  ``build_partition`` is its one-set case, over the batch's text and
vision rows, and the entry point; the stability report passes it every
subset at once.  The steps (``vision_score``, ``select_topk``,
``percentile_rank``, ``text_score``, ``jaccard``) state their preconditions
and check nothing.
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
    clusters: int = 3

    def __post_init__(self):
        for name in ("ratio_vision", "ratio_text"):
            r = getattr(self, name)
            if not 0.0 <= r <= 0.5:
                raise ValueError(f"{name} must be in [0, 0.5], got {r}")
        if self.clusters < 1:
            raise ValueError("clusters must be positive")

    def k_vision(self, dim: int) -> int:
        return int(np.floor(self.ratio_vision * dim + 0.5))

    def k_text(self, dim: int) -> int:
        return int(np.floor(self.ratio_text * dim + 0.5))


def vision_score(data: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Per-channel maximum absolute activation of ``data`` over the rows
    ``rows``, a nonempty int64 index array (the vision tokens)."""
    return np.max(np.abs(data[rows]), axis=0)


def select_topk(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest of a float64 score vector, 0 <= k <= its
    length, ties to the lower index, sorted ascending."""
    # Stable sort on (-score, index): equal scores keep ascending index order.
    order = np.argsort(-scores, kind="stable")
    return np.sort(order[:k]).astype(np.int64)


def percentile_rank(data: np.ndarray, rows: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Within-token rank counts of |activation| in the rows ``rows`` of
    ``data`` (the text tokens) over the candidate channels ``cand``, both
    nonempty int64 index arrays.

    Returns a (num rows) x (num candidates) int64 matrix: each entry
    counts the candidates in its token whose |activation| is <= its own, so
    it lies in 1..C for C candidates (C throughout a constant row), and the
    percentile rank is count / C.
    """
    # Each float array is released before the int64 stages, so at most three
    # arrays of the result's size are alive at once.
    a = data[np.ix_(rows, cand)]
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


# Measured: loop-small stability_report 21-22 ms, 61-64 ms with each level to its nearest center.
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
    # Only moved rows iterate again: loop-small stability_report 18.5-20 ms, all rows 24-26 ms.
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


def text_score(ranks: np.ndarray, k: int, levels: int | None = None) -> np.ndarray:
    """Rank-instability score per candidate channel: the within-cluster
    variance, in rank units (count / C), of its column of ``percentile_rank``
    counts (1..C for C columns) after 1-D k-means into k groups, or fewer if
    the column has fewer distinct values.  k-means is exact Lloyd's algorithm:
    np.quantile's centers, each value to its nearest center with ties to the
    lower index, an empty cluster keeps its center, KMEANS_MAX_ITER updates.
    ``ranks`` holds ``percentile_rank``'s int64 counts, or several such
    matrices of C = ``levels`` columns each side by side (by default one,
    C its width); each column is scored on its own, and 1 <= k <= tokens.
    """
    tokens, cols = ranks.shape
    levels = cols if levels is None else levels
    flat = (ranks + np.arange(-1, cols * levels - 1, levels)).ravel()
    hist = np.bincount(flat, minlength=cols * levels).reshape(cols, levels)
    k_col = np.minimum(k, np.count_nonzero(hist, axis=1))
    sse = np.empty(cols)
    for kk in np.unique(k_col):
        sse[k_col == kk] = _lloyd_sse(hist[k_col == kk], tokens, int(kk))
    return sse / (tokens * levels * levels)


def build_partition(batch: ActivationBatch, cfg: MocdConfig) -> ChannelPartition:
    """Compose scoring and selection into a full channel partition.

    Vision channels come first (top-K over all channels), text channels are
    drawn from the remainder, and everything else is the main set.  The
    picks are ``_select``'s over the batch's text and vision rows, checked
    there.
    """
    dim = batch.data.shape[1]
    ((c_vision, c_text),) = _select(batch, [(batch.text_rows, batch.vision_rows)], cfg)
    return ChannelPartition(np.setdiff1d(np.arange(dim), np.concatenate([c_vision, c_text])),
                            c_text, c_vision, dim)


# Cell budget n C (C + 1) of one text_score call over n row sets of C text
# candidates: the stacked histogram and prefix sums.  Sharing a call saves
# numpy's per-call overhead, but the stacked arrays are fresh heap, so peak RSS
# grows and, for wide batches, first-touch faults cost more than the call
# saves.  At 30 000 cells the CLI defaults score 7 subsets per call, and from
# C = 122 on each subset has its own call.
# Measured: loop-small stability_s 0.270 -> 0.244 s against one call per subset;
# with the block quantizer, in-process stability_report 19-20 ms against 34 ms.
SCORE_CELLS = 30_000


def _select(batch: ActivationBatch, row_sets: list[tuple], cfg: MocdConfig):
    """The ``(c_vision, c_text)`` picks of each row set of ``batch``, a
    ``(t_rows, v_rows)`` pair of ascending row-index arrays of its text and
    vision tokens, read as given.  It checks what its steps take on trust,
    before it scores anything: the picks leave the main set at least as large
    as each outlier set, and each set holds a token of each modality with a
    pick.  Ranks are row-local, so for each distinct vision pick, in order of
    first appearance, the candidates are computed once and the union of its
    sets' text rows is ranked once, in blocks no larger than the largest set;
    each set reads its rows of that ranking.  Every set has C = dim - k_vision
    text candidates, so sets with as many text rows share ``text_score``
    calls, over their rank matrices side by side, ``SCORE_CELLS // (C (C + 1))``
    sets (at least one) per call.  A single block, a set that is the whole
    union and a call of one set pass their matrix uncopied."""
    data, dim = batch.data, batch.data.shape[1]
    k_v, k_t = cfg.k_vision(dim), cfg.k_text(dim)
    if dim - k_v - k_t < max(k_v, k_t):
        raise ValueError(f"picking {k_v} vision and {k_t} text of {dim} channels "
                         "leaves the main set smaller than an outlier set")
    for t_rows, v_rows in row_sets:
        for name, k, have in (("vision", k_v, v_rows), ("text", k_t, t_rows)):
            if k and not have.size:
                raise ValueError(f"a token set of size {t_rows.size + v_rows.size} has no "
                                 f"{name} token, but the {name} ratio is nonzero")
    empty = np.empty(0, dtype=np.int64)
    c_vision = [select_topk(vision_score(data, v), k_v) if k_v else empty for _, v in row_sets]
    c_text = [empty] * len(row_sets)
    if not k_t:
        return list(zip(c_vision, c_text))
    by_pick, by_tokens, reads = {}, {}, {}  # set indices by vision pick, by text-row count
    for i, (c, (t_rows, _)) in enumerate(zip(c_vision, row_sets)):
        by_pick.setdefault(c.tobytes(), []).append(i)
        by_tokens.setdefault(t_rows.size, []).append(i)
    largest = max(t.size + v.size for t, v in row_sets)
    # Measured: stability_report select-text-heavy 72-75 ms, 134-173 ranked per set.
    for sets in by_pick.values():
        cand = np.setdiff1d(np.arange(dim), c_vision[sets[0]])
        union = np.unique(np.concatenate([row_sets[i][0] for i in sets]))
        blocks = [percentile_rank(data, b, cand)
                  for b in np.array_split(union, -(-union.size // largest))]
        # Uncopied passes: select-text-heavy build_partition heap peak 10.9 MiB, 20.9 copied.
        ranking = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        # A set reads (its candidates, its pick's ranking, its rows of that ranking).
        reads.update({i: (cand, ranking, np.searchsorted(union, row_sets[i][0])) for i in sets})
    c = dim - k_v
    per_call = max(1, SCORE_CELLS // (c * (c + 1)))
    # Calls mix picks: at the CLI defaults 4 of 41 sets pick another vision
    # channel, and scoring each pick's sets apart takes 9 calls, not 7.
    for tokens, sets in by_tokens.items():
        for j in range(0, len(sets), per_call):
            call = sets[j:j + per_call]
            ranks = [r if at.size == r.shape[0] else r[at] for _, r, at in map(reads.get, call)]
            scores = text_score(ranks[0] if len(ranks) == 1 else np.hstack(ranks),
                                min(cfg.clusters, tokens), c)
            for i, s in zip(call, np.split(scores, len(call))):
                c_text[i] = reads[i][0][select_topk(s, k_t)]
    return list(zip(c_vision, c_text))


def jaccard(a, b) -> float:
    """|A n B| / |A u B| of two integer index arrays; two empty sets count as
    identical (1.0)."""
    union = np.union1d(a, b).size
    return np.intersect1d(a, b).size / union if union else 1.0
