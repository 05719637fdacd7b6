"""Outlier channel selection: scores, clustering, and partitions."""

import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from modquant import mocd
from modquant.mocd import (
    ChannelPartition,
    MocdConfig,
    build_partition,
    jaccard,
    percentile_rank,
    select_topk,
    text_score,
    trivial_partition,
    vision_score,
)
from modquant.synth import SynthConfig, generate
from modquant.tensor import ActivationBatch


# Few distinct magnitudes, so rows are full of ties; signed zeros and
# opposite signs share a magnitude.
_TIE_VALUES = [0.0, -0.0, 0.5, -0.5, 1.0, 2.0, -2.0, 5e-324]


def _batch(text, vision):
    text = np.atleast_2d(np.asarray(text, dtype=np.float64))
    vision = np.atleast_2d(np.asarray(vision, dtype=np.float64))
    data = np.concatenate([text, vision], axis=0)
    tags = [0] * text.shape[0] + [1] * vision.shape[0]
    return ActivationBatch(data, tags)


def _partition_checking(step, precondition, batch, cfg):
    """``build_partition`` with the step ``step`` wrapped to assert
    ``precondition`` on its arguments.  Returns the partition, or None when
    build_partition rejects picks that cannot fit, its one allowed error."""
    real = getattr(mocd, step)

    def checked(*args):
        assert precondition(*args), f"{step} called outside its precondition"
        return real(*args)

    with mock.patch.object(mocd, step, checked):
        try:
            return build_partition(batch, cfg)
        except ValueError as e:
            assert "main set smaller than an outlier set" in str(e)
            return None


# A batch of `dim` channels with two tokens per modality, and ratios in
# eighths, which cover every pick count of up to half the channels.
_picks = st.tuples(st.integers(1, 8), st.integers(0, 4), st.integers(0, 4))


def _picks_case(dim, eighths_v, eighths_t):
    data = np.random.default_rng(dim).standard_normal((4, dim))
    return ActivationBatch(data, [0, 0, 1, 1]), MocdConfig(eighths_v / 8, eighths_t / 8)


class TestPartitionValidation:
    def test_trivial(self):
        p = trivial_partition(4)
        assert p.c_main.tolist() == [0, 1, 2, 3]
        assert p.c_text.size == 0 and p.c_vision.size == 0

    def test_rejects_overlap(self):
        with pytest.raises(ValueError, match="disjoint"):
            ChannelPartition([0, 1], [1], [2], 4)

    def test_rejects_gap(self):
        with pytest.raises(ValueError, match="cover"):
            ChannelPartition([0, 1], [3], [], 4)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="ascending"):
            ChannelPartition([1, 0], [2], [], 3)

    def test_rejects_outlier_majority(self):
        with pytest.raises(ValueError, match="main set"):
            ChannelPartition([0], [1, 2], [], 3)


class TestMocdConfig:
    def test_ratio_bounds(self):
        with pytest.raises(ValueError):
            MocdConfig(ratio_vision=0.6)
        with pytest.raises(ValueError):
            MocdConfig(ratio_text=-0.1)

    def test_cardinality_rounding(self):
        cfg = MocdConfig(ratio_vision=0.02, ratio_text=0.02)
        assert cfg.k_vision(64) == 1
        assert cfg.k_vision(100) == 2
        assert cfg.k_text(64) == 1
        assert MocdConfig(ratio_vision=0.0).k_vision(64) == 0


class TestVisionScore:
    def test_hand_value(self):
        b = _batch([[0.0, 0.0]], [[1.0, -5.0], [2.0, 3.0]])
        np.testing.assert_array_equal(vision_score(b), [2.0, 5.0])

    def test_single_token(self):
        b = _batch([[0.0, 0.0]], [[-3.0, 0.5]])
        np.testing.assert_array_equal(vision_score(b), [3.0, 0.5])

    def test_all_zero(self):
        b = _batch([[1.0, 1.0]], [[0.0, 0.0]])
        assert not vision_score(b).any()

    def test_no_vision_tokens(self):
        # vision_score trusts that the batch has a vision row: build_partition
        # rejects a vision pick on a batch without one before it scores.
        b = ActivationBatch(np.ones((2, 2)), [0, 0])
        with mock.patch.object(mocd, "vision_score", side_effect=AssertionError("scored")):
            with pytest.raises(ValueError, match="vision"):
                build_partition(b, MocdConfig(ratio_vision=0.5, ratio_text=0.0))


class TestTopK:
    def test_tie_resolved_by_lower_index(self):
        assert select_topk(np.array([3.0, 1.0, 3.0, 2.0]), 2).tolist() == [0, 2]

    def test_k_zero(self):
        assert select_topk(np.array([1.0, 2.0]), 0).size == 0

    def test_k_full(self):
        assert select_topk(np.array([1.0, 2.0, 0.5]), 3).tolist() == [0, 1, 2]

    @given(_picks)
    @example((1, 4, 4))
    @settings(max_examples=40, deadline=None)
    def test_k_too_large(self, picks):
        # select_topk trusts that k fits its scores: build_partition never
        # asks for more, since it rejects picks that cannot fit first.
        _partition_checking("select_topk", lambda scores, k: 0 <= k <= scores.size,
                            *_picks_case(*picks))

    def test_result_sorted_ascending(self):
        got = select_topk(np.array([0.1, 5.0, 0.2, 4.0, 3.0]), 3)
        assert got.tolist() == sorted(got.tolist()) == [1, 3, 4]


class TestPercentileRank:
    def test_hand_values(self):
        b = _batch([[0.1, 0.3, 0.2]], [[0.0, 0.0, 0.0]])
        ranks = percentile_rank(b, np.array([0, 1, 2]))
        assert ranks.dtype == np.int64
        np.testing.assert_array_equal(ranks, [[1, 3, 2]])

    def test_constant_row_ranks_one(self):
        # Rank one is a count of C: every candidate is <= every other.
        b = _batch([[0.5, 0.5, 0.5]], [[0.0, 0.0, 0.0]])
        ranks = percentile_rank(b, np.array([0, 1, 2]))
        np.testing.assert_array_equal(ranks, np.full((1, 3), 3))

    def test_strict_max_has_rank_one(self):
        rng = np.random.default_rng(8)
        data = rng.standard_normal((5, 6))
        data[:, 2] = 100.0
        b = ActivationBatch(np.concatenate([data, data]), [0] * 5 + [1] * 5)
        ranks = percentile_rank(b, np.arange(6))
        np.testing.assert_array_equal(ranks[:, 2], np.full(5, 6))

    @given(_picks)
    @example((1, 4, 4))
    @settings(max_examples=40, deadline=None)
    def test_empty_candidates(self, picks):
        # percentile_rank trusts that its candidate set is nonempty:
        # build_partition rejects picks that would leave none before it ranks.
        _partition_checking("percentile_rank", lambda batch, cand: cand.size > 0,
                            *_picks_case(*picks))

    def test_peak_memory_is_a_few_results(self):
        # The float copies are released before the int64 stages, so the peak
        # holds about three arrays of the result's size.
        rng = np.random.default_rng(0)
        b = ActivationBatch(rng.standard_normal((320, 256)), [0] * 256 + [1] * 64)
        tracemalloc.start()
        try:
            ranks = percentile_rank(b, np.arange(8, 248))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * ranks.nbytes

    @given(
        st.integers(1, 8).flatmap(lambda d: st.tuples(
            st.lists(st.lists(st.sampled_from(_TIE_VALUES), min_size=d, max_size=d)
                     | st.sampled_from(_TIE_VALUES).map(lambda v: [v] * d),
                     min_size=1, max_size=12),
            st.sets(st.integers(0, d - 1), min_size=1),
        ))
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_sorted_search_per_row(self, rows_and_cand):
        rows, cand = rows_and_cand
        b = ActivationBatch(np.array(rows), [0] * len(rows))
        cand = np.array(sorted(cand))
        expect = [np.searchsorted(np.sort(r), r, side="right")
                  for r in np.abs(np.array(rows)[:, cand])]
        np.testing.assert_array_equal(percentile_rank(b, cand), expect)


def _exact_text_score(col, cols, k):
    """Lloyd's algorithm on one column in exact fractions, one value at a
    time: np.quantile's linear-method centers, argmin assignment (ties to
    the lower index), empty clusters keep their center, stop when the
    assignment repeats or after KMEANS_MAX_ITER updates."""
    tokens, ordered = len(col), sorted(col)
    k = min(k, len(set(col)))
    centers = []
    for r in range(1, k + 1):
        pos = Fraction((2 * r - 1) * (tokens - 1), 2 * k)
        i = pos.numerator // pos.denominator
        lo, hi = ordered[i], ordered[min(i + 1, tokens - 1)]
        centers.append(lo + (pos - i) * (hi - lo))

    def nearest(cs):
        return [min(range(k), key=lambda j: (abs(x - cs[j]), j)) for x in col]

    assign = nearest(centers)
    for _ in range(mocd.KMEANS_MAX_ITER):
        members = [[x for x, a in zip(col, assign) if a == j] for j in range(k)]
        centers = [Fraction(sum(m), len(m)) if m else c for m, c in zip(members, centers)]
        new = nearest(centers)
        if new == assign:
            break
        assign = new
    sse = sum((x - centers[a]) ** 2 for x, a in zip(col, assign))
    return sse / (tokens * cols * cols)


class TestTextScore:
    def test_constant_sequence_scores_zero(self):
        ranks = np.full((6, 2), 2)
        np.testing.assert_array_equal(text_score(ranks, 3), [0.0, 0.0])

    def test_two_level_sequence_with_two_clusters(self):
        ranks = np.array([[1, 2], [1, 2], [2, 1], [2, 1]])
        assert text_score(ranks, 2)[0] == 0.0

    def test_single_cluster_is_population_variance(self):
        ranks = np.array([[1, 2, 3, 4], [3, 1, 4, 2], [4, 3, 2, 1], [2, 4, 1, 3]])
        got = text_score(ranks, 1)
        np.testing.assert_allclose(got, np.var(ranks / 4, axis=0), rtol=1e-15)

    def test_unstable_channel_scores_higher(self):
        # Instability here means ranks spread across many levels, which no
        # small set of cluster centers can absorb; a tightly concentrated
        # rank sequence clusters to near-zero variance.
        rng = np.random.default_rng(9)
        ranks = np.ones((40, 20), dtype=np.int64)
        ranks[:, 0] = 10 + rng.integers(0, 2, 40)
        ranks[:, 1] = rng.integers(1, 21, 40)
        scores = text_score(ranks, 3)
        assert scores[1] > scores[0]

    @given(
        st.integers(1, 10).flatmap(lambda c: st.lists(
            st.lists(st.integers(1, c), min_size=c, max_size=c), min_size=3, max_size=24)),
        st.integers(1, 5),
        st.sampled_from([1, 2, mocd.KMEANS_MAX_ITER]),
    )
    @example(ranks=[[1, 2, 1], [1, 2, 3], [1, 2, 2], [3, 1, 3], [3, 3, 3]], k=2,
             max_iter=mocd.KMEANS_MAX_ITER)
    @example(ranks=[[x] * 6 for x in (1, 6, 5, 3, 4, 6, 5, 5, 2, 4, 5, 4, 3, 6, 2, 1, 5, 5)],
             k=2, max_iter=mocd.KMEANS_MAX_ITER)
    @example(ranks=[[x] * 3 for x in (1, 1, 1, 2, 3)], k=5, max_iter=mocd.KMEANS_MAX_ITER)
    @example(ranks=[[x] * 4 for x in (1, 2, 2, 2, 2, 4, 2)], k=3,
             max_iter=mocd.KMEANS_MAX_ITER)
    @example(ranks=[[x] * 10 for x in (3, 3, 4, 3, 2, 10, 6, 2, 2, 3, 3)], k=4,
             max_iter=mocd.KMEANS_MAX_ITER)
    @example(ranks=[[x] * 2 for x in (1, 1, 1, 1, 2)], k=3, max_iter=1)
    @settings(max_examples=300, deadline=None)
    def test_matches_exact_lloyd(self, ranks, k, max_iter):
        # In the first example, column 1 is [2, 2, 2, 1, 3]: both quantile
        # centers are exactly 2, so it is one cluster and scores 2/45.  In the
        # second, Lloyd meets the centers 8/3 and 16/3, and level 4 lies
        # exactly between them; rounded centers send it to the upper one.
        # Third: [1, 1, 1, 2, 3] has three levels and starts at the centers
        # 1, 1, 7/3, so cluster 0 takes cluster 1's whole cell.  Fourth: all
        # three centers start at 2; after one update cluster 0 is at 15/7 and
        # the empty clusters keep 2, below it, and Lloyd ends at 4, 1, 2.
        # Fifth: the centers reach 2, 5, 3, 10, and level 4 lies exactly
        # between 5 (index 1) and 3 (index 2): it goes to index 1, the upper.
        # Sixth: two levels, centers 1, 1 then 6/5, 1, and the cap stops the
        # column while its assignment still moves, so a center is off its mean.
        ranks = np.array(ranks, dtype=np.int64)
        k = min(k, len(ranks))  # text_score takes at most one cluster per token
        with mock.patch.object(mocd, "KMEANS_MAX_ITER", max_iter):
            got = text_score(ranks, k)
            for col, score in zip(ranks.T.tolist(), got):
                exact = _exact_text_score(col, ranks.shape[1], k)
                assert abs(Fraction(score) - exact) <= Fraction(1, 10**15) * exact


class TestBuildPartition:
    def test_zero_ratios_give_trivial_partition(self):
        b = _batch(np.ones((2, 4)), np.ones((2, 4)))
        p = build_partition(b, MocdConfig(ratio_vision=0.0, ratio_text=0.0))
        assert p.c_main.tolist() == [0, 1, 2, 3]

    def test_planted_vision_channels_recovered(self):
        batch = generate(SynthConfig(seed=0))
        p = build_partition(batch, MocdConfig(ratio_vision=2 / 64, ratio_text=2 / 64))
        assert p.c_vision.tolist() == [3, 9]

    def test_planted_text_channels_recovered(self):
        batch = generate(SynthConfig(seed=0))
        p = build_partition(batch, MocdConfig(ratio_vision=2 / 64, ratio_text=2 / 64))
        assert p.c_text.tolist() == [17, 42]

    def test_deterministic(self):
        batch = generate(SynthConfig(seed=5))
        cfg = MocdConfig(ratio_vision=0.05, ratio_text=0.05)
        p1 = build_partition(batch, cfg)
        p2 = build_partition(batch, cfg)
        np.testing.assert_array_equal(p1.c_main, p2.c_main)
        np.testing.assert_array_equal(p1.c_text, p2.c_text)
        np.testing.assert_array_equal(p1.c_vision, p2.c_vision)

    def test_missing_modality_with_nonzero_ratio(self):
        b = ActivationBatch(np.ones((4, 8)), [0, 0, 0, 0])
        with pytest.raises(ValueError, match="vision"):
            build_partition(b, MocdConfig(ratio_vision=0.25, ratio_text=0.0))

    def test_picks_leaving_main_smaller_are_rejected_before_scoring(self, monkeypatch):
        # The steps trust that their picks fit, so the check comes before any
        # score: one channel cannot hold a vision pick, a text pick and a main set.
        def unreachable(*args):
            raise AssertionError("scored a selection that cannot fit")

        monkeypatch.setattr(mocd, "vision_score", unreachable)
        monkeypatch.setattr(mocd, "percentile_rank", unreachable)
        for dim, ratio_vision, ratio_text in ((1, 0.5, 0.5), (1, 0.5, 0.0), (4, 0.5, 0.25)):
            b = _batch(np.ones((2, dim)), np.ones((2, dim)))
            with pytest.raises(ValueError, match="main set smaller than an outlier set"):
                build_partition(b, MocdConfig(ratio_vision, ratio_text))

    def test_one_channel_per_set_fits(self):
        # Two candidates rank as mirror images, so their text scores tie and
        # the lower index wins.
        b = _batch([[1.0, 3.0, 2.0], [3.0, 1.0, 2.0]], [[9.0, 0.0, 0.0]])
        p = build_partition(b, MocdConfig(1 / 3, 1 / 3))
        assert (p.c_vision.tolist(), p.c_text.tolist(), p.c_main.tolist()) == ([0], [1], [2])

    @given(st.integers(0, 2**32 - 1), st.integers(4, 16), st.integers(4, 12))
    @settings(max_examples=60, deadline=None)
    def test_partition_invariants(self, seed, dim, tokens):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((2 * tokens, dim))
        b = ActivationBatch(data, [0] * tokens + [1] * tokens)
        cfg = MocdConfig(
            ratio_vision=rng.uniform(0.0, 0.25), ratio_text=rng.uniform(0.0, 0.25)
        )
        p = build_partition(b, cfg)
        merged = np.concatenate([p.c_main, p.c_text, p.c_vision])
        assert sorted(merged.tolist()) == list(range(dim))
        assert len(p.c_vision) == cfg.k_vision(dim)
        assert len(p.c_text) == cfg.k_text(dim)


@st.composite
def continuous_selections(draw):
    """A batch of standard normal draws, continuous so that no two scores
    of ``vision_score`` tie, and a config selecting 1-4 channels per
    modality."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim, text, vision = draw(st.integers(16, 64)), draw(st.integers(2, 64)), draw(st.integers(1, 32))
    tags = rng.permutation([0] * text + [1] * vision)
    batch = ActivationBatch(rng.standard_normal((text + vision, dim)), tags)
    picked = draw(st.integers(1, 4))
    cfg = MocdConfig(ratio_vision=picked / dim, ratio_text=picked / dim,
                     clusters_k=draw(st.integers(1, 4)))
    return rng, batch, cfg


def _cut_is_tie_free(scores, k):
    """The k-th and (k+1)-th largest scores differ, so the top k is one set
    whatever order the channels come in."""
    top = np.sort(scores)[::-1]
    return k == scores.size or top[k - 1] != top[k]


class TestMetamorphic:
    """Relations between two selections that hold exactly on any data."""

    @given(continuous_selections())
    @settings(max_examples=40, deadline=None)
    def test_permuting_channels_permutes_the_partition(self, drawn):
        rng, batch, cfg = drawn
        p = build_partition(batch, cfg)
        # Rank-count scores take few values, so keep the draws whose text cut
        # does not fall inside a tie (about 1 in 100).
        remaining = np.setdiff1d(np.arange(batch.data.shape[1]), p.c_vision)
        scores = text_score(percentile_rank(batch, remaining),
                            min(cfg.clusters_k, batch.text_rows.size))
        assume(_cut_is_tie_free(vision_score(batch), p.c_vision.size))
        assume(_cut_is_tie_free(scores, p.c_text.size))
        perm = rng.permutation(batch.data.shape[1])
        q = build_partition(ActivationBatch(batch.data[:, perm], batch.tags), cfg)
        # Column j of the permuted batch is channel perm[j].
        where = np.argsort(perm)
        for name in ("c_main", "c_text", "c_vision"):
            np.testing.assert_array_equal(getattr(q, name), np.sort(where[getattr(p, name)]))

    @given(continuous_selections())
    @settings(max_examples=40, deadline=None)
    def test_scaling_text_rows_by_powers_of_two_keeps_ranks(self, drawn):
        # Ranks compare entries within one row, and 2^k scales exactly.
        rng, batch, cfg = drawn
        rows = batch.text_rows
        data = batch.data.copy()
        data[rows] *= 2.0 ** rng.integers(-20, 21, size=(rows.size, 1))
        scaled = ActivationBatch(data, batch.tags)
        channels = np.arange(data.shape[1])
        np.testing.assert_array_equal(percentile_rank(scaled, channels),
                                      percentile_rank(batch, channels))
        np.testing.assert_array_equal(build_partition(scaled, cfg).c_text,
                                      build_partition(batch, cfg).c_text)

    @given(continuous_selections())
    @settings(max_examples=40, deadline=None)
    def test_vision_pick_reads_the_vision_rows_alone(self, drawn):
        # New text rows, far larger than the vision rows: a vision score
        # that read them would pick their largest channels.
        rng, batch, cfg = drawn
        data = batch.data.copy()
        data[batch.text_rows] = 100.0 * rng.standard_normal((batch.text_rows.size, data.shape[1]))
        np.testing.assert_array_equal(
            build_partition(ActivationBatch(data, batch.tags), cfg).c_vision,
            build_partition(batch, cfg).c_vision)

    @given(continuous_selections(), st.integers(1, 32))
    @settings(max_examples=40, deadline=None)
    def test_text_pick_sees_the_vision_rows_only_through_c_vision(self, drawn, vision):
        # Other vision rows, of another count, plus one row that plants the
        # same vision pick at 1e4: c_vision stays, so c_text must too.
        rng, batch, cfg = drawn
        p = build_partition(batch, cfg)
        dim = batch.data.shape[1]
        plant = np.zeros((1, dim))
        plant[0, p.c_vision] = 1e4
        other = ActivationBatch(
            np.concatenate([batch.data[batch.text_rows], plant,
                            rng.standard_normal((vision, dim))]),
            [0] * batch.text_rows.size + [1] * (vision + 1))
        q = build_partition(other, cfg)
        np.testing.assert_array_equal(q.c_vision, p.c_vision)
        np.testing.assert_array_equal(q.c_text, p.c_text)


class TestJaccard:
    def test_hand_value(self):
        assert jaccard([1, 2, 3], [2, 3, 4]) == 0.5

    def test_identical(self):
        assert jaccard([0, 5], [5, 0]) == 1.0

    def test_disjoint(self):
        assert jaccard([0], [1]) == 0.0

    def test_both_empty(self):
        assert jaccard([], []) == 1.0
