"""Synthetic generator: determinism and recoverable planted structure."""

import numpy as np
import pytest

from modquant.mocd import MocdConfig, build_partition, select_topk, vision_score
from modquant.synth import SPECTRUM_DECAY, SynthConfig, generate, generate_weight


class TestConfigValidation:
    def test_rejects_overlapping_plants(self):
        with pytest.raises(ValueError, match="overlap"):
            SynthConfig(vision_outliers=(3,), text_outliers=(3,))

    def test_rejects_out_of_range_channel(self):
        with pytest.raises(ValueError, match="outside"):
            SynthConfig(dim=8, vision_outliers=(8,))

    def test_rejects_bad_instability(self):
        with pytest.raises(ValueError, match="instability"):
            SynthConfig(text_instability=1.5)

    @pytest.mark.parametrize("value", [1.5, -0.5])
    def test_instability_outside_the_unit_interval(self, value):
        with pytest.raises(ValueError, match=r"^text_instability must be in \[0, 1\]$"):
            SynthConfig(text_instability=value)
        for bound in (0.0, 1.0):
            assert SynthConfig(text_instability=bound).text_instability == bound

    def test_rejects_a_batch_without_tokens(self):
        with pytest.raises(ValueError, match="^batch must contain at least one token$"):
            SynthConfig(tokens_text=0, tokens_vision=0)


class TestGenerate:
    def test_shape_and_tags(self):
        b = generate(
            SynthConfig(
                tokens_text=5, tokens_vision=7, dim=10,
                vision_outliers=(3,), text_outliers=(7,),
            )
        )
        assert b.data.shape == (12, 10)
        assert b.text_rows.tolist() == list(range(5))
        assert b.vision_rows.tolist() == list(range(5, 12))

    def test_deterministic_per_seed(self):
        a = generate(SynthConfig(seed=11))
        b = generate(SynthConfig(seed=11))
        np.testing.assert_array_equal(a.data, b.data)
        assert np.any(a.data != generate(SynthConfig(seed=12)).data)

    def test_planted_vision_channels_dominate(self):
        hits = 0
        for seed in range(100):
            b = generate(SynthConfig(seed=seed))
            top = select_topk(vision_score(b.data, b.vision_rows), 2)
            hits += top.tolist() == [3, 9]
        assert hits >= 99

    def test_planted_text_channels_recovered(self):
        cfg = MocdConfig(ratio_vision=2 / 64, ratio_text=2 / 64)
        hits = 0
        for seed in range(100):
            b = generate(SynthConfig(seed=seed))
            p = build_partition(b, cfg)
            hits += p.c_text.tolist() == [17, 42]
        assert hits >= 90

    def test_degenerate_config_is_plain_noise(self):
        cfg = SynthConfig(
            vision_scale=1.0, text_instability=0.0, seed=0
        )
        b = generate(cfg)
        # No huge vision channels: max score within an order of magnitude of
        # the median instead of the 100x planted spike.
        s = vision_score(b.data, b.vision_rows)
        assert np.max(s) < 10 * np.median(s)


class TestGenerateWeight:
    def test_shape_and_determinism(self):
        w = generate_weight(12, 8, seed=3)
        assert w.shape == (12, 8)
        np.testing.assert_array_equal(w, generate_weight(12, 8, seed=3))

    def test_decaying_spectrum(self):
        w = generate_weight(16, 16, seed=4)
        s = np.linalg.svd(w, compute_uv=False)
        np.testing.assert_allclose(s, SPECTRUM_DECAY ** np.arange(16), atol=1e-10)
