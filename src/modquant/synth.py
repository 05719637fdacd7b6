"""Deterministic synthetic activation batches with planted outlier channels.

The generator mirrors the structure that motivates channel decoupling:
vision tokens carry a few huge-magnitude channels, text tokens carry a few
channels whose relative response flips between a spread-out high-magnitude
component and near-zero, and ordinary channels keep a stable per-channel
scale.  Planted channels are therefore recoverable oracles for the
selection code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ActivationBatch, ModalityTag

# Log-spread of the vision rows' mild per-channel scale heterogeneity.
CHANNEL_SCALE_SIGMA = 0.35
# Magnitude spread of the unstable text component, relative to the unit
# standard deviation of ordinary channels.  Wide log-uniform spread keeps the
# channel's within-token rank dispersed even after k-means with several centers.
TEXT_HIGH_LO = 0.5
TEXT_HIGH_HI = 12.0
TEXT_LOW_FRACTION = 0.02
# Stable text channels sit at a fixed per-channel magnitude level with small
# log-jitter; fully i.i.d. Gaussian channels would have near-uniform ranks,
# which no within-cluster-variance score can separate from planted ones.
TEXT_LEVEL_SIGMA = 1.0
TEXT_JITTER_SIGMA = 0.2
# Ratio of consecutive singular values of a generated weight.
SPECTRUM_DECAY = 0.93


@dataclass(frozen=True)
class SynthConfig:
    tokens_text: int = 64
    tokens_vision: int = 64
    dim: int = 64
    vision_outliers: tuple[int, ...] = (3, 9)
    text_outliers: tuple[int, ...] = (17, 42)
    vision_scale: float = 100.0
    text_instability: float = 0.8
    seed: int = 0

    def __post_init__(self):
        v = set(self.vision_outliers)
        t = set(self.text_outliers)
        if v & t:
            raise ValueError("planted channel sets overlap")
        for c in v | t:
            if not 0 <= c < self.dim:
                raise ValueError(f"planted channel {c} outside [0, {self.dim})")
        if not 0.0 <= self.text_instability <= 1.0:
            raise ValueError("text_instability must be in [0, 1]")
        if self.tokens_text + self.tokens_vision < 1:
            raise ValueError("batch must contain at least one token")


def generate(cfg: SynthConfig) -> ActivationBatch:
    """Draw a batch; bit-exact for a given config (single seeded generator)."""
    rng = np.random.default_rng(cfg.seed)
    dim = cfg.dim
    chan_scale = np.exp(CHANNEL_SCALE_SIGMA * rng.standard_normal(dim))

    vision = rng.standard_normal((cfg.tokens_vision, dim))
    vision *= chan_scale[np.newaxis, :]
    for c in cfg.vision_outliers:
        vision[:, c] = rng.standard_normal(cfg.tokens_vision) * cfg.vision_scale

    # Text rows: each stable channel holds a fixed magnitude level with small
    # log-jitter and random sign, so its within-token rank is consistent.
    level = np.exp(TEXT_LEVEL_SIGMA * rng.standard_normal(dim))
    jitter = np.exp(TEXT_JITTER_SIGMA * rng.standard_normal((cfg.tokens_text, dim)))
    signs = rng.choice([-1.0, 1.0], (cfg.tokens_text, dim))
    text = level[np.newaxis, :] * jitter * signs
    for c in cfg.text_outliers:
        flips = rng.random(cfg.tokens_text) < cfg.text_instability
        high = (np.exp(rng.uniform(np.log(TEXT_HIGH_LO), np.log(TEXT_HIGH_HI),
                                   cfg.tokens_text))
                * rng.choice([-1.0, 1.0], cfg.tokens_text))
        low = rng.standard_normal(cfg.tokens_text) * TEXT_LOW_FRACTION
        text[:, c] = np.where(flips, high, low)

    data = np.concatenate([text, vision], axis=0)
    tags = np.concatenate([
        np.full(cfg.tokens_text, ModalityTag.TEXT, dtype=np.uint8),
        np.full(cfg.tokens_vision, ModalityTag.VISION, dtype=np.uint8),
    ])
    return ActivationBatch(data, tags)


def generate_weight(d_in: int, d_out: int, seed: int = 0) -> np.ndarray:
    """Random weight with singular values SPECTRUM_DECAY ** i.

    Trained layers are far from isotropic; a decaying spectrum gives the
    low-rank branches a dominant subspace worth anchoring to.
    """
    rng = np.random.default_rng(seed)
    r = min(d_in, d_out)
    u, _ = np.linalg.qr(rng.standard_normal((d_in, r)))
    v, _ = np.linalg.qr(rng.standard_normal((d_out, r)))
    sigma = SPECTRUM_DECAY ** np.arange(r)
    return (u * sigma[np.newaxis, :]) @ v.T
