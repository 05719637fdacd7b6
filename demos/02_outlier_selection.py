"""Modality-specific outlier channel selection on planted synthetic data.

Vision-specific channels are found by magnitude; text-specific channels by
rank instability under 1-D k-means.  The generator plants both kinds, so
the selection can be checked against ground truth.

Run with:  python3 demos/02_outlier_selection.py
"""

import numpy as np

from modquant import MocdConfig, SynthConfig, build_partition, generate, stability_report
# The scoring steps trust their input, so the package does not export them;
# build_partition is the entry point that checks it.
from modquant.mocd import percentile_rank, text_score, vision_score

cfg = SynthConfig(seed=0)
batch = generate(cfg)
print(f"batch: {batch.data.shape[0]} tokens x {batch.data.shape[1]} channels "
      f"({batch.text_rows.size} text, {batch.vision_rows.size} vision)")
print("planted vision channels:", cfg.vision_outliers)
print("planted text channels:  ", cfg.text_outliers)

# ---------------------------------------------------------------------------
# Vision score: per-channel max |activation| over vision tokens.  The
# planted channels are scaled 100x and dominate.
# ---------------------------------------------------------------------------
s_v = vision_score(batch.data, batch.vision_rows)
top5 = np.argsort(-s_v)[:5]
print("\ntop-5 vision scores:")
for c in top5:
    print(f"  channel {c:2d}: {s_v[c]:8.2f}")

# ---------------------------------------------------------------------------
# Text score: within-cluster variance of each channel's percentile ranks.
# percentile_rank returns integer counts (rank = count / C), and text_score
# runs exact k-means on them.  Stable channels keep a consistent rank; the
# planted ones flip between a high-magnitude component and near-zero, so
# their ranks scatter.
# ---------------------------------------------------------------------------
candidates = np.setdiff1d(np.arange(64), [3, 9])
ranks = percentile_rank(batch.data, batch.text_rows, candidates)
s_t = text_score(ranks, k=3)
top5 = np.argsort(-s_t)[:5]
print("\ntop-5 text instability scores (channel -> score):")
for i in top5:
    print(f"  channel {candidates[i]:2d}: {s_t[i]:.5f}")

# ---------------------------------------------------------------------------
# Full partition at ratios 2/64 (K = 2 of 64 channels each).
# ---------------------------------------------------------------------------
mocd = MocdConfig(ratio_vision=2 / 64, ratio_text=2 / 64)
part = build_partition(batch, mocd)
print("\nselected vision channels:", part.c_vision.tolist())
print("selected text channels:  ", part.c_text.tolist())
print("main set size:           ", len(part.c_main))

# ---------------------------------------------------------------------------
# Selection stability: how similar is the outlier set chosen from a small
# random token subset to the one chosen from the full 128 tokens?
# ---------------------------------------------------------------------------
print("\nsubset-size stability (Jaccard vs 128-token reference):")
for row in stability_report(batch, mocd, [16, 32, 64], 128, trials=20):
    print(f"  {row['subset_size']:3d} tokens: mean {row['mean_jaccard']:.3f} "
          f"(std {row['std_jaccard']:.3f})")
