"""The benchmark's workloads: generator sizes, planted channels and CLI config.

Each workload plants exactly k outlier channels per modality and selects
with ratio k/D, so the partition has a known right answer. The workloads
differ only in these inputs and settings, and that decides which module of
the program does most of the work.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tokens_text: int
    tokens_vision: int
    dim: int
    d_out: int
    vision_outliers: tuple[int, ...]
    text_outliers: tuple[int, ...]
    steps: int
    clusters: int
    subset_sizes: tuple[int, ...]
    reference_size: int
    trials: int

    @property
    def k(self) -> int:
        return len(self.vision_outliers)

    def cli_config(self) -> dict:
        """The JSON config every CLI command of the loop receives."""
        ratio = self.k / self.dim
        return {
            "tokens_text": self.tokens_text,
            "tokens_vision": self.tokens_vision,
            "dim": self.dim,
            "d_out": self.d_out,
            "vision_outliers": list(self.vision_outliers),
            "text_outliers": list(self.text_outliers),
            "ratio_vision": ratio,
            "ratio_text": ratio,
            "clusters": self.clusters,
            "steps": self.steps,
            "subset_sizes": list(self.subset_sizes),
            "reference_size": self.reference_size,
            "trials": self.trials,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="loop-small",
            why="CLI default sizes: interpreter start, import and per-call "
                "overhead dominate every command, not arithmetic",
            tokens_text=64, tokens_vision=64, dim=64, d_out=64,
            vision_outliers=(3, 9), text_outliers=(17, 42),
            steps=200, clusters=3,
            subset_sizes=(32, 64), reference_size=128, trials=20,
        ),
        Workload(
            name="calib-wide",
            why="D = d_out = 512 with cheap selection: the split layer's "
                "forward, backward, quantizer and SVD dominate calibrate and ablation",
            tokens_text=512, tokens_vision=512, dim=512, d_out=512,
            vision_outliers=tuple(13 + 25 * i for i in range(20)),
            text_outliers=tuple(25 + 25 * i for i in range(20)),
            steps=2, clusters=1,
            subset_sizes=(256, 512), reference_size=1024, trials=2,
        ),
        Workload(
            name="select-text-heavy",
            why="94% text tokens and many stability trials: percentile rank and "
                "per-channel k-means dominate select and stability",
            tokens_text=1920, tokens_vision=128, dim=256, d_out=256,
            vision_outliers=tuple(11 + 25 * i for i in range(10)),
            text_outliers=tuple(23 + 25 * i for i in range(10)),
            steps=2, clusters=3,
            subset_sizes=(512, 1024), reference_size=2048, trials=5,
        ),
    )
}
