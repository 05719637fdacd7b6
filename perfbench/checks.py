"""Output checks for the CLI loop, computed without importing modquant.

Every check reads the files a command wrote and compares them with a value
the benchmark derives itself from the inputs (with numpy and its own reader
of the SPQT layout), or with a property the method must have. None compares
with a stored copy of earlier output. A failed check raises CheckError.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct

import numpy as np

SPQT_MAGIC = b"SPQT"
SPQT_VERSION = 1
_HEADER = struct.Struct("<IBQQ")  # version u32, kind u8, rows u64, cols u64
KIND_MATRIX = 0
KIND_BATCH = 1
TEXT, VISION = 0, 1


class CheckError(Exception):
    """An output of the program differs from what the benchmark expects."""


class TraceMismatch(CheckError):
    """eval's mse_overall differs from the minimum of calibrate's loss trace:
    the layer eval loads is not the layer calibrate kept."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def read_spqt(path: str) -> tuple[np.ndarray, np.ndarray | None]:
    """Read an SPQT dump: (rows x cols float64 data, uint8 tags or None).

    Layout, little-endian: magic "SPQT", version u32, kind u8 (0 matrix,
    1 batch), rows u64, cols u64, rows*cols float64 row-major, and for a
    batch one tag byte per row.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    start = len(SPQT_MAGIC) + _HEADER.size
    _require(len(raw) >= start and raw[:4] == SPQT_MAGIC, f"{path}: not an SPQT file")
    version, kind, rows, cols = _HEADER.unpack_from(raw, 4)
    _require(version == SPQT_VERSION, f"{path}: version {version}")
    _require(kind in (KIND_MATRIX, KIND_BATCH), f"{path}: kind {kind}")
    end = start + rows * cols * 8
    expected = end + (rows if kind == KIND_BATCH else 0)
    _require(len(raw) == expected, f"{path}: {len(raw)} bytes, expected {expected}")
    data = np.frombuffer(raw, dtype="<f8", count=rows * cols, offset=start)
    data = data.reshape(rows, cols).astype(np.float64)
    _require(bool(np.all(np.isfinite(data))), f"{path}: non-finite value")
    if kind == KIND_MATRIX:
        return data, None
    tags = np.frombuffer(raw, dtype=np.uint8, offset=end).copy()
    _require(bool(np.all(tags <= VISION)), f"{path}: invalid modality tag")
    return data, tags


def read_csv(path: str, seed: int) -> list[list[str]]:
    """Rows of a CLI CSV after its "# seed=N" line and header."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    _require(len(lines) >= 2 and lines[0] == f"# seed={seed}",
             f"{path}: first line {lines[:1]}, expected '# seed={seed}'")
    return [line.split(",") for line in lines[2:]]


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _close(a: float, b: float, rel: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rel * max(abs(a), abs(b))


def top_k(scores: np.ndarray, k: int) -> list[int]:
    """Indices of the k largest scores, ties to the lower index, ascending."""
    order = sorted(range(len(scores)), key=lambda c: (-scores[c], c))
    return sorted(order[:k])


def check_inputs(acts_path: str, weights_path: str, wl) -> None:
    """gen: the batch and weight have the workload's shapes and tags."""
    x, tags = read_spqt(acts_path)
    w, wtags = read_spqt(weights_path)
    _require(tags is not None and wtags is None, "gen: wrong dump kinds")
    _require(x.shape == (wl.tokens_text + wl.tokens_vision, wl.dim),
             f"gen: activations shape {x.shape}")
    _require(int(np.sum(tags == TEXT)) == wl.tokens_text
             and int(np.sum(tags == VISION)) == wl.tokens_vision, "gen: tag counts")
    _require(w.shape == (wl.dim, wl.d_out), f"gen: weight shape {w.shape}")


def check_select(out: str, acts_path: str, wl, seed: int) -> None:
    """select: partition.json and channel_stats.csv against the benchmark's
    own per-channel max |x| of each modality."""
    x, tags = read_spqt(acts_path)
    with open(os.path.join(out, "partition.json")) as fh:
        part = json.load(fh)
    c_main, c_text, c_vision = part["c_main"], part["c_text"], part["c_vision"]
    dim = x.shape[1]
    _require(part["dim"] == dim and part["seed"] == seed, "partition: dim or seed")
    _require(sorted(c_main + c_text + c_vision) == list(range(dim)),
             "partition: sets do not cover 0..D-1 disjointly")
    for name, c in (("c_main", c_main), ("c_text", c_text), ("c_vision", c_vision)):
        _require(c == sorted(c), f"partition: {name} not ascending")
    _require(len(c_vision) == wl.k and len(c_text) == wl.k,
             f"partition: {len(c_vision)} vision / {len(c_text)} text channels, expected {wl.k}")
    max_text = np.max(np.abs(x[tags == TEXT]), axis=0)
    max_vision = np.max(np.abs(x[tags == VISION]), axis=0)
    _require(c_vision == top_k(max_vision, wl.k),
             "partition: c_vision is not the top-k of vision max |x|")
    _require(c_vision == sorted(wl.vision_outliers), "partition: planted vision set missed")
    _require(c_text == sorted(wl.text_outliers), "partition: planted text set missed")
    rows = read_csv(os.path.join(out, "channel_stats.csv"), seed)
    _require(len(rows) == dim, "channel_stats: row count")
    for c, (chan, t_max, v_max) in enumerate(rows):
        _require(int(chan) == c and float(t_max) == max_text[c]
                 and float(v_max) == max_vision[c], f"channel_stats: channel {c}")


def loss_trace(out: str, seed: int) -> list[float]:
    rows = read_csv(os.path.join(out, "loss_trace.csv"), seed)
    return [float(loss) for _, loss in rows]


def check_calibrate(out: str, weights_path: str, steps: int, seed: int) -> None:
    """calibrate: one finite loss per step, the best no worse than the first,
    and the saved path weights reassemble the input weight bit for bit."""
    rows = read_csv(os.path.join(out, "loss_trace.csv"), seed)
    _require([int(step) for step, _ in rows] == list(range(steps)),
             f"loss_trace: expected steps 0..{steps - 1}")
    losses = [float(loss) for _, loss in rows]
    _require(all(math.isfinite(v) for v in losses), "loss_trace: non-finite loss")
    _require(min(losses) <= losses[0], "loss_trace: minimum above the first row")
    manifest = _manifest(out)
    w, _ = read_spqt(weights_path)
    full = np.full_like(w, np.nan)
    for name in ("main", "text", "vision"):
        part, _ = read_spqt(os.path.join(out, "layer", manifest[f"w_{name}"]))
        full[manifest["partition"][f"c_{name}"]] = part
    _require(full.tobytes() == w.tobytes(), "layer: path weights do not reassemble the input weight")


def _manifest(out: str) -> dict:
    with open(os.path.join(out, "layer", "manifest.json")) as fh:
        return json.load(fh)


def report(out: str, seed: int) -> dict[str, float]:
    rows = read_csv(os.path.join(out, "report.csv"), seed)
    return {name: float(value) for name, value in rows}


def round_half_away(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0, np.floor(x + 0.5), -np.floor(-x + 0.5))


def weight_error_deciles(w_main: np.ndarray, scale: np.ndarray, bits: int | None) -> np.ndarray:
    """Mean per-row MAE of a symmetric per-channel (per-column) quantizer on
    w_main / scale, sorted ascending and averaged within 10 equal bins."""
    w = w_main / scale[:, None]
    if bits is None:
        mae = np.zeros(w.shape[0])
    else:
        q_max = 2 ** (bits - 1) - 1
        absmax = np.max(np.abs(w), axis=0)
        s = np.where(absmax > 0, absmax / q_max, 1.0)[None, :]
        q = np.clip(round_half_away(w / s), -q_max, q_max)
        mae = np.mean(np.abs(w - q * s), axis=1)
    return np.array([b.mean() if b.size else 0.0 for b in np.array_split(np.sort(mae), 10)])


def check_eval(out: str, acts_path: str, seed: int) -> float:
    """eval: mse_overall equals the row-weighted mean of the per-modality
    MSEs; the weight-error deciles match the benchmark's own quantizer; and,
    checked last, mse_overall equals the trace minimum. Returns mse_overall."""
    rep = report(out, seed)
    mse, mse_t, mse_v = rep["mse_overall"], rep["mse_text"], rep["mse_vision"]
    _, tags = read_spqt(acts_path)
    n_t, n_v = int(np.sum(tags == TEXT)), int(np.sum(tags == VISION))
    weighted = (n_t * mse_t + n_v * mse_v) / (n_t + n_v)
    _require(_close(mse, weighted, 1e-12), f"report: mse_overall {mse!r} != row-weighted {weighted!r}")
    manifest = _manifest(out)
    w_main, _ = read_spqt(os.path.join(out, "layer", manifest["w_main"]))
    scale, _ = read_spqt(os.path.join(out, "layer", manifest["p_main"]["file"]))
    _require(manifest["p_main"]["kind"] == "diagonal", "layer: p_main is not diagonal")
    expected = weight_error_deciles(w_main, scale.reshape(-1), manifest["weight_spec"]["bits"])
    rows = read_csv(os.path.join(out, "weight_error_deciles.csv"), seed)
    _require([int(d) for d, _ in rows] == list(range(1, 11)), "deciles: expected rows 1..10")
    for (d, got), want in zip(rows, expected):
        _require(_close(float(got), float(want), 1e-9) or float(got) == want == 0.0,
                 f"deciles: decile {d} is {got}, benchmark computes {want!r}")
    best = min(loss_trace(out, seed))
    if not _close(mse, best, 1e-12):
        raise TraceMismatch(f"report: mse_overall {mse!r} != trace minimum {best!r}")
    return mse


def check_ablation(out: str, seed: int) -> None:
    """eval --ablation: four finite rows; the full configuration's row
    equals mse_overall of the calibrated layer."""
    rows = read_csv(os.path.join(out, "ablation.csv"), seed)
    names = [name for name, _ in rows]
    _require(names == ["baseline", "mocd", "mocd+cws", "mocd+cws+mac"], f"ablation: rows {names}")
    values = {name: float(v) for name, v in rows}
    _require(all(math.isfinite(v) and v >= 0 for v in values.values()), "ablation: bad value")
    mse = report(out, seed)["mse_overall"]
    _require(_close(values["mocd+cws+mac"], mse, 1e-12),
             f"ablation: mocd+cws+mac {values['mocd+cws+mac']!r} != mse_overall {mse!r}")


def check_stability(out: str, subset_sizes: list[int], seed: int) -> None:
    """stability: one row per subset size, mean Jaccard in [0, 1], std >= 0."""
    rows = read_csv(os.path.join(out, "stability.csv"), seed)
    _require([int(size) for size, _, _ in rows] == list(subset_sizes), "stability: subset sizes")
    for size, mean, std in rows:
        _require(0.0 <= float(mean) <= 1.0 and float(std) >= 0.0,
                 f"stability: size {size} mean {mean} std {std}")


def check_identity(out: str, acts_path: str, weights_path: str, seed: int) -> None:
    """--wbits 0 --abits 0: the layer cancels back to Y = XW, so its MSE is
    at most 1e-20 * mean(Y^2) with Y computed by the benchmark."""
    x, _ = read_spqt(acts_path)
    w, _ = read_spqt(weights_path)
    y = x @ w
    mse = report(out, seed)["mse_overall"]
    bound = 1e-20 * float(np.mean(y * y))
    _require(mse <= bound, f"identity mode: mse_overall {mse!r} > {bound!r}")
