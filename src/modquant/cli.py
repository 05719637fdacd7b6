"""Command-line surface: gen, select, calibrate, eval, stability.

Every command is a deterministic function of its input files, flags, and
seed; re-running with identical inputs, on the same numpy/BLAS build and
BLAS thread count, produces byte-identical outputs.
Each ``RunConfig`` field can come from a JSON file (--config, unknown keys
rejected) or from its flag, which wins: ``--field-with-dashes``; a list flag
takes space-separated ints.  A field that feeds a library config
(``MocdConfig``, ``CalibConfig``, ``SynthConfig``) has that config's field
name and default, and ``_config`` builds the config from those fields.  A
zero size turns its part off: zero ratios give no channel split, and a zero
``--rank-cws`` or ``--rank-mac`` no branch.

Exit codes: 0 success, 1 usage/config error, 2 data/format error (including
OS and memory errors), 3 numerical failure.

The CLI process is the application, so ``main`` first pins glibc's malloc
thresholds (``_keep_heap``) to keep freed memory between calibration steps;
``import modquant`` leaves its host process's allocator alone.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import synth
from .calibrate import (
    CalibConfig,
    NonFiniteLossError,
    calibrate,
    stability_report,
)
from .layer import (
    _is_int,
    build_layer,
    forward,
    forward_reference,
    load_layer,
    save_layer,
)
from .mocd import MocdConfig, build_partition, trivial_partition
from .quantizer import check_bits, quantize_weight
from .tensor import (
    ActivationBatch, TensorFormatError, load_matrix, load_tensor, save_tensor,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


# A field that feeds a library config has that config's field name and takes
# its default from that config's class, so each default is written once.
@dataclasses.dataclass
class RunConfig:
    activations: str | None = None
    weights: str | None = None
    layer_dir: str | None = None
    out: str = "."
    seed: int = 0
    wbits: int = 4
    abits: int = 4
    ratio_vision: float = MocdConfig.ratio_vision
    ratio_text: float = MocdConfig.ratio_text
    clusters: int = MocdConfig.clusters
    rank_cws: float = 0.02
    rank_mac: float = 0.03
    steps: int = CalibConfig.steps
    learning_rate: float = CalibConfig.learning_rate
    # synthetic data generation
    tokens_text: int = synth.SynthConfig.tokens_text
    tokens_vision: int = synth.SynthConfig.tokens_vision
    dim: int = synth.SynthConfig.dim
    d_out: int = 64
    vision_outliers: list[int] = dataclasses.field(
        default_factory=lambda: list(synth.SynthConfig.vision_outliers))
    text_outliers: list[int] = dataclasses.field(
        default_factory=lambda: list(synth.SynthConfig.text_outliers))
    vision_scale: float = synth.SynthConfig.vision_scale
    text_instability: float = synth.SynthConfig.text_instability
    # stability report
    subset_sizes: list[int] = dataclasses.field(default_factory=lambda: [32, 64])
    reference_size: int = 128
    trials: int = 20


_CONFIG_FIELDS = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def _is_finite_float(v) -> bool:
    # JSON integers are exact and unbounded; only those a float can hold pass.
    if _is_int(v):
        return abs(v) <= sys.float_info.max
    return isinstance(v, float) and math.isfinite(v)


# Per RunConfig field annotation: the check of a value, and the argparse
# keywords of the field's flag.
_KINDS = {
    "str | None": (lambda v: v is None or isinstance(v, str), {"type": str}),
    "str": (lambda v: isinstance(v, str), {"type": str}),
    "int": (_is_int, {"type": int}),
    "float": (_is_finite_float, {"type": float}),
    "list[int]": (lambda v: isinstance(v, list) and all(map(_is_int, v)),
                  {"type": int, "nargs": "*"}),
}


def _flag(field: str) -> str:
    """The flag of a RunConfig field: --field-with-dashes."""
    return "--" + field.replace("_", "-")


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """Merge the JSON config file and the flags, and check every value.

    Types are checked per field; quantizer widths by ``check_bits``, selection
    ratios and calibration settings by building the configs they feed (the
    generator's by ``gen``), and the remaining counts, sizes and ratios here.
    """
    values: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                values = json.load(fh)
        # Bad JSON or non-text bytes are ValueErrors; deep nesting, RecursionError.
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(values, dict):
            raise ConfigError(f"config {path} is not a JSON object")
        unknown = set(values) - set(_CONFIG_FIELDS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    values.update({k: v for k, v in overrides.items() if v is not None})
    for key, value in values.items():
        kind = _CONFIG_FIELDS[key]
        if not _KINDS[kind][0](value):
            raise ConfigError(f"{key} must be {kind}, got {value!r}")
    cfg = RunConfig(**values)
    for key, ok, domain in (
        ("seed", cfg.seed >= 0, "non-negative"),
        ("trials", cfg.trials >= 1, "positive"),
        ("reference_size", cfg.reference_size >= 1, "positive"),
        ("subset_sizes", min(cfg.subset_sizes, default=1) >= 1, "positive"),
        ("rank_cws", 0.0 <= cfg.rank_cws <= 1.0, "in [0, 1]"),
        ("rank_mac", 0.0 <= cfg.rank_mac <= 1.0, "in [0, 1]"),
        ("dim", cfg.dim >= 1, "positive"),
        ("d_out", cfg.d_out >= 1, "positive"),
        ("tokens_text", cfg.tokens_text >= 0, "non-negative"),
        ("tokens_vision", cfg.tokens_vision >= 0, "non-negative"),
    ):
        if not ok:
            raise ConfigError(f"{key} must be {domain}, got {getattr(cfg, key)!r}")
    try:
        _quant_bits(cfg)
        _config(MocdConfig, cfg)
        _config(CalibConfig, cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def _quant_bits(cfg: RunConfig) -> tuple[int | None, int | None]:
    """The activation and weight bits, checked; 0 is the identity (None)."""
    return tuple(check_bits(None if b == 0 else b) for b in (cfg.abits, cfg.wbits))


def _config(cls, cfg: RunConfig):
    """A ``cls`` whose every field takes the ``cfg`` field of the same name;
    lists become tuples, so ``_config(cls, RunConfig()) == cls()``."""
    return cls(**{f.name: tuple(v) if isinstance(v := getattr(cfg, f.name), list) else v
                  for f in dataclasses.fields(cls)})


def _load_batch(path: str | None) -> ActivationBatch:
    if path is None:
        raise ConfigError("activation dump path not set")
    batch = load_tensor(path)
    if not isinstance(batch, ActivationBatch):
        raise TensorFormatError(f"{path} does not contain an activation batch")
    return batch


def _load_weight(path: str | None) -> np.ndarray:
    if path is None:
        raise ConfigError("weight dump path not set")
    return load_matrix(path)


def _write_csv(cfg: RunConfig, name: str, header: list[str], rows) -> None:
    """Write ``name`` under ``cfg.out``, creating it, after a ``# seed=`` line.
    Values are Python ints, floats and strs: ``str`` of a float is its repr."""
    os.makedirs(cfg.out, exist_ok=True)
    with open(os.path.join(cfg.out, name), "w", newline="\n") as fh:
        fh.write(f"# seed={cfg.seed}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


def cmd_gen(cfg: RunConfig) -> int:
    try:  # the planted channels, instability and token count are config values
        with np.errstate(over="raise"):
            batch = synth.generate(_config(synth.SynthConfig, cfg))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    except FloatingPointError as exc:  # vision_scale is the one unbounded input
        raise ConfigError(f"vision_scale {cfg.vision_scale!r} overflows float64") from exc
    os.makedirs(cfg.out, exist_ok=True)
    save_tensor(os.path.join(cfg.out, "activations.spqt"), batch)
    w = synth.generate_weight(cfg.dim, cfg.d_out, seed=cfg.seed)
    save_tensor(os.path.join(cfg.out, "weights.spqt"), w)
    print(f"wrote activations.spqt and weights.spqt to {cfg.out} (seed={cfg.seed})")
    return EXIT_OK


def cmd_select(cfg: RunConfig) -> int:
    batch = _load_batch(cfg.activations)
    partition = build_partition(batch, _config(MocdConfig, cfg))
    # initial=0.0 gives an absent modality 0.0 in every channel.
    t_max, v_max = (np.max(np.abs(batch.data[rows]), axis=0, initial=0.0)
                    for rows in (batch.text_rows, batch.vision_rows))
    _write_csv(
        cfg, "channel_stats.csv", ["channel", "text_max_abs", "vision_max_abs"],
        zip(range(partition.dim), t_max.tolist(), v_max.tolist()),
    )
    # _write_csv has created cfg.out.
    with open(os.path.join(cfg.out, "partition.json"), "w") as fh:
        json.dump(
            {
                "seed": cfg.seed,
                "dim": partition.dim,
                "c_main": partition.c_main.tolist(),
                "c_text": partition.c_text.tolist(),
                "c_vision": partition.c_vision.tolist(),
            },
            fh, indent=2, sort_keys=True,
        )
        fh.write("\n")
    print(f"partition: {len(partition.c_main)} main / "
          f"{len(partition.c_text)} text / {len(partition.c_vision)} vision")
    return EXIT_OK


def _build(cfg: RunConfig, batch, w):
    return build_layer(w, batch, build_partition(batch, _config(MocdConfig, cfg)),
                       *_quant_bits(cfg), cfg.rank_cws, cfg.rank_mac)


def cmd_calibrate(cfg: RunConfig) -> int:
    batch = _load_batch(cfg.activations)
    w = _load_weight(cfg.weights)
    layer, trace = calibrate(_build(cfg, batch, w), batch, _config(CalibConfig, cfg))
    layer_dir = cfg.layer_dir or os.path.join(cfg.out, "layer")
    save_layer(layer, layer_dir)
    _write_csv(cfg, "loss_trace.csv", ["step", "loss"], enumerate(trace.losses))
    print(f"best loss {trace.best_loss:.6e} at step {trace.best_step}; "
          f"layer saved to {layer_dir}")
    return EXIT_OK


def _mse_rows(layer, batch, y_ref):
    err = (forward(layer, batch) - y_ref) ** 2
    overall = float(err.mean())
    t_rows, v_rows = batch.text_rows, batch.vision_rows
    mse_t = float(err[t_rows].mean()) if t_rows.size else float("nan")
    mse_v = float(err[v_rows].mean()) if v_rows.size else float("nan")
    return overall, mse_t, mse_v


def _weight_error_deciles(layer) -> list[tuple[int, float]]:
    """Per-channel weight quantization error of the scaled main weight,
    sorted ascending by MAE and averaged within 10 equal bins.  Its
    full-size temporaries are freed on return, before any ablation."""
    c_main = layer.partition.c_main
    w_prime = layer.w[c_main] / layer.scale[c_main, None]
    mae = np.mean(np.abs(w_prime - quantize_weight(w_prime, layer.weight_bits)), axis=1)
    bins = np.array_split(np.sort(mae), 10)
    return [(i + 1, float(b.mean()) if b.size else 0.0) for i, b in enumerate(bins)]


def cmd_eval(cfg: RunConfig, ablation: bool = False) -> int:
    batch = _load_batch(cfg.activations)
    layer_dir = cfg.layer_dir or os.path.join(cfg.out, "layer")
    layer = load_layer(os.path.join(layer_dir, "manifest.json"))
    y_ref = forward_reference(layer.w, batch)
    overall, mse_t, mse_v = _mse_rows(layer, batch, y_ref)
    if not math.isfinite(overall):
        raise FloatingPointError(f"non-finite mse_overall {overall!r}")
    if ablation:  # build_layer checks the weight's rows before anything is written
        w = _load_weight(cfg.weights)
        base = build_layer(w, batch, trivial_partition(batch.data.shape[1]),
                           *_quant_bits(cfg))
        full = _build(cfg, batch, w)
    _write_csv(
        cfg, "report.csv", ["metric", "value"],
        [("mse_overall", overall), ("mse_text", mse_t), ("mse_vision", mse_v)],
    )

    _write_csv(cfg, "weight_error_deciles.csv", ["decile", "mean_mae"],
               _weight_error_deciles(layer))
    print(f"mse overall {overall:.6e} (text {mse_t:.6e}, vision {mse_v:.6e})")

    if ablation:
        # Dropping a branch gives the layer built without it, and a best loss
        # is the calibrated layer's MSE (the same forward pass and y_ref).  The
        # split layer follows the configured ratios: a zero rank repeats a row.
        grid = [("baseline", base),
                ("mocd", dataclasses.replace(full, branch_smooth=None, branch_comp=None)),
                ("mocd+cws", dataclasses.replace(full, branch_comp=None)),
                ("mocd+cws+mac", full)]
        # The layer is most often this weight's calibration: reuse its X @ W.
        if not np.array_equal(w, layer.w):
            y_ref = forward_reference(w, batch)
        calib = _config(CalibConfig, cfg)
        rows = [(name, calibrate(lay, batch, calib, y_ref=y_ref)[1].best_loss)
                for name, lay in grid]
        _write_csv(cfg, "ablation.csv", ["config", "mse"], rows)
    return EXIT_OK


def cmd_stability(cfg: RunConfig) -> int:
    batch = _load_batch(cfg.activations)
    report = stability_report(
        batch, _config(MocdConfig, cfg), cfg.subset_sizes,
        min(cfg.reference_size, batch.data.shape[0]),
        cfg.trials, seed=cfg.seed,
    )
    _write_csv(
        cfg, "stability.csv", ["subset_size", "mean_jaccard", "std"],
        [(r["subset_size"], r["mean_jaccard"], r["std_jaccard"]) for r in report],
    )
    for r in report:
        print(f"size {r['subset_size']}: mean jaccard {r['mean_jaccard']:.3f}")
    return EXIT_OK


_COMMANDS = {
    "gen": cmd_gen,
    "select": cmd_select,
    "calibrate": cmd_calibrate,
    "eval": cmd_eval,
    "stability": cmd_stability,
}


def _build_parser() -> argparse.ArgumentParser:
    # Every command shares one set of flags: --config and one per field.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config")
    for field, kind in _CONFIG_FIELDS.items():
        common.add_argument(_flag(field), dest=field, default=None, **_KINDS[kind][1])
    parser = argparse.ArgumentParser(prog="modquant")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, parents=[common])
        if name == "eval":
            p.add_argument("--ablation", action="store_true")
    return parser


# Measured, unpinned -> pinned (40-s perfbench): select-text-heavy ablation_s 0.624 -> 0.553 s.
def _keep_heap() -> None:
    """Stop glibc from handing freed heap memory back to the kernel.

    Each calibration step frees several MB of numpy temporaries; by default
    glibc returns the free heap top, and the next step faults the same pages
    in again.  Setting either threshold turns glibc's dynamic rule off, so
    both are set, to the values that rule climbs to.  Off Linux, or where
    ``mallopt`` cannot be found, nothing changes.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: DEFAULT_MMAP_THRESHOLD_MAX on 64-bit
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: twice it, as the dynamic rule keeps it


def main(argv: list[str] | None = None) -> int:
    _keep_heap()
    try:
        args = vars(_build_parser().parse_args(argv))
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_USAGE if exc.code else EXIT_OK
    command, config = args.pop("command"), args.pop("config")
    overrides = {field: args.pop(field) for field in _CONFIG_FIELDS}
    # What is left in args are the command's own flags (eval's --ablation).
    try:
        # A non-finite result is reported once, below, not also as warnings.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _COMMANDS[command](load_config(config, overrides), **args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NonFiniteLossError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (TensorFormatError, OSError, MemoryError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
