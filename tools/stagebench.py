"""Time the split layer's calibration stages in-process, at fixed sizes.

Usage: python3 tools/stagebench.py LABEL [--src SRC_DIR] [--out DIR]
                                         [--repeats N] [--sizes TxD ...]

Writes ``BENCH_stages-<LABEL>.json`` in ``--out`` (default: ``bench`` of
this checkout, where the committed files are). SRC_DIR (default: ``src`` of
this checkout) holds the ``modquant`` package to time, so one script times
two source trees:

    python3 tools/stagebench.py before --src OLD/src
    python3 tools/stagebench.py after

At each size (T tokens, half text and half vision, D = d_out channels;
default 128x64, 512x256 and 2048x1024) it generates one batch and weight at
fixed seeds, plants k = max(2, 5D/128) outlier channels per modality (40 at
D = 1024), selects with ratio k/D, and builds the CLI's default layer from
``cli.RunConfig``'s bits and rank ratios (W4A4 with CWS and MAC at 0.02 and
0.03 today), so a moved default moves the timed layer too. It then times
three stages:

- ``forward_with_cache_s``: one ``layer.forward_with_cache`` on a prepared
  batch;
- ``analytic_gradient_s``: one ``calibrate.analytic_gradient``, its forward
  included;
- ``calibrate_step_s``: one ``calibrate.calibrate`` call of 5 steps over 5,
  so ``prepare`` and the last step's loss-only forward are spread over it.

Each repeat times each stage in turn, over as many calls as fill about
50 ms (at least one), and keeps the time per call; a stage reports the
median over ``--repeats`` repeats (default 5) and every sample. BLAS runs on one thread: the script
pins OpenBLAS, OpenMP and MKL before numpy is imported. The heap is kept
as the CLI keeps it (``cli._keep_heap``), so a repeat's temporaries reuse
the memory of the last one. The file records the
Python and numpy versions, the BLAS build, the thread count and ``nproc``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402

import numpy as np  # noqa: E402

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = ("128x64", "512x256", "2048x1024")
CALIBRATE_STEPS = 5
REPEAT_S = 0.05


def _environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_build = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_build, "blas_threads": 1, "nproc": os.cpu_count()}


def _calls_per_repeat(fn) -> int:
    """Calls of ``fn`` that fill about ``REPEAT_S``, from one untimed call."""
    start = time.perf_counter()
    fn()
    return max(1, int(REPEAT_S / max(time.perf_counter() - start, 1e-9)))


def _time(fn, calls: int) -> float:
    start = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - start) / calls


def _stages(mq, tokens: int, dim: int, repeats: int) -> dict:
    k = max(2, dim * 5 // 128)
    stride = dim // k
    batch = mq.synth.generate(mq.synth.SynthConfig(
        tokens_text=tokens // 2, tokens_vision=tokens - tokens // 2, dim=dim,
        vision_outliers=tuple(range(1, dim, stride))[:k],
        text_outliers=tuple(range(1 + stride // 2, dim, stride))[:k], seed=0))
    w = mq.synth.generate_weight(dim, dim, seed=1)
    part = mq.mocd.build_partition(batch, mq.mocd.MocdConfig(ratio_vision=k / dim,
                                                             ratio_text=k / dim))
    run = mq.cli.RunConfig()
    layer = mq.layer.build_layer(w, batch, part, *mq.cli._quant_bits(run), run.rank_cws,
                                 run.rank_mac)
    prep = mq.layer.prepare(layer, batch)
    y_ref = mq.layer.forward_reference(w, batch)
    cfg = mq.calibrate.CalibConfig(steps=CALIBRATE_STEPS)
    timed = {
        "forward_with_cache_s": lambda: mq.layer.forward_with_cache(layer, prep),
        "analytic_gradient_s": lambda: mq.calibrate.analytic_gradient(layer, prep, y_ref),
        "calibrate_step_s": lambda: mq.calibrate.calibrate(layer, batch, cfg, y_ref=y_ref),
    }
    calls = {name: _calls_per_repeat(fn) for name, fn in timed.items()}
    # Stage by stage within each repeat, so a slow spell of the machine
    # lands on every stage alike.
    samples = {name: [] for name in timed}
    for _ in range(repeats):
        for name, fn in timed.items():
            samples[name].append(_time(fn, calls[name]))
    samples["calibrate_step_s"] = [s / CALIBRATE_STEPS for s in samples["calibrate_step_s"]]
    stages = {name: statistics.median(values) for name, values in samples.items()}
    return {"tokens": tokens, "dim": dim, "d_out": dim, "outliers_per_modality": k,
            "widths": [int(part.c_main.size), int(part.c_text.size), int(part.c_vision.size)],
            "ranks": [layer.branch_smooth.rank, layer.branch_comp.rank],
            "stages": stages, "samples": samples}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label")
    parser.add_argument("--src", default=os.path.join(REPO, "src"))
    parser.add_argument("--out", default=os.path.join(REPO, "bench"))
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--sizes", nargs="+", default=list(SIZES), metavar="TxD")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    # By module: the package attribute ``modquant.calibrate`` is the function.
    mq = types.SimpleNamespace(**{name: importlib.import_module(f"modquant.{name}")
                                  for name in ("synth", "mocd", "layer", "calibrate", "cli")})
    mq.cli._keep_heap()

    sizes = [tuple(int(v) for v in size.split("x")) for size in args.sizes]
    result = {"label": args.label, "environment": _environment(), "repeats": args.repeats,
              "calibrate_steps": CALIBRATE_STEPS,
              "sizes": [_stages(mq, t, d, args.repeats) for t, d in sizes]}
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"BENCH_stages-{args.label}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    for size in result["sizes"]:
        print(f"{size['tokens']}x{size['dim']}: " + ", ".join(
            f"{name} {value * 1e3:.3f} ms" for name, value in size["stages"].items()))
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
