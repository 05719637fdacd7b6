"""Digest every CLI output of the benchmark workloads, for byte-identity checks.

Usage: python3 tools/output_digest.py SRC_DIR OUT.json [WORKLOAD/seedN ...]

SRC_DIR is a source tree that holds the ``modquant`` package (``src`` of a
checkout). For each workload in ``perfbench/workloads.py``, and once with no
``--config`` (keyed ``defaults``, so that a moved default shows), at gen seeds
0, 3 and 14, the script runs, one subprocess per command and with BLAS pinned
to one thread:

- ``gen``, ``select``, ``calibrate``, ``eval --ablation`` and ``stability``;
- ``calibrate`` and ``eval`` with ``--wbits 0 --abits 0``;
- ``calibrate --ratio-vision 0 --ratio-text 0`` (no channel split).

It writes one JSON object, one entry per line (816 entries), that maps
``<workload>/seed<N>/<command>/<file>`` to the sha256 of each output file,
``<workload>/seed<N>/<command>.exit`` to each exit code and
``<workload>/seed<N>/<command>.stderr`` to the sha256 of each command's
standard error, so a new warning or traceback shows too. Each optional
``WORKLOAD/seedN`` selector (``loop-small/seed0``, ``defaults/seed3``) limits
the run to that (workload, seed) pair, 68 entries each; with none, every pair
runs. Two source trees write the same bytes exactly when ``diff`` finds their
files equal:

    python3 tools/output_digest.py OLD/src old.json
    python3 tools/output_digest.py src new.json
    diff old.json new.json

A hot-path edit can be byte-checked in seconds on a few pairs first:

    python3 tools/output_digest.py src new.json loop-small/seed0 defaults/seed3

Outputs are byte-identical for the same inputs, the same numpy/BLAS build and
the same BLAS thread count, so every command runs with OpenBLAS, OpenMP and
MKL pinned to one thread. Another count can change the last bits of a large
product or SVD: at two threads 18 of the 540 workload entries differ, all on
calib-wide.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GEN_SEEDS = (0, 3, 14)


def _workloads() -> dict:
    path = os.path.join(REPO, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("_digest_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _commands(run: str) -> list[tuple[str, list[str]]]:
    """(output directory name, CLI arguments) of each command, in order."""
    acts = ["--activations", os.path.join(run, "gen", "activations.spqt")]
    weights = ["--weights", os.path.join(run, "gen", "weights.spqt")]
    identity = ["--wbits", "0", "--abits", "0"]

    def out(name):
        return ["--out", os.path.join(run, name)]

    def layer(name):
        return ["--layer-dir", os.path.join(run, name, "layer")]

    return [
        ("gen", ["gen"] + out("gen")),
        ("select", ["select"] + acts + out("select")),
        ("calibrate", ["calibrate"] + acts + weights + out("calibrate")),
        ("eval", ["eval", "--ablation"] + acts + weights + layer("calibrate")
         + out("eval")),
        ("stability", ["stability"] + acts + out("stability")),
        ("identity-calibrate", ["calibrate"] + identity + acts + weights
         + out("identity-calibrate")),
        ("identity-eval", ["eval"] + identity + acts + layer("identity-calibrate")
         + out("identity-eval")),
        ("unsplit-calibrate", ["calibrate", "--ratio-vision", "0", "--ratio-text", "0"]
         + acts + weights + out("unsplit-calibrate")),
    ]


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def pairs() -> list[str]:
    """Every ``WORKLOAD/seedN`` selector, in the order the digest runs them."""
    names = sorted(["defaults", *_workloads()])  # defaults: the CLI's own
    return [f"{name}/seed{seed}" for name in names for seed in GEN_SEEDS]


def digest(src_dir: str, keys: list[str]) -> dict:
    """The digest entries of the ``WORKLOAD/seedN`` pairs ``keys``, in order."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src_dir),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    result = {}
    with tempfile.TemporaryDirectory() as work:
        configs = {"defaults": []}
        for name, workload in _workloads().items():
            configs[name] = ["--config", os.path.join(work, f"{name}.json")]
            with open(configs[name][1], "w") as fh:
                json.dump(workload.cli_config(), fh)
        for key in keys:
            name, seed = key.split("/seed")
            run = os.path.join(work, key)
            for out_name, args in _commands(run):
                argv = [sys.executable, "-m", "modquant.cli", *args, *configs[name],
                        "--seed", seed]
                proc = subprocess.run(argv, env=env, capture_output=True)
                result[f"{key}/{out_name}.exit"] = proc.returncode
                result[f"{key}/{out_name}.stderr"] = hashlib.sha256(proc.stderr).hexdigest()
                out_dir = os.path.join(run, out_name)
                for root, _, files in os.walk(out_dir):
                    for f in files:
                        path = os.path.join(root, f)
                        rel = os.path.relpath(path, run).replace(os.sep, "/")
                        result[f"{key}/{rel}"] = _sha256(path)
            print(f"{key}: {sum(k.startswith(key + '/') for k in result)} entries",
                  file=sys.stderr)
    return result


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    src_dir, out_path, *selected = argv
    if not os.path.isdir(os.path.join(src_dir, "modquant")):
        print(f"no modquant package under {src_dir}", file=sys.stderr)
        return 1
    known = pairs()
    unknown = sorted(set(selected) - set(known))
    if unknown:
        print(f"unknown selector {unknown[0]}; known: {' '.join(known)}", file=sys.stderr)
        return 1
    result = digest(src_dir, [k for k in known if k in selected] if selected else known)
    with open(out_path, "w") as fh:
        json.dump(result, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
