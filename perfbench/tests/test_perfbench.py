"""Tests of the benchmark itself: the SPQT reader, that every output check
rejects a tampered output, the tracer, and one end-to-end loop-small run.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from modquant import cli  # noqa: E402
from modquant.tensor import ActivationBatch, save_tensor  # noqa: E402

SEED = 4
WL = WORKLOADS["loop-small"]


def test_reader_round_trips_matrix(tmp_path):
    m = np.random.default_rng(0).standard_normal((3, 5))
    save_tensor(tmp_path / "m.spqt", m)
    data, tags = checks.read_spqt(str(tmp_path / "m.spqt"))
    assert tags is None and data.tobytes() == m.tobytes()


def test_reader_round_trips_batch(tmp_path):
    x = np.random.default_rng(1).standard_normal((4, 2))
    tags = np.array([0, 1, 1, 0], dtype=np.uint8)
    save_tensor(tmp_path / "b.spqt", ActivationBatch(x, tags))
    data, got = checks.read_spqt(str(tmp_path / "b.spqt"))
    assert data.tobytes() == x.tobytes() and got.tolist() == tags.tolist()


def test_reader_rejects_truncated_file(tmp_path):
    save_tensor(tmp_path / "m.spqt", np.ones((2, 2)))
    raw = (tmp_path / "m.spqt").read_bytes()
    (tmp_path / "m.spqt").write_bytes(raw[:-1])
    with pytest.raises(checks.CheckError):
        checks.read_spqt(str(tmp_path / "m.spqt"))


@pytest.fixture(scope="module")
def loop_run(tmp_path_factory):
    """One loop-small run of one round: the loop, then the fixed-input
    quality and identity commands."""
    work = str(tmp_path_factory.mktemp("loop-small"))
    ledger, metrics, raw = run.time_run(WL, SEED, 0.0, work)
    return work, ledger, metrics


def test_loop_small_passes_every_check(loop_run):
    _, ledger, metrics = loop_run
    # The loop's 6 commands, 3 quality and 2 identity commands on the fixed
    # inputs. Only the identity eval fails, on the known save/load fault.
    assert ledger.attempted == 6 + 3 + 2
    assert ledger.failed == 1 and ledger.wrong == 0
    assert set(metrics) == set(run.END_TO_END)
    assert all(np.isfinite(v) and v > 0 for v, _ in metrics.values())


@pytest.fixture
def outputs(loop_run, tmp_path):
    """A private copy of the round's inputs and outputs to tamper with."""
    work = loop_run[0]
    shutil.copytree(os.path.join(work, "inputs"), tmp_path / "inputs")
    shutil.copytree(os.path.join(work, "loop"), tmp_path / "loop")
    return {
        "out": str(tmp_path / "loop"),
        "acts": str(tmp_path / "inputs" / "activations.spqt"),
        "weights": str(tmp_path / "inputs" / "weights.spqt"),
    }


def _check_all(o):
    checks.check_inputs(o["acts"], o["weights"], WL)
    checks.check_select(o["out"], o["acts"], WL, SEED)
    checks.check_calibrate(o["out"], o["weights"], WL.steps, SEED)
    checks.check_eval(o["out"], o["acts"], SEED)
    checks.check_ablation(o["out"], SEED)
    checks.check_stability(o["out"], WL.subset_sizes, SEED)


def _edit_csv(path, row, col, value):
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[2 + row].split(",")
    cells[col] = value(cells[col])
    lines[2 + row] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _swap_partition_channel(o):
    path = os.path.join(o["out"], "partition.json")
    with open(path) as fh:
        part = json.load(fh)
    v, m = part["c_vision"][0], part["c_main"][0]
    part["c_vision"] = sorted([m] + part["c_vision"][1:])
    part["c_main"] = sorted([v] + part["c_main"][1:])
    with open(path, "w") as fh:
        json.dump(part, fh)


def _best_loss_row(o):
    losses = checks.loss_trace(o["out"], SEED)
    return losses.index(min(losses))


def _flip_byte(path, offset_from_end):
    raw = bytearray(open(path, "rb").read())
    raw[-offset_from_end] ^= 0x01
    open(path, "wb").write(bytes(raw))


TAMPERS = {
    "swapped partition channel": _swap_partition_channel,
    "edited channel_stats value": lambda o: _edit_csv(
        os.path.join(o["out"], "channel_stats.csv"), 3, 2, lambda v: repr(float(v) * 1.5)),
    "edited loss row": lambda o: _edit_csv(
        os.path.join(o["out"], "loss_trace.csv"), _best_loss_row(o), 1,
        lambda v: repr(float(v) * (1 + 1e-9))),
    "non-finite loss row": lambda o: _edit_csv(
        os.path.join(o["out"], "loss_trace.csv"), 5, 1, lambda v: "nan"),
    "changed weight byte": lambda o: _flip_byte(
        os.path.join(o["out"], "layer", "w_main.spqt"), 17),
    "changed mse_text": lambda o: _edit_csv(
        os.path.join(o["out"], "report.csv"), 1, 1, lambda v: repr(float(v) * 1.01)),
    "edited weight-error decile": lambda o: _edit_csv(
        os.path.join(o["out"], "weight_error_deciles.csv"), 4, 1,
        lambda v: repr(float(v) * (1 + 1e-6))),
    "edited ablation row": lambda o: _edit_csv(
        os.path.join(o["out"], "ablation.csv"), 3, 1, lambda v: repr(float(v) * 1.001)),
    "stability mean above 1": lambda o: _edit_csv(
        os.path.join(o["out"], "stability.csv"), 0, 1, lambda v: "1.5"),
}


def test_untampered_outputs_pass(outputs):
    _check_all(outputs)


@pytest.mark.parametrize("tamper", sorted(TAMPERS))
def test_check_rejects_tampered_output(outputs, tamper):
    TAMPERS[tamper](outputs)
    with pytest.raises(checks.CheckError):
        _check_all(outputs)


def test_identity_check_rejects_large_error(loop_run, tmp_path):
    work = loop_run[0]
    shutil.copytree(os.path.join(work, "identity"), tmp_path / "identity")
    acts = os.path.join(work, "fixed", "activations.spqt")
    weights = os.path.join(work, "fixed", "weights.spqt")
    checks.check_identity(str(tmp_path / "identity"), acts, weights, run.FIXED_SEED)
    _edit_csv(str(tmp_path / "identity" / "report.csv"), 0, 1, lambda v: "1e-6")
    with pytest.raises(checks.CheckError):
        checks.check_identity(str(tmp_path / "identity"), acts, weights, run.FIXED_SEED)


def test_identity_eval_shows_the_save_load_fault(loop_run):
    """On the fixed inputs the identity eval passes every check but the last:
    its mse_overall is not the trace minimum."""
    work = loop_run[0]
    out = os.path.join(work, "identity")
    acts = os.path.join(work, "fixed", "activations.spqt")
    with pytest.raises(checks.TraceMismatch):
        checks.check_eval(out, acts, run.FIXED_SEED)


def test_ledger_counts_a_known_fault_as_failed_not_wrong(tmp_path):
    def mismatch():
        raise checks.TraceMismatch("differs")

    def execute(argv):
        return 0.1, 0, 0, ""

    ledger = run.Ledger(execute)
    known = run.Command("k", None, ("x",), str(tmp_path), (), mismatch,
                        known_fault=checks.TraceMismatch)
    assert ledger.run(known) is None
    assert (ledger.attempted, ledger.failed, ledger.wrong) == (1, 1, 0)
    # The same failure on a command without that known fault is a wrong output.
    ledger.run(dataclasses.replace(known, known_fault=None))
    assert (ledger.attempted, ledger.failed, ledger.wrong) == (2, 2, 1)


def test_ledger_fails_a_repeat_with_different_bytes(tmp_path):
    count = iter(range(10))

    def execute(argv):
        (tmp_path / "out.txt").write_text(str(next(count) // 2))
        return 0.1, 0, 0, ""

    cmd = run.Command("c", None, ("x",), str(tmp_path), ("out.txt",), lambda: None)
    ledger = run.Ledger(execute)
    assert ledger.run(cmd) and ledger.run(cmd)  # writes "0" twice
    assert ledger.run(cmd) is None              # writes "1"
    assert (ledger.attempted, ledger.failed, ledger.wrong) == (3, 1, 1)


def test_tracer_wraps_every_binding_and_restores(tmp_path):
    import modquant
    calibrate_module = sys.modules["modquant.calibrate"]
    originals = (cli.build_partition, cli.calibrate, modquant.calibrate,
                 calibrate_module.forward_with_cache)
    spans = tracer.Tracer()
    spans.install()
    try:
        assert cli.calibrate is modquant.calibrate is calibrate_module.calibrate
        assert cli.calibrate is not originals[1]
        assert calibrate_module.forward_with_cache is not originals[3]
        out = str(tmp_path)
        assert cli.main(["gen", "--seed", "1", "--out", out]) == 0
        assert cli.main(["select", "--activations", os.path.join(out, "activations.spqt"),
                         "--out", out]) == 0
    finally:
        spans.uninstall()
    assert (cli.build_partition, cli.calibrate, modquant.calibrate,
            calibrate_module.forward_with_cache) == originals
    m = tracer.layer_metrics(spans.spans)
    assert m["mocd.build_partition_calls"] == 1
    assert m["tensor.bytes_written"] == m["tensor.bytes_read"] + os.path.getsize(
        os.path.join(out, "weights.spqt"))
    assert m["mocd.channels_scored"] == 64 - 1  # text candidates: all but C_v
    assert m["mocd.rank_cells"] == 64 * 63
    assert m["mocd.build_partition_s"] >= m["mocd.text_score_s"] > 0


def test_self_time_subtracts_children():
    spans = [tracer.Span("a.f", None, 0.0, 10.0, child_s=4.0),
             tracer.Span("tensor.matmul", 0, 1.0, 5.0, work={"gflop": 2.0})]
    m = tracer.layer_metrics(spans)
    assert m["tensor.matmul_s"] == 4.0 and m["tensor.matmul_gflop"] == 2.0
    assert m["tensor.matmul_calls"] == 1
