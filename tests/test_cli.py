"""End-to-end command-line pipeline: exit codes and determinism."""

import contextlib
import ctypes
import io
import json
import os
import platform
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modquant
from modquant import cli, synth
from modquant.cli import EXIT_DATA, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main
from modquant.tensor import MAGIC, ActivationBatch, load_tensor, save_tensor
from modquant.transform import DIAG_EPS, DIAG_MAX


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def generated(tmp_path):
    out = tmp_path / "data"
    assert run("gen", "--seed", "3", "--out", str(out)) == EXIT_OK
    return {
        "activations": str(out / "activations.spqt"),
        "weights": str(out / "weights.spqt"),
        "dir": out,
    }


class TestGen:
    def test_writes_loadable_batch(self, generated):
        batch = load_tensor(generated["activations"])
        assert isinstance(batch, ActivationBatch)
        assert batch.data.shape == (128, 64)
        w = load_tensor(generated["weights"])
        assert w.shape == (64, 64)

    def test_seed_repeat_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("gen", "--seed", "9", "--out", str(a)) == EXIT_OK
        assert run("gen", "--seed", "9", "--out", str(b)) == EXIT_OK
        for name in ("activations.spqt", "weights.spqt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_invalid_planted_index_fails(self, tmp_path):
        # A planted channel outside dim is a config value out of range.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"vision_outliers": [999]}))
        rc = run("gen", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert rc == EXIT_USAGE


    @pytest.mark.parametrize("value,expected", [(1e308, EXIT_USAGE), (1e200, EXIT_OK)])
    def test_overflowing_vision_scale_is_config_error(self, tmp_path, value, expected):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"vision_scale": value}))
        rc, err = run_captured(["gen", "--config", str(config), "--out", str(tmp_path)])
        assert rc == expected and "Traceback" not in err
        assert err.startswith("config error:") if rc else err == ""


class TestSelect:
    def test_partition_matches_planted_channels(self, generated, tmp_path):
        out = tmp_path / "sel"
        rc = run(
            "select", "--activations", generated["activations"],
            "--ratio-vision", "0.03125", "--ratio-text", "0.03125",
            "--out", str(out),
        )
        assert rc == EXIT_OK
        part = json.loads((out / "partition.json").read_text())
        assert part["c_vision"] == [3, 9]
        assert part["c_text"] == [17, 42]
        stats = (out / "channel_stats.csv").read_text().splitlines()
        assert stats[0] == "# seed=0"
        assert len(stats) == 2 + 64

    def test_zero_ratios_give_trivial_partition(self, generated, tmp_path):
        out = tmp_path / "sel0"
        rc = run(
            "select", "--activations", generated["activations"],
            "--ratio-vision", "0", "--ratio-text", "0", "--out", str(out),
        )
        assert rc == EXIT_OK
        part = json.loads((out / "partition.json").read_text())
        assert part["c_main"] == list(range(64))

    def test_rerun_is_byte_identical(self, generated, tmp_path):
        a, b = tmp_path / "s1", tmp_path / "s2"
        for out in (a, b):
            assert run(
                "select", "--activations", generated["activations"],
                "--out", str(out),
            ) == EXIT_OK
        for name in ("partition.json", "channel_stats.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_missing_file_is_data_error(self, tmp_path):
        rc = run(
            "select", "--activations", str(tmp_path / "nope.spqt"),
            "--out", str(tmp_path),
        )
        assert rc == EXIT_DATA

    def test_corrupt_file_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.spqt"
        bad.write_bytes(b"not a tensor dump at all")
        rc = run("select", "--activations", str(bad), "--out", str(tmp_path))
        assert rc == EXIT_DATA

    def test_no_activations_is_usage_error(self, tmp_path):
        assert run("select", "--out", str(tmp_path)) == EXIT_USAGE


class TestCalibrateEval:
    def test_pipeline_and_determinism(self, generated, tmp_path):
        outs = []
        for name in ("c1", "c2"):
            out = tmp_path / name
            rc = run(
                "calibrate",
                "--activations", generated["activations"],
                "--weights", generated["weights"],
                "--steps", "10", "--out", str(out),
            )
            assert rc == EXIT_OK
            outs.append(out)
        a, b = outs
        assert (a / "loss_trace.csv").read_bytes() == (b / "loss_trace.csv").read_bytes()
        assert (a / "layer" / "manifest.json").read_bytes() == (
            b / "layer" / "manifest.json"
        ).read_bytes()

        rc = run(
            "eval",
            "--activations", generated["activations"],
            "--layer-dir", str(a / "layer"), "--out", str(a),
        )
        assert rc == EXIT_OK
        report = (a / "report.csv").read_text().splitlines()
        assert report[1] == "metric,value"
        metrics = dict(line.split(",") for line in report[2:])
        assert float(metrics["mse_overall"]) >= 0.0
        deciles = (a / "weight_error_deciles.csv").read_text().splitlines()[2:]
        values = [float(line.split(",")[1]) for line in deciles]
        assert values == sorted(values)

    @pytest.mark.parametrize("wbits", ["4", "0"])
    def test_weight_error_deciles_match_numpy(self, generated, tmp_path, wbits):
        # The deciles recomputed from the saved layer's files: the main
        # weight's rows divided by their scales, quantized symmetric per
        # column (S = absmax / q_max, round half away from zero, clip), each
        # row's mean |error|, sorted and averaged in 10 bins.
        out = tmp_path / "c"
        assert run("calibrate", "--activations", generated["activations"],
                   "--weights", generated["weights"], "--wbits", wbits,
                   "--steps", "3", "--out", str(out)) == EXIT_OK
        assert run("eval", "--activations", generated["activations"],
                   "--out", str(out)) == EXIT_OK
        layer = out / "layer"
        manifest = json.loads((layer / "manifest.json").read_text())
        scale = load_tensor(str(layer / manifest["p_main"]["file"])).reshape(-1, 1)
        w = load_tensor(str(layer / manifest["w_main"])) / scale
        err = np.zeros_like(w)
        if wbits == "0":
            assert manifest["weight_spec"]["bits"] is None
        else:
            assert manifest["weight_spec"] == {
                "bits": int(wbits), "symmetric": True, "granularity": "per_channel"}
            q_max = 2 ** (int(wbits) - 1) - 1
            s = np.abs(w).max(axis=0) / q_max
            x = w / s
            q = np.clip(np.sign(x) * np.floor(np.abs(x) + 0.5), -q_max, q_max)
            err = w - q * s
        mae = np.sort(np.abs(err).mean(axis=1))
        want = [b.mean() if b.size else 0.0 for b in np.array_split(mae, 10)]
        lines = (out / "weight_error_deciles.csv").read_text().splitlines()
        assert lines[1] == "decile,mean_mae"
        rows = [line.split(",") for line in lines[2:]]
        assert [int(r[0]) for r in rows] == list(range(1, 11))
        np.testing.assert_allclose([float(r[1]) for r in rows], want, rtol=1e-12, atol=0)
        assert (want[-1] > 0) == (wbits != "0")

    def test_identity_quantizer_mode_is_exact(self, generated, tmp_path):
        out = tmp_path / "id"
        rc = run(
            "calibrate",
            "--activations", generated["activations"],
            "--weights", generated["weights"],
            "--wbits", "0", "--abits", "0",
            "--steps", "3", "--out", str(out),
        )
        assert rc == EXIT_OK
        trace = (out / "loss_trace.csv").read_text().splitlines()[2:]
        assert all(float(line.split(",")[1]) <= 1e-12 for line in trace)
        rc = run(
            "eval",
            "--activations", generated["activations"],
            "--layer-dir", str(out / "layer"), "--out", str(out),
        )
        assert rc == EXIT_OK
        report = (out / "report.csv").read_text().splitlines()
        mse = float(dict(line.split(",") for line in report[2:])["mse_overall"])
        assert mse <= 1e-12

    def test_identity_eval_reproduces_best_loss(self, tmp_path):
        # The loaded layer multiplies by the very scales of the best step, so
        # eval's MSE is the trace minimum bit for bit, even at ~1e-30.
        data, out = tmp_path / "data", tmp_path / "out"
        assert run("gen", "--seed", "14", "--out", str(data)) == EXIT_OK
        rc = run(
            "calibrate",
            "--activations", str(data / "activations.spqt"),
            "--weights", str(data / "weights.spqt"),
            "--ratio-vision", "0.03125", "--ratio-text", "0.03125",
            "--wbits", "0", "--abits", "0", "--out", str(out),
        )
        assert rc == EXIT_OK
        rc = run(
            "eval", "--activations", str(data / "activations.spqt"),
            "--layer-dir", str(out / "layer"), "--out", str(out),
        )
        assert rc == EXIT_OK
        trace = (out / "loss_trace.csv").read_text().splitlines()[2:]
        best = min(float(line.split(",")[1]) for line in trace)
        report = (out / "report.csv").read_text().splitlines()[2:]
        assert float(dict(line.split(",") for line in report)["mse_overall"]) == best

    def test_missing_weights_is_data_error(self, generated, tmp_path):
        rc = run(
            "calibrate",
            "--activations", generated["activations"],
            "--weights", str(tmp_path / "nope.spqt"),
            "--out", str(tmp_path),
        )
        assert rc == EXIT_DATA

    def test_ablation_ordering(self, generated, tmp_path):
        out = tmp_path / "abl"
        rc = run(
            "calibrate",
            "--activations", generated["activations"],
            "--weights", generated["weights"],
            "--wbits", "3", "--abits", "3",
            "--steps", "5", "--out", str(out),
        )
        assert rc == EXIT_OK
        rc = run(
            "eval", "--ablation",
            "--activations", generated["activations"],
            "--weights", generated["weights"],
            "--wbits", "3", "--abits", "3",
            "--steps", "5",
            "--layer-dir", str(out / "layer"), "--out", str(out),
        )
        assert rc == EXIT_OK
        rows = (out / "ablation.csv").read_text().splitlines()[2:]
        mse = {name: float(v) for name, v in (r.split(",") for r in rows)}
        assert mse["baseline"] > mse["mocd"]

    @pytest.mark.parametrize("seed", range(15))
    def test_unsplit_calibration_converges(self, tmp_path, seed):
        # CLI default sizes (the loop-small config; zero ratios select no
        # channel), W4A4 with CWS and MAC and no channel split: with unbounded
        # branch gates, 9 of these 15 seeds diverge and exit 3.
        data = tmp_path / "data"
        assert run("gen", "--seed", str(seed), "--out", str(data)) == EXIT_OK
        rc = run(
            "calibrate", "--ratio-vision", "0", "--ratio-text", "0",
            "--activations", str(data / "activations.spqt"),
            "--weights", str(data / "weights.spqt"),
            "--out", str(tmp_path / "c"),
        )
        assert rc == EXIT_OK


class TestStability:
    def test_report_and_determinism(self, generated, tmp_path):
        a, b = tmp_path / "st1", tmp_path / "st2"
        for out in (a, b):
            rc = run(
                "stability", "--activations", generated["activations"],
                "--out", str(out),
            )
            assert rc == EXIT_OK
        assert (a / "stability.csv").read_bytes() == (b / "stability.csv").read_bytes()
        rows = (a / "stability.csv").read_text().splitlines()[2:]
        for row in rows:
            mean = float(row.split(",")[1])
            assert 0.0 <= mean <= 1.0


class TestConfigHandling:
    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"no_such_option": 1}))
        assert run("gen", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_USAGE

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1}))
        out = tmp_path / "o"
        assert run(
            "gen", "--config", str(cfg), "--seed", "2", "--out", str(out)
        ) == EXIT_OK
        direct = tmp_path / "d"
        assert run("gen", "--seed", "2", "--out", str(direct)) == EXIT_OK
        assert (out / "activations.spqt").read_bytes() == (
            direct / "activations.spqt"
        ).read_bytes()

    def test_config_value_used_without_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 4}))
        out = tmp_path / "o"
        assert run("gen", "--config", str(cfg), "--out", str(out)) == EXIT_OK
        direct = tmp_path / "d"
        assert run("gen", "--seed", "4", "--out", str(direct)) == EXIT_OK
        assert (out / "activations.spqt").read_bytes() == (
            direct / "activations.spqt"
        ).read_bytes()

    def test_defaults_are_the_library_configs_defaults(self):
        # Each field that feeds a library config takes that config's default.
        cfg = cli.RunConfig()
        assert cli._synth_config(cfg) == synth.SynthConfig()
        assert cli._mocd_config(cfg) == cli.MocdConfig()
        assert cli._calib_config(cfg) == cli.CalibConfig()

    def test_unknown_command_is_usage_error(self):
        assert run("frobnicate") == EXIT_USAGE

    def test_bad_flag_value_is_usage_error(self):
        assert run("gen", "--seed", "not-an-int") == EXIT_USAGE


# Nesting deep enough to exhaust the JSON decoder's recursion.
DEEP_JSON = b"[" * 100_000 + b"]" * 100_000


class TestErrorExits:
    # config: a dict to write as JSON, or the file's bytes.  manifest_edit: a
    # key to drop from a calibrated layer's manifest, the manifest's bytes,
    # or the gen config of a batch that the command reads in place of the
    # calibration batch.
    @pytest.mark.parametrize("command,config,manifest_edit,expected,prefix", [
        ("calibrate", {"steps": "ten"}, None, EXIT_USAGE, "config error:"),
        ("stability", {"trials": "x"}, None, EXIT_USAGE, "config error:"),
        ("calibrate", {"abits": 1}, None, EXIT_USAGE, "config error:"),
        ("calibrate", {"wbits": 17}, None, EXIT_USAGE, "config error:"),
        ("select", {"ratio_vision": 0.6}, None, EXIT_USAGE, "config error:"),
        ("select", {"clusters": 0}, None, EXIT_USAGE, "config error:"),
        ("calibrate", {"rank_mac": True}, None, EXIT_USAGE, "config error:"),
        ("gen", {"vision_outliers": [3.5]}, None, EXIT_USAGE, "config error:"),
        ("calibrate", {"learning_rate": 10**400}, None, EXIT_USAGE, "config error:"),
        ("stability", {"trials": 0}, None, EXIT_USAGE, "config error:"),
        ("stability", {"trials": -1}, None, EXIT_USAGE, "config error:"),
        ("gen", {"seed": -1}, None, EXIT_USAGE, "config error:"),
        ("calibrate", {"rank_cws": -1.0}, None, EXIT_USAGE, "config error:"),
        ("calibrate", {"rank_mac": 5.0}, None, EXIT_USAGE, "config error:"),
        ("stability", {"subset_sizes": [0]}, None, EXIT_USAGE, "config error:"),
        ("stability", {"reference_size": 0}, None, EXIT_USAGE, "config error:"),
        ("eval", {}, "use_mac", EXIT_DATA, "data error:"),
        ("eval", {}, DEEP_JSON, EXIT_DATA, "data error:"),
        ("eval", {}, b"\xff\xfe{}", EXIT_DATA, "data error:"),
        ("eval", {}, {"dim": 32, "text_outliers": [17, 20]}, EXIT_DATA,
         "data error: batch has 32 channels, weight has 64 rows"),
        ("gen", {"d_out": 0}, None, EXIT_USAGE, "config error:"),
        ("gen", {"dim": 0}, None, EXIT_USAGE, "config error:"),
        ("gen", {"tokens_text": -1}, None, EXIT_USAGE, "config error:"),
        ("gen", {"text_instability": 2.0}, None, EXIT_USAGE, "config error:"),
        ("gen", {"vision_outliers": [999]}, None, EXIT_USAGE, "config error:"),
        ("gen", DEEP_JSON, None, EXIT_USAGE, "config error:"),
        ("gen", b"\xff\xfe{}", None, EXIT_USAGE, "config error:"),
        # A one-token subset holds a text token whenever the batch has one.
        ("stability", {"subset_sizes": [1]}, None, EXIT_DATA,
         "data error: a subset of size 1 has no vision token, but the vision ratio is nonzero"),
        ("select", {}, {"tokens_text": 0}, EXIT_DATA,
         "data error: nonzero text ratio but no text tokens"),
        # One channel cannot hold a vision pick, a text pick and a main set.
        *((command, {"ratio_vision": 0.5, "ratio_text": 0.5},
           {"dim": 1, "vision_outliers": [], "text_outliers": []}, EXIT_DATA,
           "data error: picking 1 vision and 1 text of 1 channels leaves the main set "
           "smaller than an outlier set") for command in ("select", "stability")),
    ], ids=["steps-str", "trials-str", "abits-1", "wbits-17", "ratio-0.6", "clusters-0",
            "rank-mac-bool", "outliers-float", "lr-huge-int", "trials-0", "trials-neg",
            "seed-neg", "rank-cws-neg", "rank-mac-5", "subset-0", "reference-0",
            "manifest-key", "manifest-deep", "manifest-not-utf8", "batch-width-32", "d-out-0",
            "dim-0", "tokens-text-neg", "instability-2", "outlier-999", "config-deep",
            "config-not-utf8", "subset-1-no-vision", "select-no-text", "select-dim-1",
            "stability-dim-1"])
    def test_exit_code_without_traceback(
        self, generated, tmp_path, capsys, command, config, manifest_edit, expected, prefix
    ):
        cfg = tmp_path / "cfg.json"
        if isinstance(config, bytes):
            cfg.write_bytes(config)
        else:
            cfg.write_text(json.dumps(config))
        layer_dir = tmp_path / "c" / "layer"
        activations = generated["activations"]
        if manifest_edit is not None:
            assert run(
                "calibrate", "--activations", generated["activations"],
                "--weights", generated["weights"], "--steps", "1",
                "--out", str(tmp_path / "c"),
            ) == EXIT_OK
            path = layer_dir / "manifest.json"
            if isinstance(manifest_edit, dict):
                gen_cfg = tmp_path / "gen.json"
                gen_cfg.write_text(json.dumps(manifest_edit))
                assert run("gen", "--config", str(gen_cfg), "--out", str(tmp_path / "g")) == EXIT_OK
                activations = str(tmp_path / "g" / "activations.spqt")
            elif isinstance(manifest_edit, bytes):
                path.write_bytes(manifest_edit)
            else:
                manifest = json.loads(path.read_text())
                del manifest[manifest_edit]
                path.write_text(json.dumps(manifest))
        capsys.readouterr()
        rc = run(
            command, "--config", str(cfg),
            "--activations", activations,
            "--weights", generated["weights"],
            "--layer-dir", str(layer_dir), "--out", str(tmp_path / "o"),
        )
        err = capsys.readouterr().err
        assert rc == expected
        assert err.startswith(prefix) and err.count("\n") == 1


# Small sizes and counts for the tests that run many commands: no command
# under this config allocates more than a few MB.
SMALL = {
    "tokens_text": 8, "tokens_vision": 8, "dim": 16, "d_out": 8,
    "vision_outliers": [1], "text_outliers": [5],
    "ratio_vision": 1 / 16, "ratio_text": 1 / 16,
    "steps": 4, "trials": 2, "subset_sizes": [4, 8], "reference_size": 8,
}


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """A small generated batch and weight, and a layer calibrated on them."""
    root = tmp_path_factory.mktemp("small")
    config = root / "small.json"
    config.write_text(json.dumps(SMALL))
    data = root / "data"
    assert run("gen", "--config", str(config), "--out", str(data)) == EXIT_OK
    paths = {
        "config": str(config),
        "activations": str(data / "activations.spqt"),
        "weights": str(data / "weights.spqt"),
        "layer_dir": str(root / "layer"),
    }
    assert run("calibrate", "--config", str(config), "--activations", paths["activations"],
               "--weights", paths["weights"], "--layer-dir", paths["layer_dir"],
               "--out", str(root / "cal")) == EXIT_OK
    return paths


def run_captured(argv):
    """Run main in this process; return the exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    return rc, err.getvalue()


class TestNumericalFailureMessage:
    """A numerical failure prints one line: no numpy warnings before it."""

    @pytest.fixture(scope="class")
    def overflowing(self, tmp_path_factory):
        # CLI default sizes: a layer whose main weight is all 1e308, and
        # activations scaled by 1e300.
        root = tmp_path_factory.mktemp("overflow")
        acts, weights = str(root / "activations.spqt"), str(root / "weights.spqt")
        layer_dir = root / "layer"
        assert run("gen", "--out", str(root)) == EXIT_OK
        assert run("calibrate", "--activations", acts, "--weights", weights,
                   "--steps", "2", "--layer-dir", str(layer_dir),
                   "--out", str(root)) == EXIT_OK
        w_main = str(layer_dir / "w_main.spqt")
        save_tensor(w_main, np.full_like(load_tensor(w_main), 1e308))
        batch = load_tensor(acts)
        save_tensor(str(root / "big.spqt"), ActivationBatch(batch.data * 1e300, batch.tags))
        return root

    @pytest.mark.parametrize("command", ["eval", "calibrate"])
    def test_stderr_is_one_line(self, overflowing, tmp_path, command):
        root = overflowing
        argv = (["eval", "--activations", str(root / "activations.spqt"),
                 "--layer-dir", str(root / "layer")] if command == "eval" else
                ["calibrate", "--activations", str(root / "big.spqt"),
                 "--weights", str(root / "weights.spqt")])
        src = os.path.dirname(os.path.dirname(os.path.abspath(modquant.__file__)))
        env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="always",
                   OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-m", "modquant.cli", *argv,
                               "--out", str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_NUMERICAL
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure:"), proc.stderr


class TestNonFiniteGradient:
    """A non-finite gradient entry is a numerical failure, whether it hits a
    log-scale or a gate; the clips would turn an infinite one into a bound."""

    @pytest.mark.parametrize("index", [0, -1], ids=["log-scale", "gate"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_exits_numerical(self, generated, tmp_path, monkeypatch, index, value):
        module = sys.modules["modquant.calibrate"]
        exact = module.analytic_gradient

        def gradient(*args):
            loss, grad = exact(*args)
            grad[index] = value
            return loss, grad

        monkeypatch.setattr(module, "analytic_gradient", gradient)
        out = tmp_path / "o"
        rc, err = run_captured(["calibrate", "--activations", generated["activations"],
                                "--weights", generated["weights"], "--out", str(out)])
        assert rc == EXIT_NUMERICAL
        assert err == "numerical failure: non-finite gradient at step 0\n"
        assert not out.exists()


class TestLayerFile:
    """eval's layer directory: every manifest key is checked before use."""

    @pytest.fixture()
    def layer(self, small, tmp_path):
        layer_dir = tmp_path / "layer"
        shutil.copytree(small["layer_dir"], layer_dir)
        return layer_dir

    def eval_with(self, small, layer_dir, tmp_path, key_path=(), value=None):
        manifest_path = layer_dir / "manifest.json"
        if key_path:
            manifest = json.loads(manifest_path.read_text())
            *parents, last = key_path
            entry = manifest
            for k in parents:
                entry = entry[k]
            entry[last] = value
            manifest_path.write_text(json.dumps(manifest))
        return run_captured(["eval", "--activations", small["activations"],
                             "--layer-dir", str(layer_dir), "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("key_path,value", [
        (("partition",), []),
        (("act_spec", "bits"), "4"),
        (("p_main",), "x"),
        (("p_main", "kind"), "dense"),
        (("w_main",), 5),
        (("use_cws",), "yes"),
        (("d_out",), -1),
        (("version",), 2),
        (("w_main",), "../w_main.spqt"),
        # Each role has one fixed quantizer form; bits enter checked.
        (("act_spec", "symmetric"), True),
        (("act_spec", "symmetric"), 0),
        (("weight_spec", "granularity"), "per_tensor"),
        (("weight_spec", "granularity"), "per_token"),
        (("weight_spec", "bits"), 17),
        # File names are fixed: another file of the layer never loads in place.
        (("branch_comp", "gate"), "branch_smooth_gate.spqt"),
        (("w_text",), "w_vision.spqt"),
    ], ids=["partition-list", "bits-str", "transform-str", "transform-dense", "file-int",
            "flag-str", "d_out-neg", "version-2", "file-parent", "symmetric-true",
            "symmetric-int", "granularity-per-tensor", "granularity-per-token", "bits-17",
            "file-other-gate", "file-other-block"])
    def test_bad_key_is_data_error(self, small, layer, tmp_path, key_path, value):
        # A readable w_main.spqt next to the layer directory: only the name
        # check keeps "../w_main.spqt" from loading it.
        shutil.copy(layer / "w_main.spqt", tmp_path / "w_main.spqt")
        rc, err = self.eval_with(small, layer, tmp_path, key_path, value)
        assert rc == EXIT_DATA
        assert err.startswith("data error:") and "Traceback" not in err

    def test_zero_d_out_is_data_error(self, small, tmp_path):
        # Weight blocks of no columns fit d_out 0, and eval would then
        # average empty slices.
        layer = tmp_path / "layer"
        assert run("calibrate", "--config", small["config"], "--activations",
                   small["activations"], "--weights", small["weights"], "--rank-cws", "0",
                   "--rank-mac", "0", "--layer-dir", str(layer), "--out", str(tmp_path)) == EXIT_OK
        for path in ("main", "text", "vision"):
            name = str(layer / f"w_{path}.spqt")
            save_tensor(name, load_tensor(name)[:, :0])
        rc, err = self.eval_with(small, layer, tmp_path, ("d_out",), 0)
        assert rc == EXIT_DATA and err.startswith("data error:") and "d_out" in err

    def test_file_outside_the_layer_directory_is_not_read(self, small, layer, tmp_path):
        outside = tmp_path / "elsewhere" / "w_main.spqt"
        outside.parent.mkdir()
        shutil.copy(layer / "w_main.spqt", outside)
        rc, err = self.eval_with(small, layer, tmp_path, ("w_main",), str(outside))
        assert rc == EXIT_DATA and err.startswith("data error:")

    def test_unchanged_layer_loads(self, small, layer, tmp_path):
        assert self.eval_with(small, layer, tmp_path) == (EXIT_OK, "")

    @pytest.mark.parametrize("flag,branch", [("use_cws", "branch_smooth"),
                                             ("use_mac", "branch_comp")], ids=["cws", "mac"])
    def test_flag_without_its_branch_is_data_error(self, small, layer, tmp_path, flag, branch):
        manifest = json.loads((layer / "manifest.json").read_text())
        assert manifest[flag] is True
        del manifest[branch]
        (layer / "manifest.json").write_text(json.dumps(manifest))
        rc, err = self.eval_with(small, layer, tmp_path)
        assert rc == EXIT_DATA and err.startswith("data error:") and branch in err

    # Each tensor file must fit its path's width (and a weight block d_out).
    @pytest.mark.parametrize("key,reshape", [
        ("p_text", lambda m: np.append(m, 1.0).reshape(1, -1)),
        ("w_main", lambda m: m[:-1]),
        ("w_text", lambda m: np.ones((m.shape[0], m.shape[1] + 1))),
        ("w_vision", lambda m: np.ones((m.shape[0] + 2, m.shape[1]))),
    ], ids=["scale-longer", "main-row-short", "text-column-long", "vision-rows"])
    def test_tensor_of_wrong_shape_is_data_error(self, small, layer, tmp_path, key, reshape):
        manifest = json.loads((layer / "manifest.json").read_text())
        entry = manifest[key]
        path = str(layer / (entry["file"] if isinstance(entry, dict) else entry))
        save_tensor(path, reshape(load_tensor(path)))
        rc, err = self.eval_with(small, layer, tmp_path)
        assert rc == EXIT_DATA and err.startswith("data error:") and key in err

    @pytest.mark.parametrize("value", [0.0, 1e7, -1.0, np.nextafter(DIAG_EPS, 0),
                                       np.nextafter(DIAG_MAX, np.inf)])
    def test_scale_out_of_range_is_data_error(self, small, layer, tmp_path, value):
        path = str(layer / "p_main_scale.spqt")
        scale = load_tensor(path)
        scale[0, 0] = value
        save_tensor(path, scale)
        rc, err = self.eval_with(small, layer, tmp_path)
        assert rc == EXIT_DATA and err.startswith("data error:")

    def test_overflowing_weights_are_a_numerical_failure(self, small, layer, tmp_path):
        path = str(layer / "w_main.spqt")
        save_tensor(path, np.full_like(load_tensor(path), 1e308))
        with np.errstate(over="ignore", invalid="ignore"):
            rc, err = self.eval_with(small, layer, tmp_path)
        assert rc == EXIT_NUMERICAL
        assert err.startswith("numerical failure:") and "Traceback" not in err
        assert not (tmp_path / "o" / "report.csv").exists()

    @pytest.fixture(scope="class")
    def fuzz_layer(self, small, tmp_path_factory):
        layer_dir = tmp_path_factory.mktemp("fuzz") / "layer"
        shutil.copytree(small["layer_dir"], layer_dir)
        return layer_dir

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_one_changed_key_never_ends_in_a_traceback(self, small, fuzz_layer, data):
        shutil.copy(f"{small['layer_dir']}/manifest.json", fuzz_layer)
        manifest = json.loads((fuzz_layer / "manifest.json").read_text())
        key_paths = [(k,) for k in manifest] + [
            (k, sub) for k, v in manifest.items() if isinstance(v, dict) for sub in v]
        key_path = data.draw(st.sampled_from(sorted(key_paths)))
        value = data.draw(st.sampled_from(
            [None, True, 5, -1, "x", "4", [], {}, "../w_main.spqt"]))
        rc, err = self.eval_with(small, fuzz_layer, fuzz_layer.parent, key_path, value)
        assert rc in (EXIT_OK, EXIT_DATA) and "Traceback" not in err

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_one_changed_tensor_file_never_ends_in_a_traceback(self, small, fuzz_layer, data):
        shutil.copy(f"{small['layer_dir']}/manifest.json", fuzz_layer)
        name = data.draw(st.sampled_from(sorted(
            p.name for p in fuzz_layer.iterdir() if p.suffix == ".spqt")))
        original = (fuzz_layer / name).read_bytes()
        try:
            (fuzz_layer / name).write_bytes(data.draw(spqt_contents(original)))
            rc, err = self.eval_with(small, fuzz_layer, fuzz_layer.parent)
        finally:
            (fuzz_layer / name).write_bytes(original)
        # A finite value that overflows the forward pass is a numerical failure.
        assert rc in (EXIT_OK, EXIT_DATA, EXIT_NUMERICAL) and "Traceback" not in err


SPQT_HEADER = 4 + struct.calcsize("<IBQQ")  # magic, version, kind, rows, cols


@st.composite
def spqt_contents(draw, original: bytes) -> bytes:
    """Random bytes, a truncation, a header whose kind or sizes do not fit the
    payload or the layer (sizes whose product overflows 64 bits, no rows or
    columns, transposed), or the same header with every value replaced."""
    how = draw(st.sampled_from(["random", "truncated", "header", "values"]))
    if how == "random":
        return draw(st.binary(max_size=64))
    if how == "truncated":
        return original[:draw(st.integers(0, len(original) - 1))]
    _, kind, rows, cols = struct.unpack_from("<IBQQ", original, 4)
    if how == "header":
        kind = draw(st.sampled_from([kind, 1, 2]))
        rows, cols = draw(st.sampled_from([
            (rows, cols + 1), (rows + 1, cols), (cols, rows), (rows, 0), (0, cols),
            (2**32, 2**32), (2**63, 4), (2**64 - 1, 2**64 - 1)]))
        payload = original[SPQT_HEADER:][:rows * cols * 8]
        return MAGIC + struct.pack("<IBQQ", 1, kind, rows, cols) + payload
    value = draw(st.sampled_from([0.0, -1.0, 1e-7, 1e7, 1e308, -1e308, 5e-324]))
    return original[:SPQT_HEADER] + struct.pack(f"<{rows * cols}d", *[value] * (rows * cols))


class TestOsErrors:
    """A path the OS refuses, or too little memory, is a data error (exit 2)."""

    @pytest.mark.parametrize("argv", [
        ["gen", "--out", "{file}/sub"],
        ["stability", "--activations", "{acts}", "--out", "{file}/x"],
        ["select", "--activations", "{dir}"],
        ["select", "--activations", "{acts}", "--out", "{file}"],
        ["calibrate", "--activations", "{acts}", "--weights", "{weights}",
         "--layer-dir", "{file}"],
        ["eval", "--activations", "{acts}", "--layer-dir", "{file}"],
    ], ids=["gen-out-under-file", "stability-out-under-file", "select-dir-input",
            "select-out-is-file", "calibrate-layer-dir-is-file", "eval-layer-dir-is-file"])
    def test_os_error_is_data_error(self, small, tmp_path, argv):
        plain = tmp_path / "plain.txt"
        plain.write_text("not a directory\n")
        names = {"file": plain, "dir": tmp_path, "acts": small["activations"],
                 "weights": small["weights"]}
        argv = [a.format(**names) for a in argv]
        if "--out" not in argv:
            argv += ["--out", str(tmp_path / "o")]
        rc, err = run_captured([argv[0], "--config", small["config"], *argv[1:]])
        assert rc == EXIT_DATA
        assert err.startswith("data error:") and "Traceback" not in err

    def test_memory_error_is_data_error(self, tmp_path, monkeypatch):
        def no_memory(cfg):
            raise MemoryError("cannot allocate the batch")

        monkeypatch.setattr(synth, "generate", no_memory)
        rc, err = run_captured(["gen", "--out", str(tmp_path)])
        assert rc == EXIT_DATA
        assert err == "data error: cannot allocate the batch\n"


class TestFlags:
    # (argv after the command, RunConfig field, value); the first 13 are
    # flags the CLI had before flags were derived from RunConfig.
    FIELD_FLAGS = [
        (["--seed", "5"], "seed", 5),
        (["--out", "d"], "out", "d"),
        (["--activations", "a.spqt"], "activations", "a.spqt"),
        (["--weights", "w.spqt"], "weights", "w.spqt"),
        (["--layer-dir", "L"], "layer_dir", "L"),
        (["--wbits", "3"], "wbits", 3),
        (["--abits", "8"], "abits", 8),
        (["--ratio-vision", "0.25"], "ratio_vision", 0.25),
        (["--ratio-text", "0.125"], "ratio_text", 0.125),
        (["--clusters", "4"], "clusters", 4),
        (["--rank-cws", "0.5"], "rank_cws", 0.5),
        (["--rank-mac", "0.75"], "rank_mac", 0.75),
        (["--steps", "7"], "steps", 7),
        (["--learning-rate", "0.5"], "learning_rate", 0.5),
        (["--tokens-text", "8"], "tokens_text", 8),
        (["--tokens-vision", "9"], "tokens_vision", 9),
        (["--dim", "16"], "dim", 16),
        (["--d-out", "12"], "d_out", 12),
        (["--vision-outliers", "1", "2"], "vision_outliers", [1, 2]),
        (["--text-outliers"], "text_outliers", []),
        (["--vision-scale", "50"], "vision_scale", 50.0),
        (["--text-instability", "0.5"], "text_instability", 0.5),
        (["--subset-sizes", "4", "8"], "subset_sizes", [4, 8]),
        (["--reference-size", "16"], "reference_size", 16),
        (["--trials", "3"], "trials", 3),
    ]

    @pytest.fixture()
    def calls(self, monkeypatch):
        calls = []
        for name in cli._COMMANDS:
            monkeypatch.setitem(
                cli._COMMANDS, name, lambda cfg, **kw: calls.append((cfg, kw)) or EXIT_OK)
        return calls

    def test_every_field_has_one_flag(self):
        assert sorted(field for _, field, _ in self.FIELD_FLAGS) == sorted(cli._CONFIG_FIELDS)

    @pytest.mark.parametrize("argv,field,value", FIELD_FLAGS, ids=[a[0] for a, _, _ in FIELD_FLAGS])
    def test_field_flag_sets_its_field(self, calls, argv, field, value):
        assert main(["select", *argv]) == EXIT_OK
        (cfg, kw), = calls
        assert getattr(cfg, field) == value and type(getattr(cfg, field)) is type(value)
        assert kw == {}

    def test_config_flag_reads_the_file(self, calls, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 6}))
        assert main(["gen", "--config", str(path)]) == EXIT_OK
        assert calls[0][0].seed == 6

    def test_ablation_is_an_eval_flag(self, calls):
        assert main(["eval", "--ablation"]) == EXIT_OK
        assert calls == [(cli.RunConfig(), {"ablation": True})]
        assert main(["select", "--ablation"]) == EXIT_USAGE


class TestAblation:
    @pytest.mark.parametrize("weights,expected", [
        (None, EXIT_USAGE), ("missing", EXIT_DATA), ("short", EXIT_DATA), ("batch", EXIT_DATA),
    ], ids=["unset", "missing", "short", "batch"])
    def test_weight_error_writes_no_output(self, small, tmp_path, weights, expected):
        # The weight is read and checked before eval writes its report.
        argv = ["eval", "--ablation", "--config", small["config"],
                "--activations", small["activations"],
                "--layer-dir", small["layer_dir"], "--out", str(tmp_path / "out")]
        if weights is not None:
            path = tmp_path / f"{weights}.spqt"
            if weights == "short":  # one row fewer than the batch has channels
                save_tensor(str(path), load_tensor(small["weights"])[:-1])
            elif weights == "batch":  # an activation batch, not a matrix
                save_tensor(str(path), load_tensor(small["activations"]))
            argv += ["--weights", str(path)]
        rc, err = run_captured(argv)
        assert rc == expected and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_builds_each_partition_once(self, small, tmp_path, monkeypatch):
        built = []
        real = cli.build_partition
        monkeypatch.setattr(cli, "build_partition",
                            lambda *a, **kw: built.append(1) or real(*a, **kw))
        rc, _ = run_captured([
            "eval", "--ablation", "--config", small["config"],
            "--activations", small["activations"], "--weights", small["weights"],
            "--layer-dir", small["layer_dir"], "--out", str(tmp_path)])
        assert rc == EXIT_OK and len(built) == 1


    @pytest.mark.parametrize("seed,other_weight", [
        pytest.param(0, False, id="0"), pytest.param(5, False, id="5"),
        pytest.param(0, True, id="other-weight"),
    ])
    def test_rows_equal_separately_built_layers(self, tmp_path, seed, other_weight):
        # Each row is the eval MSE of a layer built and calibrated for that
        # row alone, the way the rows were computed before they were taken
        # from the calibrations' best losses.
        config = tmp_path / "small.json"
        config.write_text(json.dumps({**SMALL, "seed": seed}))
        flags = ["--config", str(config), "--activations", str(tmp_path / "activations.spqt"),
                 "--weights", str(tmp_path / "weights.spqt"),
                 "--layer-dir", str(tmp_path / "layer"), "--out", str(tmp_path)]
        for command in (["gen"], ["calibrate"]):
            assert run_captured([*command, *flags]) == (EXIT_OK, "")
        if other_weight:
            # The layer was calibrated on gen's weight and the ablation reads
            # another, so its rows need that weight's X @ W, not the layer's.
            save_tensor(str(tmp_path / "weights.spqt"),
                        synth.generate_weight(SMALL["dim"], SMALL["d_out"], seed=seed + 1))
        assert run_captured(["eval", "--ablation", *flags]) == (EXIT_OK, "")
        lines = (tmp_path / "ablation.csv").read_text().splitlines()[2:]
        rows = dict(line.split(",") for line in lines)

        cfg = cli.load_config(str(config), {})
        batch = load_tensor(str(tmp_path / "activations.spqt"))
        w = load_tensor(str(tmp_path / "weights.spqt"))
        act_bits, weight_bits = cli._quant_bits(cfg)
        expected = {}
        for name, mocd, cws, mac in [("baseline", False, False, False),
                                     ("mocd", True, False, False),
                                     ("mocd+cws", True, True, False),
                                     ("mocd+cws+mac", True, True, True)]:
            part = (cli.build_partition(batch, cli._mocd_config(cfg)) if mocd
                    else cli.trivial_partition(batch.data.shape[1]))
            layer = cli.build_layer(w, batch, part, act_bits=act_bits, weight_bits=weight_bits,
                                    rank_cws=cfg.rank_cws if cws else 0.0,
                                    rank_mac=cfg.rank_mac if mac else 0.0)
            layer, _ = cli.calibrate(layer, batch, cli._calib_config(cfg))
            y_ref = cli.forward_reference(layer.w, batch)
            expected[name] = repr(cli._mse_rows(layer, batch, y_ref)[0])
        assert rows == expected


class TestZeroSizes:
    """A zero selection ratio or branch rank turns its part of the layer off."""

    ZERO = ["--ratio-vision", "0", "--ratio-text", "0", "--rank-cws", "0", "--rank-mac", "0"]

    def test_zero_sizes_calibrate_the_plain_layer(self, generated, tmp_path):
        out = tmp_path / "c"
        assert run_captured(["calibrate", "--activations", generated["activations"],
                             "--weights", generated["weights"], *self.ZERO,
                             "--out", str(out)]) == (EXIT_OK, "")
        manifest = json.loads((out / "layer" / "manifest.json").read_text())
        assert manifest["partition"]["c_text"] == manifest["partition"]["c_vision"] == []
        assert manifest["use_cws"] is manifest["use_mac"] is False

        batch = load_tensor(generated["activations"])
        w = load_tensor(generated["weights"])
        layer = cli.build_layer(w, batch, cli.trivial_partition(batch.data.shape[1]), 4, 4)
        _, trace = cli.calibrate(layer, batch, cli.CalibConfig())
        lines = (out / "loss_trace.csv").read_text().splitlines()[2:]
        # repr round-trips a float, so equal text is equal bits.
        assert [line.split(",")[1] for line in lines] == [repr(v) for v in trace.losses]

    @pytest.mark.parametrize("steps", [[], ["--steps", "1"]], ids=["default", "steps-1"])
    def test_weight_without_columns_is_data_error(self, generated, tmp_path, steps):
        weights = str(tmp_path / "w.spqt")
        save_tensor(weights, load_tensor(generated["weights"])[:, :0])
        rc, err = run_captured(["calibrate", "--activations", generated["activations"],
                                "--weights", weights, *self.ZERO, *steps,
                                "--out", str(tmp_path / "o")])
        assert rc == EXIT_DATA and "Traceback" not in err
        assert err == "data error: weight has no columns (d_out 0)\n"


# Values for the argv fuzz, and the fields fixed to paths under a temporary
# directory.
FUZZ_VALUES = ["0", "1", "2", "-1", "0.5", "nan", "inf", "1e400", "x", ""]
# Config-file values: every JSON type, and the ints around each field's bound.
CONFIG_VALUES = [None, False, True, *range(-1, 17), 0.5, 1.5, 1e308, "", "x",
                 [], [-1], [1.5], {}]
PATH_FIELDS = ("activations", "weights", "layer_dir", "out")


@st.composite
def argvs(draw, paths):
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    argv = [command, "--config", paths["config"]]
    for field in PATH_FIELDS:
        argv += [cli._flag(field), paths[field]]
    fields = [f for f in cli._CONFIG_FIELDS if f not in PATH_FIELDS]
    for field in draw(st.lists(st.sampled_from(fields), unique=True, max_size=4)):
        argv.append(cli._flag(field))
        kind = cli._CONFIG_FIELDS[field]
        count = draw(st.integers(0, 2)) if kind == "list[int]" else 1
        argv += draw(st.lists(st.sampled_from(FUZZ_VALUES), min_size=count, max_size=count))
    if command == "eval" and draw(st.booleans()):
        argv.append("--ablation")
    return argv


class TestArgvFuzz:
    @pytest.fixture(scope="class")
    def paths(self, small, tmp_path_factory):
        root = tmp_path_factory.mktemp("argv")
        layer_dir = root / "layer"
        shutil.copytree(small["layer_dir"], layer_dir)
        return {**small, "layer_dir": str(layer_dir), "out": str(root / "out")}

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_exit_code_without_traceback(self, paths, data):
        rc, err = run_captured(data.draw(argvs(paths)))
        assert rc in (0, 1, 2, 3) and "Traceback" not in err

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_config_value_without_traceback(self, paths, data, tmp_path_factory):
        # One key of the SMALL config set to a value of any JSON type.
        key = data.draw(st.sampled_from(sorted(set(cli._CONFIG_FIELDS) - set(PATH_FIELDS))))
        value = data.draw(st.sampled_from(CONFIG_VALUES))
        config = tmp_path_factory.mktemp("config") / "config.json"
        config.write_text(json.dumps({**SMALL, key: value}))
        argv = [data.draw(st.sampled_from(sorted(cli._COMMANDS))), "--config", str(config)]
        for field in PATH_FIELDS:
            argv += [cli._flag(field), paths[field]]
        rc, err = run_captured(argv)
        assert rc in (0, 1, 2, 3) and "Traceback" not in err


# calib-wide's inputs from perfbench/workloads.py: 512 channels in and out,
# 20 planted channels per modality, selected at ratio 20/512.
CALIB_WIDE = {
    "tokens_text": 512, "tokens_vision": 512, "dim": 512, "d_out": 512,
    "vision_outliers": [13 + 25 * i for i in range(20)],
    "text_outliers": [25 + 25 * i for i in range(20)],
    "ratio_vision": 20 / 512, "ratio_text": 20 / 512, "steps": 2, "clusters": 1,
}

# A second, identical calibrate in one process: its minor page faults, last line.
WARM_CALIBRATE = """
import resource, sys
from modquant.cli import main
config, out = sys.argv[1:]
common = ["--config", config, "--out", out]
assert main(["gen", *common]) == 0
argv = ["calibrate", "--activations", out + "/activations.spqt",
        "--weights", out + "/weights.spqt", *common]
assert main(argv) == 0
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert main(argv) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestAllocator:
    @pytest.mark.skipif(not sys.platform.startswith("linux")
                        or platform.libc_ver()[0] != "glibc",
                        reason="the malloc thresholds are glibc's")
    def test_warm_calibrate_keeps_its_heap(self, tmp_path):
        # With glibc's default thresholds each step's freed temporaries go
        # back to the kernel and are faulted in again: about 12k faults here.
        config = tmp_path / "config.json"
        config.write_text(json.dumps(CALIB_WIDE))
        src = os.path.dirname(os.path.dirname(os.path.abspath(modquant.__file__)))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", WARM_CALIBRATE, str(config),
                               str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout.split()[-1]) < 1000

    @pytest.mark.parametrize("where", ["platform", "lookup"])
    def test_without_mallopt_nothing_changes(self, monkeypatch, tmp_path, where):
        def no_c_library(name):
            raise OSError("no C library")

        assert run("gen", "--out", str(tmp_path / "a")) == EXIT_OK
        if where == "platform":
            monkeypatch.setattr(sys, "platform", "darwin")
        else:
            monkeypatch.setattr(ctypes, "CDLL", no_c_library)
        assert run("gen", "--out", str(tmp_path / "b")) == EXIT_OK
        for name in ("activations.spqt", "weights.spqt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
