"""End-to-end command-line pipeline: exit codes and determinism."""

import json

import numpy as np
import pytest

from modquant.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from modquant.tensor import ActivationBatch, load_tensor


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
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"vision_outliers": [999]}))
        rc = run("gen", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert rc == EXIT_DATA


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
        # CLI default sizes (the loop-small config; its ratio is unused here),
        # W4A4 with CWS and MAC and no channel split: with unbounded branch
        # gates, 9 of these 15 seeds diverge and exit 3.
        data = tmp_path / "data"
        assert run("gen", "--seed", str(seed), "--out", str(data)) == EXIT_OK
        rc = run(
            "calibrate", "--no-mocd",
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

    def test_unknown_command_is_usage_error(self):
        assert run("frobnicate") == EXIT_USAGE

    def test_bad_flag_value_is_usage_error(self):
        assert run("gen", "--seed", "not-an-int") == EXIT_USAGE


class TestErrorExits:
    @pytest.mark.parametrize("command,config,drop_key,expected,prefix", [
        ("calibrate", {"steps": "ten"}, None, EXIT_USAGE, "config error:"),
        ("stability", {"trials": "x"}, None, EXIT_USAGE, "config error:"),
        ("calibrate", {"abits": 1}, None, EXIT_USAGE, "config error:"),
        ("select", {"ratio_vision": 0.6}, None, EXIT_USAGE, "config error:"),
        ("select", {"clusters": 0}, None, EXIT_USAGE, "config error:"),
        ("gen", {"mac": 1}, None, EXIT_USAGE, "config error:"),
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
    ], ids=["steps-str", "trials-str", "abits-1", "ratio-0.6", "clusters-0",
            "mac-int", "outliers-float", "lr-huge-int", "trials-0", "trials-neg",
            "seed-neg", "rank-cws-neg", "rank-mac-5", "subset-0", "reference-0",
            "manifest-key"])
    def test_exit_code_without_traceback(
        self, generated, tmp_path, capsys, command, config, drop_key, expected, prefix
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        layer_dir = tmp_path / "c" / "layer"
        if drop_key is not None:
            assert run(
                "calibrate", "--activations", generated["activations"],
                "--weights", generated["weights"], "--steps", "1",
                "--out", str(tmp_path / "c"),
            ) == EXIT_OK
            manifest = json.loads((layer_dir / "manifest.json").read_text())
            del manifest[drop_key]
            (layer_dir / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        rc = run(
            command, "--config", str(cfg),
            "--activations", generated["activations"],
            "--weights", generated["weights"],
            "--layer-dir", str(layer_dir), "--out", str(tmp_path / "o"),
        )
        err = capsys.readouterr().err
        assert rc == expected
        assert err.startswith(prefix) and "Traceback" not in err
