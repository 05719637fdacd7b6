"""Calibration loop, gradients, and the selection-stability report."""

import importlib
from unittest import mock

import numpy as np
import pytest

from modquant import mocd
from modquant.calibrate import (
    CalibConfig,
    _loss,
    _params,
    _stratified_subset,
    _with_params,
    analytic_gradient,
    calibrate,
    stability_report,
)
from modquant.cli import RunConfig
from modquant.layer import build_layer, forward_reference, forward_with_cache, prepare
from modquant.mocd import (
    SCORE_CELLS, ChannelPartition, MocdConfig, build_partition, jaccard, percentile_rank,
    trivial_partition,
)
from modquant.synth import SynthConfig, generate, generate_weight
from modquant.tensor import ActivationBatch
from surrogate import gradient_and_oracle, patch_quantizers

calibrate_module = importlib.import_module("modquant.calibrate")


def _setup(seed, dim=16, d_out=12, act_bits=4, weight_bits=4, cws=True, mac=True):
    batch = generate(
        SynthConfig(
            tokens_text=12, tokens_vision=12, dim=dim,
            vision_outliers=(1,), text_outliers=(5,), seed=seed,
        )
    )
    w = generate_weight(dim, d_out, seed=seed + 500)
    part = build_partition(batch, MocdConfig(ratio_vision=1 / dim, ratio_text=1 / dim))
    layer = build_layer(
        w, batch, part, act_bits=act_bits, weight_bits=weight_bits,
        rank_cws=0.02 if cws else 0.0, rank_mac=0.03 if mac else 0.0,
    )
    return batch, layer


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CalibConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            CalibConfig(steps=0)

    @pytest.mark.parametrize("lr", [np.nan, np.inf])
    def test_rejects_a_learning_rate_that_is_not_finite(self, lr):
        # Accepted, it would surface as a NonFiniteLossError at step 1.
        with pytest.raises(ValueError, match="learning_rate"):
            CalibConfig(learning_rate=lr)


class TestCalibrate:
    def test_best_never_worse_than_initial(self):
        batch, layer = _setup(0)
        _, trace = calibrate(layer, batch, CalibConfig(steps=50))
        assert trace.best_loss <= trace.losses[0]
        assert len(trace.losses) == 50

    def test_rejects_a_reference_of_another_shape(self):
        # A (1, d_out) target would broadcast over every token.
        batch, layer = _setup(0)
        y_ref = forward_reference(layer.w, batch)
        for bad in (y_ref[:1], y_ref.T, y_ref[:, :-1]):
            with pytest.raises(ValueError, match="y_ref has shape"):
                calibrate(layer, batch, CalibConfig(steps=3), y_ref=bad)

    def test_identity_mode_loss_is_zero(self):
        batch, layer = _setup(1, act_bits=None, weight_bits=None)
        _, trace = calibrate(layer, batch, CalibConfig(steps=10))
        assert all(l <= 1e-12 for l in trace.losses)

    def test_returned_layer_attains_best_loss(self):
        batch, layer = _setup(3)
        out, trace = calibrate(layer, batch, CalibConfig(steps=40))
        y_ref = forward_reference(out.w, batch)
        from modquant.layer import forward

        final = float(np.mean((forward(out, batch) - y_ref) ** 2))
        assert final == pytest.approx(trace.best_loss, rel=1e-12)

    def test_improves_on_synthetic_data(self):
        imps = []
        for seed in range(6):
            batch = generate(SynthConfig(seed=seed))
            w = generate_weight(64, 64, seed=seed + 900)
            part = build_partition(
                batch, MocdConfig(ratio_vision=2 / 64, ratio_text=2 / 64)
            )
            layer = build_layer(
                w, batch, part, act_bits=4, weight_bits=4,
                rank_cws=0.02, rank_mac=0.03,
            )
            _, trace = calibrate(layer, batch, CalibConfig(steps=100))
            imps.append(1 - trace.best_loss / trace.losses[0])
        # Some instances are already near a local optimum; require a clear
        # win on a subset and no regression anywhere (best-snapshot return).
        assert sum(i >= 0.05 for i in imps) >= 2
        assert all(i >= -1e-12 for i in imps)


def _calibrate_with_every_gradient(layer, batch, cfg):
    """The calibration loop that takes a gradient at every step, the last
    one included: (returned layer, losses)."""
    y_ref = forward_reference(layer.w, batch)
    prep = prepare(layer, batch)
    theta = best_theta = _params(layer)
    gates = slice(layer.partition.dim, None)
    losses, best_loss = [], np.inf
    for step in range(cfg.steps):
        loss, grad = analytic_gradient(_with_params(layer, theta), prep, y_ref)
        losses.append(loss)
        if loss < best_loss:
            best_loss, best_theta = loss, theta
        lr = cfg.learning_rate * 0.5 * (1.0 + np.cos(np.pi * step / cfg.steps))
        theta = theta - lr * grad
        theta[gates] = np.clip(theta[gates], 0.0, calibrate_module._GATE_MAX)
    return _with_params(layer, best_theta), losses


class TestLastStep:
    @pytest.mark.parametrize("steps", [1, 2, 5])
    def test_last_step_takes_no_gradient(self, monkeypatch, steps):
        batch, layer = _setup(7)
        cfg = CalibConfig(steps=steps)
        want_layer, want_losses = _calibrate_with_every_gradient(layer, batch, cfg)
        calls = []
        real = calibrate_module.analytic_gradient
        monkeypatch.setattr(calibrate_module, "analytic_gradient",
                            lambda *a: calls.append(1) or real(*a))
        out, trace = calibrate(layer, batch, cfg)
        assert len(calls) == steps - 1 and len(trace.losses) == steps
        assert trace.losses == want_losses
        np.testing.assert_array_equal(_params(out), _params(want_layer))
        np.testing.assert_array_equal(out.scale, want_layer.scale)
        # A reference output passed in gives the same calibration.
        y_ref = forward_reference(layer.w, batch)
        again, again_trace = calibrate(layer, batch, cfg, y_ref=y_ref)
        assert again_trace.losses == want_losses
        np.testing.assert_array_equal(_params(again), _params(want_layer))


class TestGradients:
    def test_identity_mode_gradient_is_zero(self):
        # With identity quantizers the transforms cancel exactly, so every
        # parameter direction is flat and the gradient is zero.
        batch, layer = _setup(5, act_bits=None, weight_bits=None)
        y_ref = forward_reference(layer.w, batch)
        loss, grad = analytic_gradient(layer, prepare(layer, batch), y_ref)
        assert grad.size == _params(layer).size
        assert loss <= 1e-12
        np.testing.assert_allclose(grad, np.zeros_like(grad), atol=1e-8)

    @pytest.mark.parametrize("text_rows", [True, False])
    @pytest.mark.parametrize("cws,mac", [(False, False), (True, False),
                                         (False, True), (True, True)])
    @pytest.mark.parametrize("seed,split,lattice", [
        pytest.param(0, True, False, id="0"),
        pytest.param(3, True, False, id="3"),
        pytest.param(0, False, False, id="0-trivial"),
        pytest.param(0, True, True, id="0-lattice"),
        pytest.param(3, True, True, id="3-lattice"),
    ])
    def test_matches_frozen_surrogate(self, monkeypatch, seed, split, lattice, cws,
                                      mac, text_rows):
        # The complex step through the frozen-quantizer surrogate is the
        # oracle (see surrogate.py).  Each path's log-scales are checked on
        # their own channels; the trivial partition's empty outlier paths are
        # skipped.  On continuous draws no quantizer clamps, so the lattice
        # cases round the batch to halves and start at unit scales: there
        # the activation quantizers clamp and their masks are reached.
        batch = generate(SynthConfig(seed=seed))
        if lattice:
            batch = ActivationBatch(np.round(2 * batch.data) / 2, batch.tags)
        w = generate_weight(64, 64, seed=seed + 900)
        part = (build_partition(batch, MocdConfig(ratio_vision=2 / 64, ratio_text=2 / 64))
                if split else trivial_partition(64))
        if not text_rows:
            rows = batch.vision_rows
            batch = ActivationBatch(batch.data[rows], batch.tags[rows])
        layer = build_layer(
            w, batch, part, act_bits=4, weight_bits=4,
            rank_cws=0.02 if cws else 0.0, rank_mac=0.03 if mac else 0.0,
        )
        segments = [(name, getattr(part, name)) for name in ("c_main", "c_text", "c_vision")]
        size = part.dim
        for name, br in (("gate_s", layer.branch_smooth), ("gate_c", layer.branch_comp)):
            if br is not None:
                segments.append((name, size + np.arange(br.rank)))
                size += br.rank
        theta0 = _params(layer)
        assert theta0.size == size
        theta0 = theta0 + 0.1 * np.random.default_rng(seed).standard_normal(theta0.size)
        prep = prepare(layer, batch)
        if lattice:
            theta0[:part.dim] = 0.0
            fp = forward_with_cache(_with_params(layer, theta0), prep)[1]
            assert fp.mask_a is not None and not fp.mask_a[:, :part.c_main.size].all()
        y_ref = forward_reference(layer.w, batch)
        grad, oracle = gradient_and_oracle(monkeypatch, layer, prep, y_ref, theta0)
        for name, index in segments:
            a, f = grad[index], oracle[index]
            if index.size == 0:
                continue
            assert np.max(np.abs(f - a)) <= 1e-12 * np.max(np.abs(a)), name

    def test_steps_do_not_quantize_the_fixed_factors(self, monkeypatch):
        # With CWS and MAC on a split partition a step makes 3 quantizer
        # calls: the paths' activations, the paths' weights with each
        # branch's gated factor, and the MAC input.  Each branch's u_star is
        # quantized once per calibrate call, before step 0.
        batch, layer = _setup(0)
        assert layer.partition.c_text.size and layer.partition.c_vision.size
        inputs = []

        def recording(name, real):
            def quantize(m, bits, widths=None):
                inputs.append(m)
                return real(m, bits, widths)
            return quantize

        patch_quantizers(monkeypatch, recording)
        calibrate(layer, batch, CalibConfig(steps=3))
        fixed = (layer.branch_smooth.u_star, layer.branch_comp.u_star)
        assert [i for i, m in enumerate(inputs) if any(m is u for u in fixed)] == [0, 1]
        assert len(inputs) == 2 + 3 * 3

    def test_analytic_descent_direction(self):
        # A small step along the negative gradient should not increase the
        # loss (checked in expectation over several seeds).
        wins = 0
        for seed in range(8):
            batch, layer = _setup(seed + 20)
            theta = _params(layer)
            y_ref = forward_reference(layer.w, batch)
            prep = prepare(layer, batch)
            loss0, grad = analytic_gradient(layer, prep, y_ref)
            step = 1e-3 / max(np.linalg.norm(grad), 1e-12)
            loss1, _, _ = _loss(_with_params(layer, theta - step * grad), prep, y_ref)
            wins += loss1 <= loss0 + 1e-12
        assert wins >= 6


class TestStratifiedSubset:
    def test_preserves_proportions(self):
        batch = generate(SynthConfig(tokens_text=60, tokens_vision=20, seed=0))
        rng = np.random.default_rng(0)
        t_rows, v_rows = _stratified_subset(rng, batch, 40)
        for rows, tag, size in ((t_rows, 0, 30), (v_rows, 1, 10)):
            assert rows.size == size
            assert np.all(batch.tags[rows] == tag)
            assert np.all(np.diff(rows) > 0)

    def test_forces_one_vision_token(self):
        # 4 * 15/16 rounds to 4 text tokens, so the subset trades one of them
        # for the batch's one vision token.
        batch = ActivationBatch(np.zeros((16, 2)), [0] * 15 + [1])
        t_rows, v_rows = _stratified_subset(np.random.default_rng(0), batch, 4)
        assert batch.tags[t_rows].tolist() == [0, 0, 0]
        assert np.all(np.diff(t_rows) > 0)
        assert v_rows.tolist() == [15]

    def test_rejects_oversized_subset(self):
        batch = generate(
            SynthConfig(
                tokens_text=4, tokens_vision=4, dim=4,
                vision_outliers=(0,), text_outliers=(2,), seed=0,
            )
        )
        with pytest.raises(ValueError):
            _stratified_subset(np.random.default_rng(0), batch, 9)


class TestStability:
    def test_reference_equals_subset_scores_one(self):
        batch = generate(SynthConfig(seed=3))
        cfg = MocdConfig(ratio_vision=2 / 64, ratio_text=2 / 64)
        rep = stability_report(batch, cfg, [128], 128, trials=3, seed=0)
        assert rep[0]["mean_jaccard"] == 1.0

    def test_similarity_in_unit_interval(self):
        batch = generate(SynthConfig(seed=4))
        cfg = MocdConfig(ratio_vision=2 / 64, ratio_text=2 / 64)
        rep = stability_report(batch, cfg, [16, 32], 128, trials=5, seed=1)
        for row in rep:
            assert 0.0 <= row["mean_jaccard"] <= 1.0

    def test_rejects_zero_trials(self):
        # No trial would leave every mean and std a NaN of an empty slice.
        batch = generate(SynthConfig(seed=3))
        with pytest.raises(ValueError, match="trials must be positive"):
            stability_report(batch, MocdConfig(), [16], 32, trials=0)

    def test_planted_data_is_stable(self):
        batch = generate(SynthConfig(seed=5))
        cfg = MocdConfig(ratio_vision=2 / 64, ratio_text=2 / 64)
        rep = stability_report(batch, cfg, [32, 64], 128, trials=20, seed=0)
        assert all(row["mean_jaccard"] >= 0.8 for row in rep)

    @staticmethod
    def _plain_report(batch, cfg, sizes, reference_size, trials, seed):
        """stability_report from one build_partition per subset, each on its
        own sub-batch; returns the report, every selection (the reference's
        first) and every row set."""
        row_sets = []

        def selection(rng, size):
            rows = np.sort(np.concatenate(_stratified_subset(rng, batch, size)))
            row_sets.append(rows)
            p = build_partition(ActivationBatch(batch.data[rows], batch.tags[rows]), cfg)
            return np.sort(np.concatenate([p.c_text, p.c_vision]))

        picks = [selection(np.random.default_rng(seed), reference_size)]
        report = []
        for size in sizes:
            sims = []
            for trial in range(trials):
                picks.append(selection(np.random.default_rng(seed * 1_000_003 + trial + 1), size))
                sims.append(jaccard(picks[-1], picks[0]))
            report.append({"subset_size": size, "mean_jaccard": float(np.mean(sims)),
                           "std_jaccard": float(np.std(sims))})
        return report, picks, row_sets

    @pytest.mark.parametrize("tokens", [64, 512, 0],
                             ids=["shared-candidates", "union-below-batch", "vision-pick-differs"])
    def test_rank_reuse_matches_plain_report(self, tokens):
        # A planted batch's vision pick never moves, so every text row of the
        # subsets is ranked once, in blocks of at most reference_size rows, and
        # every subset reads its rows; at 512 tokens per modality they are a
        # strict part of the batch.  On plain noise small subsets pick other
        # vision channels, and each other pick ranks its subsets' rows once.
        if tokens:
            batch = generate(SynthConfig(tokens_text=tokens, tokens_vision=tokens, seed=2))
            ratio = 2 / 64
        else:
            rng = np.random.default_rng(7)
            tags = rng.permutation([0] * 64 + [1] * 32)  # text rows not first
            batch = ActivationBatch(rng.standard_normal((96, 16)), tags)
            ratio = 2 / 16
        args = (batch, MocdConfig(ratio_vision=ratio, ratio_text=ratio), [8, 24, 48], 80, 6, 3)
        picks = []
        with mock.patch.object(calibrate_module, "jaccard",
                               side_effect=lambda a, b: picks.append(a) or jaccard(a, b)), \
             mock.patch.object(mocd, "percentile_rank", wraps=percentile_rank) as rank:
            report = stability_report(*args)
        expect, expect_picks, row_sets = self._plain_report(*args)
        assert report == expect
        assert [p.tolist() for p in picks] == [p.tolist() for p in expect_picks[1:]]
        union_text = np.intersect1d(np.concatenate(row_sets), batch.text_rows)
        ranked = [call.args[1].size for call in rank.call_args_list]
        assert (sum(ranked) == union_text.size) == (tokens > 0)
        assert (union_text.size < batch.text_rows.size) == (tokens == 512)
        if tokens:
            assert max(ranked) <= 80 and (len(ranked) > 1) == (tokens == 512)
        # Each distinct vision pick ranks the union of its subsets' text rows once.
        unions = {}
        for rows in row_sets:
            sub = ActivationBatch(batch.data[rows], batch.tags[rows])
            pick = build_partition(sub, args[1]).c_vision.tobytes()
            unions.setdefault(pick, set()).update(rows[sub.text_rows].tolist())
        assert sum(ranked) == sum(len(u) for u in unions.values())
        assert (len(unions) > 1) == (tokens == 0)

    def test_same_size_subsets_share_text_score_calls(self):
        # At the CLI defaults C = 63 text candidates, so 7 subsets of a size
        # share a call: 20 trials take 3 calls per size, and the reference 1.
        d, batch, cfg = RunConfig(), generate(SynthConfig()), MocdConfig()
        dim = batch.data.shape[1]
        c = dim - cfg.k_vision(dim)
        chunk = SCORE_CELLS // (c * (c + 1))
        assert chunk > 1
        with mock.patch.object(mocd, "text_score", wraps=mocd.text_score) as score:
            stability_report(batch, cfg, d.subset_sizes, min(d.reference_size, len(batch.data)),
                             d.trials, d.seed)
        assert score.call_count == len(d.subset_sizes) * -(-d.trials // chunk) + 1
        assert {call.args[0].shape[1] for call in score.call_args_list} == {
            c, c * chunk, c * (d.trials % chunk)}

    def test_report_makes_one_selection_call(self):
        # The reference's and every trial's rows go to one _select call.
        d, batch = RunConfig(), generate(SynthConfig())
        with mock.patch.object(calibrate_module, "_select", wraps=mocd._select) as select:
            stability_report(batch, MocdConfig(), d.subset_sizes,
                             min(d.reference_size, len(batch.data)), d.trials, d.seed)
        assert select.call_count == 1
        assert len(select.call_args.args[1]) == 1 + len(d.subset_sizes) * d.trials

    def test_selections_read_row_sets_of_the_one_batch(self):
        # At the CLI defaults every selection reads its rows of the batch it
        # was given: no sub-batch and no partition is built, and a subset
        # without a vision token is rejected where every selection checks it.
        d, batch = RunConfig(), generate(SynthConfig())
        args = (MocdConfig(), d.subset_sizes, min(d.reference_size, len(batch.data)),
                d.trials, d.seed)
        built = []

        def counted(cls):
            init = cls.__post_init__
            return mock.patch.object(cls, "__post_init__",
                                     lambda self: built.append(cls.__name__) or init(self))

        with counted(ActivationBatch), counted(ChannelPartition):
            stability_report(batch, *args)
        assert built == []
        with pytest.raises(ValueError, match="size 1 has no vision token") as err:
            stability_report(batch, args[0], [1], *args[2:])
        assert err.traceback[-1].name == "_select"
