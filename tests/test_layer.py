"""Split-layer forward pass: cancellation oracles, locality, serialization."""

import dataclasses
import json
import struct
from random import Random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from modquant.calibrate import _LOG_HI, _LOG_LO, CalibConfig, _params, _with_params, calibrate
from modquant.layer import (
    AUX_BITS_FLOOR,
    SplitLayer,
    _aux_bits,
    build_layer,
    forward,
    forward_reference,
    forward_with_cache,
    load_layer,
    prepare,
    save_layer,
)
from modquant.mocd import ChannelPartition, MocdConfig, build_partition, trivial_partition
from modquant.synth import SynthConfig, generate, generate_weight
from modquant.tensor import ActivationBatch, TensorFormatError, load_tensor, save_tensor
from reference_forward import reference_terms
from surrogate import patch_quantizers



def _instance(seed, dim=16, d_out=12, nontrivial=True):
    batch = generate(
        SynthConfig(
            tokens_text=12,
            tokens_vision=12,
            dim=dim,
            vision_outliers=(1,),
            text_outliers=(5,),
            seed=seed,
        )
    )
    w = generate_weight(dim, d_out, seed=seed + 10_000)
    if nontrivial:
        part = build_partition(
            batch, MocdConfig(ratio_vision=1 / dim, ratio_text=1 / dim)
        )
    else:
        part = trivial_partition(dim)
    return batch, w, part


class TestReference:
    def test_identity_weight(self):
        batch, _, _ = _instance(0, dim=8, d_out=8)
        np.testing.assert_array_equal(
            forward_reference(np.eye(8), batch), batch.data
        )

    def test_zero_weight(self):
        batch, _, _ = _instance(0, dim=8)
        assert not forward_reference(np.zeros((8, 4)), batch).any()


class TestCancellation:
    @pytest.mark.parametrize("nontrivial", [False, True])
    @pytest.mark.parametrize("cws", [False, True])
    @pytest.mark.parametrize("mac", [False, True])
    def test_identity_quantizers_cancel(self, nontrivial, cws, mac):
        for seed in range(5):
            batch, w, part = _instance(seed, nontrivial=nontrivial)
            layer = build_layer(
                w, batch, part,
                act_bits=None, weight_bits=None,
                rank_cws=0.02 if cws else 0.0, rank_mac=0.03 if mac else 0.0,
            )
            y = forward(layer, batch)
            ref = forward_reference(w, batch)
            err = np.linalg.norm(y - ref) / np.linalg.norm(ref)
            assert err <= 1e-8

    def test_16bit_close_to_reference(self):
        batch, w, _ = _instance(1)
        layer = build_layer(w, batch, trivial_partition(16), 16, 16)
        y = forward(layer, batch)
        ref = forward_reference(w, batch)
        assert np.linalg.norm(y - ref) <= 1e-3 * np.linalg.norm(ref)


class TestMacLocality:
    def test_vision_rows_unaffected_by_mac(self):
        for seed in range(10):
            batch, w, part = _instance(seed)
            layer = build_layer(
                w, batch, part, act_bits=4, weight_bits=4,
                rank_cws=0.02, rank_mac=0.03,
            )
            off = dataclasses.replace(layer, branch_comp=None)
            y_on = forward(layer, batch)
            y_off = forward(off, batch)
            v = batch.vision_rows
            np.testing.assert_array_equal(y_on[v], y_off[v])

    def test_mac_changes_text_rows(self):
        batch, w, part = _instance(3)
        layer = build_layer(
            w, batch, part, act_bits=4, weight_bits=4,
            rank_cws=0.02, rank_mac=0.03,
        )
        off = dataclasses.replace(layer, branch_comp=None)
        t = batch.text_rows
        assert np.any(forward(layer, batch)[t] != forward(off, batch)[t])


@st.composite
def _forward_cases(draw):
    """A layer and a batch: a partition of 1-9 channels whose outlier paths
    may be empty, bit widths of 2-8 or identity, any tag pattern, each branch
    present or not, and random scales and gates."""
    dim = draw(st.integers(1, 9))
    k_text, k_vision = draw(st.integers(0, dim // 2)), draw(st.integers(0, dim // 2))
    assume(dim - k_text - k_vision >= max(k_text, k_vision))
    order = draw(st.permutations(range(dim)))
    part = ChannelPartition(sorted(order[k_text + k_vision:]), sorted(order[:k_text]),
                            sorted(order[k_text:k_text + k_vision]), dim)
    tags = draw(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=8))
    bits = [draw(st.one_of(st.none(), st.integers(2, 8))) for _ in range(2)]
    ranks = [draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0))) for _ in range(2)]
    return _forward_case(part, tags, bits, ranks, draw(st.integers(1, 6)),
                         draw(st.integers(0, 2**32 - 1)))


def _forward_case(part, tags, bits, ranks, d_out, seed):
    """The layer and batch for the drawn values, with random data, scales
    and gates from ``seed``."""
    rng = np.random.default_rng(seed)
    batch = ActivationBatch(rng.standard_normal((len(tags), part.dim))
                            * 10.0 ** rng.uniform(-2, 2, part.dim), tags)
    layer = build_layer(rng.standard_normal((part.dim, d_out)), batch, part, *bits, *ranks)
    gates = {name: dataclasses.replace(br, gate=rng.uniform(0.0, 2.0, br.rank))
             for name in ("branch_smooth", "branch_comp")
             if (br := getattr(layer, name)) is not None}
    return dataclasses.replace(layer, scale=rng.uniform(0.1, 10.0, part.dim), **gates), batch


class TestReferenceForward:
    @given(_forward_cases())
    # Two-channel outlier paths and both branches at rank 4, at 2 bits.  A
    # group of one value keeps it at every bit width, so only groups of two
    # or more at < 4 bits show whether a quantizer takes the 4-bit floor,
    # and few draws have them in every path and branch.
    @example(_forward_case(ChannelPartition([0, 1, 2, 3], [4, 5], [6, 7], 8),
                           [0, 1, 0, 1, 1, 0], [2, 2], [1.0, 1.0], 4, 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, case):
        # The terms are summed in another order, so each output differs from
        # the reference by rounding only: 1e-12 of its terms' magnitude.
        layer, batch = case
        terms = reference_terms(layer, batch)
        err = np.abs(forward(layer, batch) - sum(terms))
        assert np.all(err <= 1e-12 * sum(np.abs(t) for t in terms))


class TestPermutation:
    @given(_forward_cases(), st.randoms(use_true_random=False))
    # A vision path and a 4-channel main path, at 2 bits.  Output [1, 0] is a
    # sum that cancels to 6.9e-17, and the permutation moves it by 3.5e-17:
    # over 1e-12 of |a @ b|, within 1e-12 of |a| @ |b|.
    @example(_forward_case(ChannelPartition([2, 3, 4, 5], [], [0, 1, 6], 7),
                           [0] * 6, [2, 2], [0.0, 0.0], 2, 372), Random(0))
    @settings(max_examples=100, deadline=None)
    def test_permuting_channels_and_weight_rows_keeps_the_output(self, case, random):
        # Channel j of the permuted layer is channel perm[j]: X's columns,
        # W's rows, the scales and the partition move together, and each
        # branch's rows follow its main channels' new order.  Every group
        # the quantizers see keeps its values, so only the sums' order moves,
        # within each product too: 1e-12 of its factors' product |a| @ |b|.
        layer, batch = case
        p = layer.partition
        perm = np.array(random.sample(range(p.dim), p.dim))
        where = np.argsort(perm)
        moved = ChannelPartition(*(np.sort(where[c]) for c in (p.c_main, p.c_text, p.c_vision)),
                                 p.dim)
        rows = np.argsort(where[p.c_main])
        branches = {name: dataclasses.replace(br, u_star=br.u_star[rows])
                    for name in ("branch_smooth", "branch_comp")
                    if (br := getattr(layer, name)) is not None}
        permuted = dataclasses.replace(layer, partition=moved, w=layer.w[perm],
                                       scale=layer.scale[perm], **branches)
        y = forward(permuted, ActivationBatch(batch.data[:, perm], batch.tags))
        terms = reference_terms(layer, batch, lambda a, b: np.abs(a) @ np.abs(b))
        assert np.all(np.abs(y - forward(layer, batch)) <= 1e-12 * sum(terms))


def _prepared(x, part):
    """``prepare`` of the batch ``x`` for a branchless layer on ``part``."""
    layer = SplitLayer(part, np.zeros((part.dim, 1)), np.ones(part.dim), None, None)
    return prepare(layer, ActivationBatch(x, np.zeros(x.shape[0])))


def _column_blocks(x, part):
    """The main, text and vision blocks of ``prepare``'s gathered columns."""
    prep = _prepared(x, part)
    return np.split(prep.x, np.cumsum(prep.widths)[:-1], axis=1)


class TestPrepare:
    def test_hand_example(self):
        # C_m={0,2}, C_t={1}, C_v={} on a 2x3 matrix.
        part = ChannelPartition([0, 2], [1], [], 3)
        x = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        m, t, v = _column_blocks(x, part)
        assert m.tolist() == [[1, 3], [4, 6]]
        assert t.tolist() == [[2], [5]]
        assert v.shape == (2, 0)

    def test_identity_partition(self):
        part = ChannelPartition([0, 1, 2], [], [], 3)
        x = np.arange(6.0).reshape(2, 3)
        m, t, v = _column_blocks(x, part)
        np.testing.assert_array_equal(m, x)
        assert t.shape == (2, 0) and v.shape == (2, 0)

    def test_blocks_are_c_contiguous(self):
        # A column gather is Fortran-ordered; products of the blocks must see
        # the same memory order whatever the partition, so the gathered
        # columns and rows are C-ordered and each block is a row-major view.
        part = ChannelPartition([0, 2, 3], [1], [4], 5)
        prep = _prepared(np.arange(20.0).reshape(4, 5), part)
        assert prep.x.flags.c_contiguous and prep.w.flags.c_contiguous
        assert prep.cols.tolist() == [0, 2, 3, 1, 4] and prep.widths == (3, 1, 1)

    def test_dim_mismatch(self):
        part = ChannelPartition([0, 1], [], [], 2)
        with pytest.raises(ValueError, match="partition covers"):
            _column_blocks(np.zeros((2, 3)), part)

    @given(
        arrays(np.float64, (4, 6), elements=st.floats(-1e6, 1e6)),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip_is_exact(self, x, rnd):
        idx = list(range(6))
        rnd.shuffle(idx)
        part = ChannelPartition(sorted(idx[:4]), sorted(idx[4:5]), sorted(idx[5:]), 6)
        for block, cols in zip(_column_blocks(x, part),
                               (part.c_main, part.c_text, part.c_vision)):
            np.testing.assert_array_equal(block, x[:, cols])


class TestForwardPass:
    def test_empty_paths_do_no_work(self, monkeypatch):
        # On a trivial partition without branches only the main path's
        # activation and weight are quantized, each by its role's quantizer.
        batch, w, part = _instance(0, nontrivial=False)
        layer = build_layer(w, batch, part, act_bits=4, weight_bits=4)
        calls = []

        def counting(name, real):
            def quantize(m, bits, widths=None):
                calls.append((name, m.shape))
                return real(m, bits, widths)
            return quantize

        patch_quantizers(monkeypatch, counting)
        y, fp = forward_with_cache(layer, prepare(layer, batch))
        assert calls == [("quantize_act", (24, 16)), ("quantize_weight", (16, 12))]
        assert fp.cws is None and fp.mac is None
        np.testing.assert_array_equal(y, fp.a @ fp.b)

    def test_one_quantizer_call_per_role(self, monkeypatch):
        # A split layer with CWS and MAC quantizes its three paths' activations
        # in one call and their weights with both branches' factors in
        # another; MAC's input is the one other call.  An unsplit layer
        # without branches makes one call per role.
        batch, w, part = _instance(0)
        assert part.c_text.size and part.c_vision.size
        split = build_layer(w, batch, part, 4, 4, rank_cws=0.2, rank_mac=0.2)
        plain = build_layer(w, batch, trivial_partition(part.dim), 4, 4)
        calls = []

        def counting(name, real):
            def quantize(m, bits, widths=None):
                calls.append(name)
                return real(m, bits, widths)
            return quantize

        patch_quantizers(monkeypatch, counting)
        for layer, acts in ((split, 2), (plain, 1)):
            prep = prepare(layer, batch)
            calls.clear()
            forward_with_cache(layer, prep)
            assert sorted(calls) == ["quantize_act"] * acts + ["quantize_weight"]
        ranks = split.branch_smooth.rank + split.branch_comp.rank
        assert forward_with_cache(split, prepare(split, batch))[1].b.shape == (
            part.dim + ranks, w.shape[1])

    def test_aux_bits_floor(self):
        # The outlier paths and branch factors take at least the floor.
        assert AUX_BITS_FLOOR == 4
        assert (_aux_bits(2), _aux_bits(4), _aux_bits(8)) == (4, 4, 8)
        assert _aux_bits(None) is None


class TestBuild:
    def test_one_svd_serves_both_branches(self, monkeypatch):
        batch, w, part = _instance(2, dim=32, d_out=24)
        real = np.linalg.svd
        calls = []
        monkeypatch.setattr(np.linalg, "svd",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        both = build_layer(w, batch, part, 4, 4, rank_cws=0.1, rank_mac=0.2)
        assert len(calls) == 1
        cws = build_layer(w, batch, part, 4, 4, rank_cws=0.1).branch_smooth
        mac = build_layer(w, batch, part, 4, 4, rank_mac=0.2).branch_comp
        assert (cws.rank, mac.rank) == (2, 5)
        for shared, own in ((both.branch_smooth, cws), (both.branch_comp, mac)):
            for name in ("u_star", "v_base", "gate"):
                np.testing.assert_array_equal(getattr(shared, name), getattr(own, name))

    def test_zero_ratio_builds_no_branch(self):
        batch, w, part = _instance(2, dim=32, d_out=24)
        layer = build_layer(w, batch, part, 4, 4, rank_cws=0.0, rank_mac=0.0)
        assert layer.branch_smooth is None and layer.branch_comp is None
        assert build_layer(w, batch, part, 4, 4).branch_smooth is None
        layer = build_layer(w, batch, part, 4, 4, rank_cws=0.001, rank_mac=0.001)
        assert layer.branch_smooth.rank == layer.branch_comp.rank == 1


class TestValidation:
    def test_rejects_non_finite_weight(self):
        batch, w, part = _instance(0)
        bad = w.copy()
        bad[part.c_main[0], 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            build_layer(bad, batch, part, 8, 8)

    @pytest.mark.parametrize("bits", [1, 17])
    def test_bits_out_of_range(self, bits):
        batch, w, part = _instance(0)
        for act_bits, weight_bits in ((bits, 4), (4, bits)):
            with pytest.raises(ValueError, match="bits must be in"):
                build_layer(w, batch, part, act_bits, weight_bits)

    @pytest.mark.parametrize("rank", [0.0, 0.02], ids=["no-branch", "branches"])
    def test_weight_without_columns(self, rank):
        batch, w, part = _instance(0)
        with pytest.raises(ValueError, match=r"weight has no columns \(d_out 0\)"):
            build_layer(w[:, :0], batch, part, 4, 4, rank_cws=rank, rank_mac=rank)

    def test_rank_ratio_above_one(self):
        # The SVD and branch steps trust the ranks that build_layer derives.
        batch, w, part = _instance(0)
        for ratios in ((1.5, 0.0), (0.0, 1.0 + 1e-9)):
            with pytest.raises(ValueError, match="rank ratios must be at most 1"):
                build_layer(w, batch, part, 4, 4, *ratios)

    @pytest.mark.parametrize("ratio", [np.nan, -0.5])
    def test_rank_ratio_outside_the_unit_interval(self, ratio):
        # Such a ratio is not positive, so it would build no branch silently.
        batch, w, part = _instance(0)
        for ratios in ((ratio, 0.0), (0.0, ratio)):
            with pytest.raises(ValueError, match="rank ratios must be at most 1"):
                build_layer(w, batch, part, 4, 4, *ratios)

    def test_weight_rows_must_match_partition(self):
        batch, w, part = _instance(0)
        with pytest.raises(ValueError):
            build_layer(w[:-1], batch, part, 8, 8)

    def test_batch_width_must_match_partition(self):
        batch, w, part = _instance(0)
        narrow = ActivationBatch(batch.data[:, :-1], batch.tags)
        with pytest.raises(ValueError, match="batch columns"):
            build_layer(w, narrow, part, 8, 8)

    def test_batch_width_checked(self):
        batch, w, part = _instance(0)
        layer = build_layer(w, batch, part, 8, 8)
        short = generate(
            SynthConfig(
                dim=8, vision_outliers=(1,),
                text_outliers=(5,), seed=0,
            )
        )
        with pytest.raises(ValueError, match="partition covers 16 channels, matrix has 8"):
            forward(layer, short)


class TestSerialization:
    @pytest.mark.parametrize("use_branches", [False, True])
    def test_save_load_round_trip(self, tmp_path, use_branches):
        batch, w, part = _instance(4)
        layer = build_layer(
            w, batch, part, act_bits=4, weight_bits=4,
            rank_cws=0.02 if use_branches else 0.0,
            rank_mac=0.03 if use_branches else 0.0,
        )
        manifest = save_layer(layer, str(tmp_path / "layer"))
        back = load_layer(manifest)
        np.testing.assert_array_equal(back.w, w)
        np.testing.assert_array_equal(forward(back, batch), forward(layer, batch))

    def test_calibrated_layer_round_trips_bit_for_bit(self, tmp_path):
        batch = generate(SynthConfig(seed=0))
        w = generate_weight(64, 64, seed=0)
        part = build_partition(batch, MocdConfig(ratio_vision=2 / 64, ratio_text=2 / 64))
        layer = build_layer(
            w, batch, part, act_bits=4, weight_bits=4, rank_cws=0.02, rank_mac=0.03
        )
        layer, _ = calibrate(layer, batch, CalibConfig(steps=50))
        back = load_layer(save_layer(layer, str(tmp_path / "layer")))
        np.testing.assert_array_equal(back.scale, layer.scale)
        np.testing.assert_array_equal(forward(back, batch), forward(layer, batch))

    def test_clipped_scales_round_trip_bit_for_bit(self, tmp_path):
        # Calibration clips its log-scales to [log DIAG_EPS, log DIAG_MAX],
        # and exp of either clip bound must pass load_layer's range check.
        batch, w, part = _instance(4)
        layer = build_layer(w, batch, part, act_bits=4, weight_bits=4)
        theta = _params(layer)
        theta[0::2], theta[1::2] = _LOG_LO - 1.0, _LOG_HI + 1.0
        layer = _with_params(layer, theta)
        assert set(layer.scale) == {np.exp(_LOG_LO), np.exp(_LOG_HI)}
        back = load_layer(save_layer(layer, str(tmp_path / "layer")))
        np.testing.assert_array_equal(back.scale, layer.scale)
        np.testing.assert_array_equal(forward(back, batch), forward(layer, batch))

    def test_loads_manifest_with_aux_bits_floor(self, tmp_path):
        # Layer directories written before the floor became a constant carry
        # an "aux_bits_floor" key; the loader ignores it.
        batch, w, part = _instance(4)
        layer = build_layer(w, batch, part, act_bits=4, weight_bits=4)
        path = save_layer(layer, str(tmp_path / "layer"))
        with open(path) as fh:
            manifest = json.load(fh)
        assert "aux_bits_floor" not in manifest
        manifest["aux_bits_floor"] = 4
        with open(path, "w") as fh:
            json.dump(manifest, fh)
        np.testing.assert_array_equal(forward(load_layer(path), batch), forward(layer, batch))

    def test_bits_checked_before_any_tensor_is_read(self, tmp_path):
        batch, w, part = _instance(4)
        path = save_layer(build_layer(w, batch, part, 8, 8), str(tmp_path / "layer"))
        with open(path) as fh:
            manifest = json.load(fh)
        manifest["weight_spec"]["bits"] = 17
        with open(path, "w") as fh:
            json.dump(manifest, fh)
        (tmp_path / "layer" / "w_main.spqt").unlink()
        with pytest.raises(ValueError, match=r"bits must be in \[2, 16\] or None, got 17"):
            load_layer(path)

    @pytest.mark.parametrize("key", ["use_mac", "partition", "p_text", "w_main"])
    def test_missing_manifest_key_is_value_error(self, tmp_path, key):
        batch, w, part = _instance(4)
        path = save_layer(build_layer(w, batch, part, 8, 8), str(tmp_path / "layer"))
        with open(path) as fh:
            manifest = json.load(fh)
        del manifest[key]
        with open(path, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(ValueError, match=key):
            load_layer(path)

    @pytest.mark.parametrize("fname", ["branch_smooth_gate.spqt", "branch_comp_v_base.spqt"])
    def test_branch_factor_of_wrong_shape_is_value_error(self, tmp_path, fname):
        # One column would broadcast against the rank in the forward pass.
        batch, w, part = _instance(4)
        layer = build_layer(w, batch, part, act_bits=4, weight_bits=4,
                            rank_cws=0.5, rank_mac=0.5)
        assert layer.branch_smooth.rank > 1 and layer.branch_comp.rank > 1
        path = save_layer(layer, str(tmp_path / "layer"))
        factor = str(tmp_path / "layer" / fname)
        save_tensor(factor, load_tensor(factor)[:, :1])
        with pytest.raises(ValueError, match="branch factor shapes"):
            load_layer(path)

    def test_branch_of_rank_zero_is_value_error(self, tmp_path):
        # build_layer never builds a rank-0 branch, so a file must not load one.
        batch, w, part = _instance(4)
        layer = build_layer(w, batch, part, act_bits=4, weight_bits=4, rank_mac=0.5)
        path = save_layer(layer, str(tmp_path / "layer"))
        for name, shape in (("u_star", (part.c_main.size, 0)), ("v_base", (0, w.shape[1])),
                            ("gate", (1, 0))):
            save_tensor(str(tmp_path / "layer" / f"branch_comp_{name}.spqt"), np.empty(shape))
        with pytest.raises(ValueError, match="branch rank must be in 1"):
            load_layer(path)

    def test_gate_of_wrong_length_or_nan_is_rejected(self, tmp_path):
        # A gate enters a layer only from its file: load_layer checks its
        # length against the rank, and the tensor loader rejects a NaN.
        batch, w, part = _instance(4)
        layer = build_layer(w, batch, part, act_bits=4, weight_bits=4, rank_cws=0.5)
        rank = layer.branch_smooth.rank
        path = save_layer(layer, str(tmp_path / "layer"))
        gate = tmp_path / "layer" / "branch_smooth_gate.spqt"
        save_tensor(str(gate), np.ones((1, rank + 1)))
        with pytest.raises(ValueError, match="branch factor shapes"):
            load_layer(path)
        save_tensor(str(gate), np.ones((1, rank)))
        gate.write_bytes(gate.read_bytes()[:-8] + struct.pack("<d", np.nan))
        with pytest.raises(TensorFormatError, match="non-finite value"):
            load_layer(path)

    def test_rejects_foreign_manifest(self, tmp_path):
        path = tmp_path / "manifest.json"
        # The last is nested deep enough to exhaust the JSON decoder's recursion.
        for text in ('{"format": "something-else"}\n', "[" * 100_000 + "]" * 100_000):
            path.write_text(text)
            with pytest.raises(ValueError, match="manifest"):
                load_layer(str(path))


class TestParameterUpdates:
    def test_gate_update_changes_output(self):
        batch, w, part = _instance(5)
        layer = build_layer(
            w, batch, part, act_bits=4, weight_bits=4, rank_cws=0.02
        )
        rank = layer.branch_smooth.rank
        updated = dataclasses.replace(
            layer, branch_smooth=dataclasses.replace(layer.branch_smooth,
                                                     gate=np.full(rank, 0.5))
        )
        assert np.any(forward(updated, batch) != forward(layer, batch))
