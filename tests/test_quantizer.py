"""Uniform affine fake quantization: parameter derivation and round trips,
all through the one quantizer ``quantize_ste`` and its two halves, ``_params``
(per-group scales and zero-points) and ``_round_clamp`` (round and clamp at
given parameters)."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from modquant.quantizer import (
    Granularity,
    QuantSpec,
    _params,
    _round_clamp,
    _round_div,
    quantize_ste,
)

SYM8 = QuantSpec(8, True, Granularity.PER_TENSOR)
ASYM2 = QuantSpec(2, False, Granularity.PER_TENSOR)
SYM2 = QuantSpec(2, True, Granularity.PER_TENSOR)
ASYM8 = QuantSpec(8, False, Granularity.PER_TENSOR)
ASYM4_TOKEN = QuantSpec(4, False, Granularity.PER_TOKEN)


def _value(m, spec):
    """The quantized value of ``quantize_ste``, without its mask."""
    return quantize_ste(m, spec)[0]


class TestSpec:
    def test_symmetric_range(self):
        assert (SYM8.q_min, SYM8.q_max) == (-127, 127)
        assert (SYM2.q_min, SYM2.q_max) == (-1, 1)

    def test_asymmetric_range(self):
        assert (ASYM2.q_min, ASYM2.q_max) == (0, 3)
        spec = QuantSpec(8, False, Granularity.PER_TOKEN)
        assert (spec.q_min, spec.q_max) == (0, 255)

    def test_bits_bounds(self):
        with pytest.raises(ValueError):
            QuantSpec(1, True, Granularity.PER_TENSOR)
        with pytest.raises(ValueError):
            QuantSpec(17, True, Granularity.PER_TENSOR)

    def test_identity_sentinel(self):
        spec = QuantSpec(None, True, Granularity.PER_TENSOR)
        assert spec.is_identity

    def test_with_floor(self):
        assert QuantSpec(2, True, Granularity.PER_TENSOR).with_floor(4).bits == 4
        assert QuantSpec(8, True, Granularity.PER_TENSOR).with_floor(4).bits == 8
        assert QuantSpec(None, True, Granularity.PER_TENSOR).with_floor(4).bits is None


class TestRounding:
    def test_half_away_from_zero(self):
        x = np.array([0.5, -0.5, 1.5, -1.5, 2.5, 0.4, -0.4])
        np.testing.assert_array_equal(
            _round_div(x, 1.0), [1.0, -1.0, 2.0, -2.0, 3.0, 0.0, -0.0]
        )

    @given(st.floats(allow_nan=False, allow_infinity=False))
    # Just below a half: adding 0.5 in floating point rounds up to 1.
    @example(0.49999999999999994)
    @example(-0.49999999999999994)
    # An odd integer above 2**52: adding 0.5 rounds to the even neighbour.
    @example(2.0**52 + 1)
    @example(-(2.0**52 + 1))
    def test_exact_for_every_finite_float(self, x):
        exact = math.copysign(math.floor(abs(Fraction(x)) + Fraction(1, 2)), x)
        assert _round_div(np.array([x]), 1.0)[0] == exact


class TestComputeParams:
    """``_params``: one scale (and one zero-point) per group, kept 2-D; the
    oracle below checks the group count of every granularity."""

    def test_symmetric_8bit_hand_value(self):
        scales, zero_points = _params(np.array([[-1.0, 0.5]]), SYM8)
        assert scales.tolist() == [[1.0 / 127.0]]
        assert zero_points is None

    def test_all_zero_symmetric(self):
        scales, _ = _params(np.zeros((2, 2)), SYM8)
        assert scales.tolist() == [[1.0]]
        assert not _value(np.zeros((2, 2)), SYM8).any()

    def test_asymmetric_2bit_hand_value(self):
        scales, zero_points = _params(np.array([[-1.0, 1.0]]), ASYM2)
        np.testing.assert_allclose(scales, [[2.0 / 3.0]])
        assert zero_points.tolist() == [[2.0]]

    def test_constant_group_reconstructs_exactly(self):
        # Degenerate asymmetric groups must map the constant onto the grid.
        m = np.full((4, 1), 0.7)
        spec = QuantSpec(4, False, Granularity.PER_CHANNEL)
        np.testing.assert_array_equal(_value(m, spec), m)


class TestFakeQuantize:
    def test_symmetric_2bit_hand_values(self):
        out, _ = _round_clamp(np.array([[-5.0, -0.4, 0.6, 5.0]]), np.ones((1, 1)), None, SYM2)
        assert out.tolist() == [[-1.0, 0.0, 1.0, 1.0]]

    def test_grid_points_are_fixed(self):
        spec = QuantSpec(4, True, Granularity.PER_TENSOR)
        x = np.array([[-1.75, -0.25, 0.0, 0.5, 1.5]])
        np.testing.assert_array_equal(_round_clamp(x, np.full((1, 1), 0.25), None, spec)[0], x)

    def test_idempotent(self):
        # At fixed parameters a value on the grid stays where it is.
        rng = np.random.default_rng(3)
        m = rng.standard_normal((8, 8))
        params = _params(m, SYM8)
        once = _round_clamp(m, *params, SYM8)[0]
        twice = _round_clamp(once, *params, SYM8)[0]
        np.testing.assert_array_equal(once, twice)

    def test_identity_spec_returns_input(self):
        spec = QuantSpec(None, True, Granularity.PER_TENSOR)
        m = np.random.default_rng(4).standard_normal((3, 3))
        np.testing.assert_array_equal(_value(m, spec), m)

    def test_16bit_relative_error(self):
        rng = np.random.default_rng(5)
        m = rng.uniform(-1.0, 1.0, (32, 32))
        spec = QuantSpec(16, True, Granularity.PER_TENSOR)
        err = np.linalg.norm(m - _value(m, spec)) / np.linalg.norm(m)
        assert err < 1e-3

    @given(arrays(np.float64, (4, 4), elements=st.floats(-100.0, 100.0)),
           st.sampled_from([SYM8, ASYM4_TOKEN]))
    # A subnormal group: absmax / q_max underflows unless the scale is floored.
    @example(np.full((2, 2), 5e-324), SYM8)
    # A finite range wider than the largest float: hi - lo overflows to inf.
    @example(np.array([[-1e308, 1e308]]), ASYM8)
    @settings(max_examples=100, deadline=None)
    def test_in_range_error_bound(self, m, spec):
        # Every value lies in its group's widened range, so none is clamped.
        scales, _ = _params(m, spec)
        err = np.abs(m - _value(m, spec))
        assert np.all(err <= scales / 2 + 1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_mse_monotone_in_bits(self, seed):
        m = np.random.default_rng(seed).standard_normal((16, 16))
        mses = [
            np.mean((m - _value(m, QuantSpec(b, True, Granularity.PER_TENSOR))) ** 2)
            for b in (2, 3, 4, 6, 8)
        ]
        assert all(a >= b - 1e-15 for a, b in zip(mses, mses[1:]))


class TestClampMask:
    """The straight-through mask that quantize_ste returns with its value."""

    def test_in_and_out_of_range(self):
        # S = 1 and z = round(0.5) = 1, so 2.5 rounds to 3 + 1 = 4 > q_max.
        value, mask = quantize_ste(np.array([[-0.5, 0.0, 1.0, 2.5]]), ASYM2)
        assert mask.tolist() == [[1.0, 1.0, 1.0, 0.0]]
        assert value.tolist() == [[-1.0, 0.0, 1.0, 2.0]]

    def test_below_q_min(self):
        # An asymmetric range always includes zero, so a group whose values
        # share one sign keeps z inside [q_min, q_max] and never saturates.
        spec = QuantSpec(4, False, Granularity.PER_TOKEN)
        for m in (np.array([[-120.0, -80.0]]), np.array([[80.0, 120.0]])):
            value, mask = quantize_ste(m, spec)
            assert mask.tolist() == [[1.0, 1.0]]
            assert np.all(np.abs(value - m) <= _params(m, spec)[0] / 2)
        # Only parameters that do not fit the data round below q_min = 0.
        value, mask = _round_clamp(np.array([[-3.0, 2.0]]), np.ones(1),
                                   np.zeros(1, dtype=np.int64), spec)
        assert mask.tolist() == [[False, True]]
        assert value.tolist() == [[0.0, 2.0]]

    def test_identity_spec_all_ones(self):
        spec = QuantSpec(None, True, Granularity.PER_TENSOR)
        value, mask = quantize_ste(np.ones((2, 3)), spec)
        assert mask.dtype == bool and mask.tolist() == [[True] * 3] * 2
        assert value.tolist() == [[1.0] * 3] * 2

    @pytest.mark.parametrize("spec", [
        SYM8, ASYM2,
        QuantSpec(4, False, Granularity.PER_TOKEN),
        QuantSpec(3, True, Granularity.PER_CHANNEL),
    ])
    def test_value_matches_quantize(self, spec):
        # The value is Q(m) of the textbook formulas, on columns of mixed range.
        m = np.random.default_rng(8).standard_normal((6, 5)) * [1, 10, 0.1, 100, 1]
        value, mask = quantize_ste(m, spec)
        want_value, _ = _textbook(m, *_textbook_params(m, spec), spec)
        np.testing.assert_array_equal(value, want_value)
        assert mask.dtype == bool and mask.shape == m.shape


def _textbook_round(x: np.ndarray) -> np.ndarray:
    """Round half away from zero, element by element in exact rationals."""
    return np.array([math.copysign(math.floor(abs(Fraction(v)) + Fraction(1, 2)), v)
                     for v in x.ravel()]).reshape(x.shape)


def _textbook(m, scales, zero_points, spec):
    """(clip(round(m/S) + z) - z) * S and the mask (q >= q_min) & (q <= q_max)."""
    axis = (-1, 1) if spec.granularity is Granularity.PER_TOKEN else (1, -1)
    s = scales.reshape(axis)
    z = zero_points.astype(np.float64).reshape(axis)
    q = _textbook_round(m / s) + z
    value = (np.clip(q, spec.q_min, spec.q_max) - z) * s
    return value, (q >= spec.q_min) & (q <= spec.q_max)


def _textbook_params(m, spec):
    """_params group by group in Python floats: S = max|m| / q_max
    (symmetric) or (hi - lo) / levels over the range widened to zero, as
    hi/levels - lo/levels where hi - lo overflows; floored at the smallest
    normal, 1 for an all-zero group; z = round(-lo / S)."""
    if spec.granularity is Granularity.PER_TENSOR:
        groups = [m.ravel()]
    else:
        groups = m.T if spec.granularity is Granularity.PER_CHANNEL else m
    levels = spec.q_max - spec.q_min
    scales, zero_points = [], []
    for group in groups:
        values = [float(v) for v in group]
        if spec.symmetric:
            a = max(abs(v) for v in values)
            scales.append(max(a / spec.q_max, sys.float_info.min) if a > 0 else 1.0)
            zero_points.append(0)
            continue
        lo, hi = min(min(values), 0.0), max(max(values), 0.0)
        span = hi - lo
        step = span / levels if span != math.inf else hi / levels - lo / levels
        scale = max(step, sys.float_info.min) if span > 0 else 1.0
        scales.append(scale)
        zero_points.append(int(_textbook_round(np.array([-lo / scale]))[0]))
    return np.array(scales), np.array(zero_points)


@st.composite
def _oracle_group(draw, spec, size):
    """One group of ``size`` values, of one of five kinds: random floats; on
    the grid of a power-of-two scale S, with its ends at the clamp edges and
    the other entries at exact k + 0.5 multiples of S; all zeros of either
    sign; one sign only; or ends at -1e308 and 1e308, whose hi - lo
    overflows."""
    kind = draw(st.sampled_from(["random", "grid", "zeros", "one-signed", "overflow"]))
    if kind == "random":
        return draw(st.lists(st.floats(-1e6, 1e6), min_size=size, max_size=size))
    if kind == "zeros":
        return draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=size, max_size=size))
    if kind == "one-signed":
        sign = draw(st.sampled_from([1.0, -1.0]))
        return [sign * v for v in draw(st.lists(st.floats(0.0, 1e6), min_size=size,
                                                max_size=size))]
    if kind == "overflow":
        rest = draw(st.lists(st.floats(-1e308, 1e308), min_size=size - 2, max_size=size - 2))
        return draw(st.permutations([-1e308, 1e308, *rest]))
    s = 2.0 ** draw(st.integers(-6, 6))
    if spec.symmetric:
        # The absmax q_max * S gives the scale S exactly.
        lo, hi = -spec.q_max, spec.q_max
        ends = [draw(st.sampled_from([lo, hi]))]
    else:
        # Ends -a S and (levels - a) S give S and the zero-point a exactly.
        a = draw(st.integers(0, spec.q_max))
        lo, hi = -a, spec.q_max - a
        ends = [lo, hi]
    grid = st.sampled_from([lo, hi, *(k + 0.5 for k in range(lo, hi))])
    rest = draw(st.lists(grid, min_size=size - len(ends), max_size=size - len(ends)))
    return [k * s for k in draw(st.permutations(ends + rest))]


@st.composite
def _oracle_cases(draw):
    """A spec of any granularity and a matrix of 1-4 groups of 2-5 values
    (one group of all of them per tensor), each group from ``_oracle_group``."""
    granularity = draw(st.sampled_from(list(Granularity)))
    spec = QuantSpec(draw(st.integers(2, 8)), draw(st.booleans()), granularity)
    groups, size = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    if granularity is Granularity.PER_TENSOR:
        m = np.array(draw(_oracle_group(spec, groups * size))).reshape(groups, size)
    else:
        m = np.array([draw(_oracle_group(spec, size)) for _ in range(groups)])
    if granularity is Granularity.PER_CHANNEL:
        m = np.ascontiguousarray(m.T)
    return spec, m


def _group_params(m, spec):
    """``_params`` of ``m`` as one flat scale and zero-point per group, with
    the None zero-points of a symmetric spec as zeros.  It checks their
    shape: one group per tensor, per column or per row, kept 2-D."""
    scales, zero_points = _params(m, spec)
    rows, cols = m.shape
    assert scales.shape == {Granularity.PER_TENSOR: (1, 1), Granularity.PER_CHANNEL: (1, cols),
                            Granularity.PER_TOKEN: (rows, 1)}[spec.granularity]
    assert (zero_points is None) == spec.symmetric
    assert zero_points is None or zero_points.shape == scales.shape
    if zero_points is None:
        zero_points = np.zeros_like(scales)
    return scales.reshape(-1), zero_points.reshape(-1)


class TestTextbookOracle:
    """_params and quantize_ste against the textbook formulas, bit for bit
    (signed zeros included)."""

    @given(_oracle_cases())
    @settings(max_examples=300, deadline=None)
    def test_params_are_bit_exact(self, case):
        spec, m = case
        scales, zero_points = _group_params(m, spec)
        want_scales, want_zero_points = _textbook_params(m, spec)
        np.testing.assert_array_equal(scales.view(np.uint64), want_scales.view(np.uint64))
        np.testing.assert_array_equal(zero_points, want_zero_points)

    @given(_oracle_cases())
    @settings(max_examples=300, deadline=None)
    def test_quantize_ste_is_bit_exact(self, case):
        spec, m = case
        value, mask = quantize_ste(m, spec)
        want_value, want_mask = _textbook(m, *_group_params(m, spec), spec)
        np.testing.assert_array_equal(value.view(np.uint64), want_value.view(np.uint64))
        np.testing.assert_array_equal(mask, want_mask)

    @given(_oracle_cases())
    @settings(max_examples=100, deadline=None)
    def test_clamped_values_are_bit_exact(self, case):
        # Half the fitted scale pushes the group's ends past the clamp edges.
        spec, m = case
        scales, zero_points = _params(m, spec)
        value, mask = _round_clamp(m, scales / 2, zero_points, spec)
        flat_scales, flat_zero_points = _group_params(m, spec)
        want_value, want_mask = _textbook(m, flat_scales / 2, flat_zero_points, spec)
        np.testing.assert_array_equal(value.view(np.uint64), want_value.view(np.uint64))
        np.testing.assert_array_equal(mask, want_mask)

