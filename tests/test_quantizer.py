"""Uniform affine fake quantization: parameter derivation and round trips of
the two fixed quantizers, ``quantize_act`` (asymmetric, one group per row)
and ``quantize_weight`` (symmetric, one group per column), and of their two
halves: ``_act_params``/``_weight_params`` (per-group scales and zero-points
and the clamp range) and ``_round_clamp`` (round and clamp at given
parameters)."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from modquant.quantizer import (
    _act_params,
    _round_clamp,
    _round_div,
    _weight_params,
    check_bits,
    quantize_act,
    quantize_weight,
)

# Each role's quantizer and its parameter half.
ROLES = {"act": (quantize_act, _act_params), "weight": (quantize_weight, _weight_params)}


def _value(m, role, bits):
    """The quantized value of the role's quantizer, without its mask."""
    return ROLES[role][0](m, bits)[0]


def _grid(role, bits):
    """The textbook clamp range: [0, 2^b - 1] asymmetric, [-q_max, q_max]
    symmetric with q_max = 2^(b-1) - 1."""
    if role == "act":
        return 0, 2**bits - 1
    return -(2 ** (bits - 1) - 1), 2 ** (bits - 1) - 1


class TestSpec:
    """The bit width, the one setting of each quantizer."""

    def test_symmetric_range(self):
        m = np.ones((2, 2))
        assert _weight_params(m, 8)[2:] == (-127, 127)
        assert _weight_params(m, 2)[2:] == (-1, 1)

    def test_asymmetric_range(self):
        m = np.ones((2, 2))
        assert _act_params(m, 2)[2:] == (0, 3)
        assert _act_params(m, 8)[2:] == (0, 255)

    def test_bits_bounds(self):
        for bits in (1, 17, -1):
            with pytest.raises(ValueError, match=r"bits must be in \[2, 16\] or None"):
                check_bits(bits)
        assert (check_bits(2), check_bits(16)) == (2, 16)

    def test_identity_sentinel(self):
        assert check_bits(None) is None
        m = np.arange(6.0).reshape(2, 3)
        for quantize, _ in ROLES.values():
            value, _ = quantize(m, None)
            assert value is not m
            np.testing.assert_array_equal(value, m)


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
    """The parameter halves: one scale (and one zero-point) per group, kept
    2-D; the oracle below checks the group shape of both roles."""

    def test_symmetric_8bit_hand_value(self):
        scales, zero_points, _, _ = _weight_params(np.array([[-1.0], [0.5]]), 8)
        assert scales.tolist() == [[1.0 / 127.0]]
        assert zero_points is None

    def test_all_zero_symmetric(self):
        scales = _weight_params(np.zeros((2, 2)), 8)[0]
        assert scales.tolist() == [[1.0, 1.0]]
        assert not _value(np.zeros((2, 2)), "weight", 8).any()

    def test_asymmetric_2bit_hand_value(self):
        scales, zero_points, _, _ = _act_params(np.array([[-1.0, 1.0]]), 2)
        np.testing.assert_allclose(scales, [[2.0 / 3.0]])
        assert zero_points.tolist() == [[2.0]]

    def test_constant_group_reconstructs_exactly(self):
        # Degenerate asymmetric groups must map the constant onto the grid.
        m = np.full((1, 4), 0.7)
        np.testing.assert_array_equal(_value(m, "act", 4), m)


class TestFakeQuantize:
    def test_symmetric_2bit_hand_values(self):
        out, _ = _round_clamp(np.array([[-5.0, -0.4, 0.6, 5.0]]), np.ones((1, 1)), None, -1, 1)
        assert out.tolist() == [[-1.0, 0.0, 1.0, 1.0]]

    def test_grid_points_are_fixed(self):
        x = np.array([[-1.75, -0.25, 0.0, 0.5, 1.5]])
        np.testing.assert_array_equal(
            _round_clamp(x, np.full((1, 1), 0.25), None, *_grid("weight", 4))[0], x)

    def test_idempotent(self):
        # At fixed parameters a value on the grid stays where it is.
        rng = np.random.default_rng(3)
        m = rng.standard_normal((8, 8))
        for _, fit in ROLES.values():
            params = fit(m, 8)
            once = _round_clamp(m, *params)[0]
            twice = _round_clamp(once, *params)[0]
            np.testing.assert_array_equal(once, twice)

    def test_identity_spec_returns_input(self):
        m = np.random.default_rng(4).standard_normal((3, 3))
        for role in ROLES:
            np.testing.assert_array_equal(_value(m, role, None), m)

    def test_16bit_relative_error(self):
        rng = np.random.default_rng(5)
        m = rng.uniform(-1.0, 1.0, (32, 32))
        for role in ROLES:
            err = np.linalg.norm(m - _value(m, role, 16)) / np.linalg.norm(m)
            assert err < 1e-3

    @given(arrays(np.float64, (4, 4), elements=st.floats(-100.0, 100.0)),
           st.sampled_from([("weight", 8), ("act", 4)]))
    # A subnormal group: absmax / q_max underflows unless the scale is floored.
    @example(np.full((2, 2), 5e-324), ("weight", 8))
    # A finite range wider than the largest float: hi - lo overflows to inf.
    @example(np.array([[-1e308, 1e308]]), ("act", 8))
    @settings(max_examples=100, deadline=None)
    def test_in_range_error_bound(self, m, quantizer):
        # Every value lies in its group's widened range, so none is clamped.
        role, bits = quantizer
        scales = ROLES[role][1](m, bits)[0]
        err = np.abs(m - _value(m, role, bits))
        assert np.all(err <= scales / 2 + 1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_mse_monotone_in_bits(self, seed):
        m = np.random.default_rng(seed).standard_normal((16, 16))
        for role in ROLES:
            mses = [np.mean((m - _value(m, role, b)) ** 2) for b in (2, 3, 4, 6, 8)]
            assert all(a >= b - 1e-15 for a, b in zip(mses, mses[1:])), role


class TestClampMask:
    """The straight-through mask that each quantizer returns with its value."""

    def test_in_and_out_of_range(self):
        # S = 1 and z = round(0.5) = 1, so 2.5 rounds to 3 + 1 = 4 > q_max.
        value, mask = quantize_act(np.array([[-0.5, 0.0, 1.0, 2.5]]), 2)
        assert mask.tolist() == [[1.0, 1.0, 1.0, 0.0]]
        assert value.tolist() == [[-1.0, 0.0, 1.0, 2.0]]

    def test_below_q_min(self):
        # An asymmetric range always includes zero, so a group whose values
        # share one sign keeps z inside [q_min, q_max] and never saturates.
        for m in (np.array([[-120.0, -80.0]]), np.array([[80.0, 120.0]])):
            value, mask = quantize_act(m, 4)
            assert mask.tolist() == [[1.0, 1.0]]
            assert np.all(np.abs(value - m) <= _act_params(m, 4)[0] / 2)
        # Only parameters that do not fit the data round below q_min = 0.
        value, mask = _round_clamp(np.array([[-3.0, 2.0]]), np.ones(1),
                                   np.zeros(1, dtype=np.int64), *_grid("act", 4))
        assert mask.tolist() == [[False, True]]
        assert value.tolist() == [[0.0, 2.0]]

    def test_identity_spec_all_ones(self):
        for quantize, _ in ROLES.values():
            value, mask = quantize(np.ones((2, 3)), None)
            assert mask.dtype == bool and mask.tolist() == [[True] * 3] * 2
            assert value.tolist() == [[1.0] * 3] * 2

    @pytest.mark.parametrize("spec", [("weight", 8), ("act", 2), ("act", 4), ("weight", 3)])
    def test_value_matches_quantize(self, spec):
        # The value is Q(m) of the textbook formulas, on columns of mixed range.
        role, bits = spec
        m = np.random.default_rng(8).standard_normal((6, 5)) * [1, 10, 0.1, 100, 1]
        value, mask = ROLES[role][0](m, bits)
        want_value, _ = _textbook(m, *_textbook_params(m, role, bits), role, bits)
        np.testing.assert_array_equal(value, want_value)
        assert mask.dtype == bool and mask.shape == m.shape


def _textbook_round(x: np.ndarray) -> np.ndarray:
    """Round half away from zero, element by element in exact rationals."""
    return np.array([math.copysign(math.floor(abs(Fraction(v)) + Fraction(1, 2)), v)
                     for v in x.ravel()]).reshape(x.shape)


def _textbook(m, scales, zero_points, role, bits):
    """(clip(round(m/S) + z) - z) * S and the mask (q >= q_min) & (q <= q_max),
    with one group per row (act) or per column (weight)."""
    axis = (-1, 1) if role == "act" else (1, -1)
    q_min, q_max = _grid(role, bits)
    s = scales.reshape(axis)
    z = zero_points.astype(np.float64).reshape(axis)
    q = _textbook_round(m / s) + z
    value = (np.clip(q, q_min, q_max) - z) * s
    return value, (q >= q_min) & (q <= q_max)


def _textbook_params(m, role, bits):
    """The parameters group by group in Python floats: S = max|m| / q_max
    per column (weight) or (hi - lo) / levels per row over the range widened
    to zero (act), as hi/levels - lo/levels where hi - lo overflows; floored
    at the smallest normal, 1 for an all-zero group; z = round(-lo / S)."""
    q_min, q_max = _grid(role, bits)
    levels = q_max - q_min
    scales, zero_points = [], []
    for group in (m if role == "act" else m.T):
        values = [float(v) for v in group]
        if role == "weight":
            a = max(abs(v) for v in values)
            scales.append(max(a / q_max, sys.float_info.min) if a > 0 else 1.0)
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
def _oracle_group(draw, role, bits, size):
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
    q_max = _grid(role, bits)[1]
    if role == "weight":
        # The absmax q_max * S gives the scale S exactly.
        lo, hi = -q_max, q_max
        ends = [draw(st.sampled_from([lo, hi]))]
    else:
        # Ends -a S and (levels - a) S give S and the zero-point a exactly.
        a = draw(st.integers(0, q_max))
        lo, hi = -a, q_max - a
        ends = [lo, hi]
    grid = st.sampled_from([lo, hi, *(k + 0.5 for k in range(lo, hi))])
    rest = draw(st.lists(grid, min_size=size - len(ends), max_size=size - len(ends)))
    return [k * s for k in draw(st.permutations(ends + rest))]


@st.composite
def _oracle_cases(draw):
    """A role, a bit width and a matrix of 1-4 groups of 2-5 values (rows for
    act, columns for weight), each group from ``_oracle_group``."""
    role, bits = draw(st.sampled_from(list(ROLES))), draw(st.integers(2, 8))
    groups, size = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    m = np.array([draw(_oracle_group(role, bits, size)) for _ in range(groups)])
    if role == "weight":
        m = np.ascontiguousarray(m.T)
    return role, bits, m


def _group_params(m, role, bits):
    """The role's parameters of ``m`` as one flat scale and zero-point per
    group, with the weight's None zero-points as zeros.  It checks their
    shape (one group per row or per column, kept 2-D) and the clamp range."""
    scales, zero_points, q_min, q_max = ROLES[role][1](m, bits)
    rows, cols = m.shape
    assert scales.shape == ((rows, 1) if role == "act" else (1, cols))
    assert (zero_points is None) == (role == "weight")
    assert zero_points is None or zero_points.shape == scales.shape
    assert (q_min, q_max) == _grid(role, bits)
    if zero_points is None:
        zero_points = np.zeros_like(scales)
    return scales.reshape(-1), zero_points.reshape(-1)


class TestTextbookOracle:
    """Both quantizers and their parameters against the textbook formulas,
    bit for bit (signed zeros included)."""

    @given(_oracle_cases())
    @settings(max_examples=300, deadline=None)
    def test_params_are_bit_exact(self, case):
        role, bits, m = case
        scales, zero_points = _group_params(m, role, bits)
        want_scales, want_zero_points = _textbook_params(m, role, bits)
        np.testing.assert_array_equal(scales.view(np.uint64), want_scales.view(np.uint64))
        np.testing.assert_array_equal(zero_points, want_zero_points)

    @given(_oracle_cases())
    @settings(max_examples=300, deadline=None)
    def test_quantizers_are_bit_exact(self, case):
        role, bits, m = case
        value, mask = ROLES[role][0](m, bits)
        want_value, want_mask = _textbook(m, *_group_params(m, role, bits), role, bits)
        np.testing.assert_array_equal(value.view(np.uint64), want_value.view(np.uint64))
        np.testing.assert_array_equal(mask, want_mask)

    @given(_oracle_cases())
    @settings(max_examples=100, deadline=None)
    def test_clamped_values_are_bit_exact(self, case):
        # Half the fitted scale pushes the group's ends past the clamp edges.
        role, bits, m = case
        scales, zero_points, q_min, q_max = ROLES[role][1](m, bits)
        value, mask = _round_clamp(m, scales / 2, zero_points, q_min, q_max)
        flat_scales, flat_zero_points = _group_params(m, role, bits)
        want_value, want_mask = _textbook(m, flat_scales / 2, flat_zero_points, role, bits)
        np.testing.assert_array_equal(value.view(np.uint64), want_value.view(np.uint64))
        np.testing.assert_array_equal(mask, want_mask)
