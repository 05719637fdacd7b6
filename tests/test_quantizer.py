"""Uniform affine fake quantization: parameter derivation and round trips of
the two fixed quantizers, ``quantize_act`` (asymmetric, one group per row)
and ``quantize_weight`` (symmetric, one group per column), and of their
halves: ``_act_params`` (per-row scales, zero-points and the clamp range),
``_weight_params`` (per-column scales) and ``_round_clamp`` (the activation
quantizer's round and clamp at given parameters).  The weight quantizer has
no clamp; its invariant, that every code lies in [-q_max, q_max], is tested
in its place."""

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

ROLES = ("act", "weight")
_MAX = sys.float_info.max


def _value(m, role, bits):
    """The quantized value of the role's quantizer (act: without its mask)."""
    return quantize_act(m, bits)[0] if role == "act" else quantize_weight(m, bits)


def _weight_at(m, scales):
    """The weight quantizer at given scales: round(m/S) * S."""
    return _round_div(m, scales) * scales


def _grid(role, bits):
    """The textbook clamp range: [0, 2^b - 1] asymmetric, [-q_max, q_max]
    symmetric with q_max = 2^(b-1) - 1."""
    if role == "act":
        return 0, 2**bits - 1
    return -(2 ** (bits - 1) - 1), 2 ** (bits - 1) - 1


class TestSpec:
    """The bit width, the one setting of each quantizer."""

    def test_symmetric_range(self):
        # A column whose absmax is q_max has unit scale, and its ends land
        # on the grid's ends -q_max and q_max.
        for bits, q_max in ((8, 127.0), (2, 1.0)):
            m = np.array([[-q_max], [q_max], [0.4]])
            assert _weight_params(m, bits).tolist() == [[1.0]]
            assert quantize_weight(m, bits).tolist() == [[-q_max], [q_max], [0.0]]

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
        for value in (quantize_act(m, None)[0], quantize_weight(m, None)):
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
        scales = _weight_params(np.array([[-1.0], [0.5]]), 8)
        assert scales.tolist() == [[1.0 / 127.0]]

    def test_all_zero_symmetric(self):
        scales = _weight_params(np.zeros((2, 2)), 8)
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
        # S = 1; -0.4 rounds to -0.0, which the quantizer turns into +0.0.
        out = quantize_weight(np.array([[-1.0], [-0.4], [0.6], [1.0]]), 2)
        assert out.tolist() == [[-1.0], [0.0], [1.0], [1.0]]
        assert not np.signbit(out[1, 0])

    def test_grid_points_are_fixed(self):
        # The absmax 1.75 = q_max S at 4 bits gives S = 0.25 exactly.
        x = np.array([[-1.75], [-0.25], [0.0], [0.5], [1.5]])
        np.testing.assert_array_equal(quantize_weight(x, 4), x)

    def test_idempotent(self):
        # At fixed parameters a value on the grid stays where it is.
        rng = np.random.default_rng(3)
        m = rng.standard_normal((8, 8))
        params = _act_params(m, 8)
        once = _round_clamp(m, *params)[0]
        np.testing.assert_array_equal(once, _round_clamp(once, *params)[0])
        scales = _weight_params(m, 8)
        once = _weight_at(m, scales)
        np.testing.assert_array_equal(once, _weight_at(once, scales))

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
        scales = _act_params(m, bits)[0] if role == "act" else _weight_params(m, bits)
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
    """The straight-through mask that the activation quantizer returns with
    its value."""

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
        value, mask = quantize_act(np.ones((2, 3)), None)
        assert mask.dtype == bool and mask.tolist() == [[True] * 3] * 2
        assert value.tolist() == [[1.0] * 3] * 2

    @pytest.mark.parametrize("spec", [("weight", 8), ("act", 2), ("act", 4), ("weight", 3)])
    def test_value_matches_quantize(self, spec):
        # The value is Q(m) of the textbook formulas, on columns of mixed range.
        role, bits = spec
        m = np.random.default_rng(8).standard_normal((6, 5)) * [1, 10, 0.1, 100, 1]
        want_value, _ = _textbook(m, *_textbook_params(m, role, bits), role, bits)
        np.testing.assert_array_equal(_value(m, role, bits), want_value)
        if role == "act":
            mask = quantize_act(m, bits)[1]
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
def _oracle_cases(draw, roles=ROLES):
    """A role of ``roles``, a bit width and a matrix of 1-4 groups of 2-5
    values (rows for act, columns for weight), each group from
    ``_oracle_group``."""
    role, bits = draw(st.sampled_from(roles)), draw(st.integers(2, 8))
    groups, size = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    m = np.array([draw(_oracle_group(role, bits, size)) for _ in range(groups)])
    if role == "weight":
        m = np.ascontiguousarray(m.T)
    return role, bits, m


def _group_params(m, role, bits):
    """The role's parameters of ``m`` as one flat scale and zero-point per
    group, with zeros as the weight's zero-points.  It checks their shape
    (one group per row or per column, kept 2-D) and the act clamp range."""
    rows, cols = m.shape
    if role == "weight":
        scales = _weight_params(m, bits)
        assert scales.shape == (1, cols)
        return scales.reshape(-1), np.zeros(cols)
    scales, zero_points, q_min, q_max = _act_params(m, bits)
    assert scales.shape == zero_points.shape == (rows, 1)
    assert (q_min, q_max) == _grid(role, bits)
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
        # The textbook weight value clips, the quantizer does not: their
        # equality is the check that no weight code needs the clip.
        role, bits, m = case
        want_value, want_mask = _textbook(m, *_group_params(m, role, bits), role, bits)
        np.testing.assert_array_equal(_value(m, role, bits).view(np.uint64),
                                      want_value.view(np.uint64))
        if role == "act":
            np.testing.assert_array_equal(quantize_act(m, bits)[1], want_mask)
        else:
            assert want_mask.all()

    @given(_oracle_cases(roles=("act",)))
    @settings(max_examples=100, deadline=None)
    def test_clamped_values_are_bit_exact(self, case):
        # Half the fitted scale pushes the group's ends past the clamp edges.
        role, bits, m = case
        scales, zero_points, q_min, q_max = _act_params(m, bits)
        value, mask = _round_clamp(m, scales / 2, zero_points, q_min, q_max)
        flat_scales, flat_zero_points = _group_params(m, role, bits)
        want_value, want_mask = _textbook(m, flat_scales / 2, flat_zero_points, role, bits)
        np.testing.assert_array_equal(value.view(np.uint64), want_value.view(np.uint64))
        np.testing.assert_array_equal(mask, want_mask)


@st.composite
def _weight_column(draw, bits, size):
    """One column of ``size`` values, of one of seven kinds: any finite
    floats; uniform in [-1, 1] times 10^e, e in [-300, 300]; subnormal
    entries; magnitudes 1e300 and 1e-300 mixed; one sign only; all zeros of
    either sign; or on a lattice, each value k or k + 0.5 times a scale
    (a power of two, or any), with one end at q_max times it."""
    kind = draw(st.sampled_from(
        ["any", "magnitude", "subnormal", "mixed", "one-signed", "zeros", "lattice"]))

    def values(elements):
        return draw(st.lists(elements, min_size=size, max_size=size))

    if kind == "any":
        return values(st.floats(allow_nan=False, allow_infinity=False))
    if kind == "magnitude":
        e = draw(st.integers(-300, 300))
        return [v * 10.0**e for v in values(st.floats(-1.0, 1.0))]
    if kind == "subnormal":
        return [k * 5e-324 for k in values(st.integers(-(2**52) + 1, 2**52 - 1))]
    if kind == "mixed":
        return values(st.sampled_from([1e300, -1e300, 1e-300, -1e-300, 0.0]))
    if kind == "one-signed":
        sign = draw(st.sampled_from([1.0, -1.0]))
        return [sign * abs(v) for v in values(st.floats(allow_nan=False, allow_infinity=False))]
    if kind == "zeros":
        return values(st.sampled_from([0.0, -0.0]))
    q_max = _grid("weight", bits)[1]
    s = draw(st.one_of(st.integers(-1000, 1000).map(lambda j: 2.0**j), st.floats(1e-300, 1e300)))
    codes = values(st.integers(-2 * q_max, 2 * q_max).map(lambda h: h / 2))
    codes[0] = draw(st.sampled_from([-q_max, q_max]))
    return [c * s for c in draw(st.permutations(codes))]


@st.composite
def _weight_cases(draw):
    """A bit width in [2, 16] and a matrix of 1-4 columns of 1-6 values, each
    column from ``_weight_column``."""
    bits, size = draw(st.integers(2, 16)), draw(st.integers(1, 6))
    columns = [draw(_weight_column(bits, size)) for _ in range(draw(st.integers(1, 4)))]
    return bits, np.ascontiguousarray(np.array(columns).T)


class TestWeightCodes:
    """The invariant that stands in for the weight quantizer's clamp."""

    @given(_weight_cases())
    @example((16, np.array([[1e300, 1e-300], [-1e-300, -1e300], [5e-324, 0.0]])))
    @example((2, np.array([[5e-324], [-1e-310]])))
    @example((8, np.array([[0.0], [-0.0]])))
    @settings(max_examples=500, deadline=None)
    def test_codes_stay_in_range(self, case):
        # S = max|m| / q_max puts every code round(m/S) in [-q_max, q_max],
        # and the quantizer's value is code * S, clamped to the largest
        # float where that product rounds past it.
        bits, m = case
        scales = _weight_params(m, bits)
        codes = _round_div(m, scales)
        assert np.abs(codes).max() <= _grid("weight", bits)[1]
        with np.errstate(over="ignore"):
            product = codes * scales
        assert np.array_equal(quantize_weight(m, bits), np.clip(product, -_MAX, _MAX))


@st.composite
def _scalable(draw):
    """A 1-6 x 1-6 matrix of zeros and values +-f 2^e, f in [1, 2), with e
    at most 8 below one exponent in [-200, 200]: every scale a 2^k shift,
    |k| <= 20, can reach stays far from underflow and overflow."""
    e0 = draw(st.integers(-200, 200))
    value = st.builds(lambda sign, f, e: sign * f * 2.0**e, st.sampled_from([-1.0, 1.0]),
                      st.floats(1.0, 2.0, exclude_max=True), st.integers(e0 - 8, e0))
    shape = draw(st.tuples(st.integers(1, 6), st.integers(1, 6)))
    return draw(arrays(np.float64, shape, elements=st.one_of(st.just(0.0), value)))


class TestMetamorphic:
    """Relations between two calls of one quantizer that hold bit for bit."""

    @given(_scalable(), st.integers(2, 16), st.integers(-20, 20))
    # Below 1e-12 at first, above it after the shift: an absolute floor on
    # the scale would show.
    @example(np.array([[3e-13, -1e-13], [1e-13, 2e-13]]), 8, 20)
    @settings(max_examples=200, deadline=None)
    def test_power_of_two_scaling(self, m, bits, k):
        # 2^k scales every value, range and scale exactly, and no quotient.
        c = 2.0**k
        assert np.array_equal(quantize_act(c * m, bits)[0], c * quantize_act(m, bits)[0])
        assert np.array_equal(quantize_weight(c * m, bits), c * quantize_weight(m, bits))

    @given(_weight_cases())
    @settings(max_examples=200, deadline=None)
    def test_weight_is_odd(self, case):
        # The scales of -m are those of m, and rounding halves away from
        # zero is odd; np.array_equal does not see the sign of zero.
        bits, m = case
        assert np.array_equal(quantize_weight(-m, bits), -quantize_weight(m, bits))


class TestFiniteOutput:
    """Both quantizers are total over finite input: no value is inf."""

    @given(arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 5)),
                  elements=st.floats(allow_nan=False, allow_infinity=False)
                  | st.sampled_from([_MAX, -_MAX, 1e308, -1e308])),
           st.integers(2, 16))
    # q_max S and (levels - z) S round past the largest float: both
    # quantizers gave inf here before their products were clamped.
    @example(np.array([[_MAX], [1.0]]), 3)
    @example(np.array([[_MAX], [1.0]]), 16)
    @example(np.array([[_MAX, 1.0]]), 2)
    @example(np.array([[_MAX, -_MAX]]), 8)
    @settings(max_examples=300, deadline=None)
    def test_finite_input_gives_finite_output(self, m, bits):
        # Each matrix is quantized as it is and transposed, so a row of the
        # activation quantizer is also a column of the weight quantizer.
        for x in (m, np.ascontiguousarray(m.T)):
            assert np.isfinite(quantize_act(x, bits)[0]).all()
            assert np.isfinite(quantize_weight(x, bits)).all()
