"""The smoothing scale: its init, its bounds, and the invariance it keeps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modquant.layer import SplitLayer, forward_with_cache, prepare
from modquant.mocd import trivial_partition
from modquant.tensor import ActivationBatch
from modquant.transform import DIAG_EPS, checked_scale, smoothing_scale


def _path(x, w, scale):
    """The forward record of the one-path layer (x, w, scale) with identity
    quantizers: a = x * scale exactly and b = w / scale."""
    layer = SplitLayer(trivial_partition(x.shape[1]), w, scale, None, None)
    return forward_with_cache(layer, prepare(layer, ActivationBatch(x, np.zeros(x.shape[0]))))[1]


class TestConstruction:
    def test_diagonal_bounds(self):
        with pytest.raises(ValueError, match="magnitudes"):
            checked_scale(np.array([1e-9]))
        with pytest.raises(ValueError, match="magnitudes"):
            checked_scale(np.array([1e9]))

    def test_diagonal_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            checked_scale(np.array([1.0, -1.0]))

    def test_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        path = _path(x, x.T, np.ones(3))
        np.testing.assert_array_equal(path.a, x)
        np.testing.assert_array_equal(path.b, x.T)


class TestApply:
    # The layer applies s in its forward pass: z = x s, b = W / s.
    def test_diagonal_right_hand_value(self):
        path = _path(np.array([[1.0, 1.0]]), np.ones((2, 1)), np.array([2.0, 3.0]))
        np.testing.assert_allclose(path.a, [[2.0, 3.0]], rtol=1e-14)

    def test_diagonal_inv_left_hand_value(self):
        path = _path(np.ones((1, 2)), np.array([[2.0], [4.0]]), np.array([2.0, 4.0]))
        np.testing.assert_allclose(path.b, [[1.0], [1.0]], rtol=1e-14)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 64))
    @settings(max_examples=40, deadline=None)
    def test_diagonal_invariance(self, seed, dim):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((5, dim))
        w = rng.standard_normal((dim, 3))
        path = _path(x, w, rng.uniform(0.1, 10.0, dim))
        ref = x @ w
        assert np.linalg.norm(path.a @ path.b - ref) <= 1e-9 * max(np.linalg.norm(ref), 1.0)


class TestInit:
    def test_smoothing_init_hand_value(self):
        # column maxima [4, 1] at alpha = 0.5 -> d = [2, 1]
        x = np.array([[4.0, -1.0], [-2.0, 0.5]])
        np.testing.assert_allclose(smoothing_scale(x), [2.0, 1.0])

    def test_all_zero_column_floors_at_eps(self):
        x = np.array([[0.0, 1.0], [0.0, 1.0]])
        scale = smoothing_scale(x)
        assert scale[0] == pytest.approx(np.sqrt(DIAG_EPS))
        assert scale[0] > 0
