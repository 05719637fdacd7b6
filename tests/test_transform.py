"""Invertible transforms: invariance, bounds, and the smoothing init."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modquant.transform import (
    DIAG_EPS,
    apply_inv_left,
    apply_right,
    dense_transform,
    diagonal_transform,
    identity_transform,
    init_transform,
)


def _random_well_conditioned(dim, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    d = rng.uniform(0.5, 2.0, dim)
    return q * d[np.newaxis, :]


class TestConstruction:
    def test_diagonal_bounds(self):
        with pytest.raises(ValueError, match="magnitudes"):
            diagonal_transform(np.array([1e-9]))
        with pytest.raises(ValueError, match="magnitudes"):
            diagonal_transform(np.array([1e9]))

    def test_diagonal_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            diagonal_transform(np.array([1.0, -1.0]))

    def test_dense_rejects_singular(self):
        with pytest.raises(ValueError):
            dense_transform(np.zeros((2, 2)))

    def test_dense_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            dense_transform(np.ones((2, 3)))

    def test_identity(self):
        t = identity_transform(3)
        x = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(apply_right(x, t), x)
        np.testing.assert_array_equal(apply_inv_left(x.T, t), x.T)


class TestApply:
    def test_diagonal_right_hand_value(self):
        t = diagonal_transform(np.array([2.0, 3.0]))
        np.testing.assert_allclose(
            apply_right(np.array([[1.0, 1.0]]), t), [[2.0, 3.0]], rtol=1e-14
        )

    def test_diagonal_inv_left_hand_value(self):
        t = diagonal_transform(np.array([2.0, 4.0]))
        np.testing.assert_allclose(
            apply_inv_left(np.array([[2.0], [4.0]]), t), [[1.0], [1.0]], rtol=1e-14
        )

    def test_dim_checks(self):
        t = diagonal_transform(np.ones(3))
        with pytest.raises(ValueError):
            apply_right(np.ones((2, 4)), t)
        with pytest.raises(ValueError):
            apply_inv_left(np.ones((4, 2)), t)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 64))
    @settings(max_examples=40, deadline=None)
    def test_dense_invariance(self, seed, dim):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((5, dim))
        w = rng.standard_normal((dim, 3))
        t = dense_transform(_random_well_conditioned(dim, seed))
        y = apply_right(x, t) @ apply_inv_left(w, t)
        ref = x @ w
        assert np.linalg.norm(y - ref) <= 1e-8 * max(np.linalg.norm(ref), 1.0)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 64))
    @settings(max_examples=40, deadline=None)
    def test_diagonal_invariance(self, seed, dim):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((5, dim))
        w = rng.standard_normal((dim, 3))
        t = diagonal_transform(rng.uniform(0.1, 10.0, dim))
        y = apply_right(x, t) @ apply_inv_left(w, t)
        ref = x @ w
        assert np.linalg.norm(y - ref) <= 1e-9 * max(np.linalg.norm(ref), 1.0)


class TestInit:
    def test_identity_init(self):
        t = init_transform(3)
        np.testing.assert_array_equal(t.scale, np.ones(3))

    def test_smoothing_init_hand_value(self):
        # column maxima [4, 1] at alpha = 0.5 -> d = [2, 1]
        x = np.array([[4.0, -1.0], [-2.0, 0.5]])
        t = init_transform(2, x_calib=x)
        np.testing.assert_allclose(t.scale, [2.0, 1.0])

    def test_all_zero_column_floors_at_eps(self):
        x = np.array([[0.0, 1.0], [0.0, 1.0]])
        t = init_transform(2, x_calib=x)
        assert t.scale[0] == pytest.approx(np.sqrt(DIAG_EPS))
        assert t.scale[0] > 0

