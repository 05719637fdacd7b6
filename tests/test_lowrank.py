"""Truncated SVD and the gated low-rank branches."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modquant.lowrank import (
    LowRankBranch,
    build_branch,
    default_rank,
    truncated_svd,
)


def _product(br: LowRankBranch) -> np.ndarray:
    """The branch's effective product u_star @ diag(gate) @ v_base."""
    return br.u_star @ br.effective_v()


class TestTruncatedSvd:
    def test_diagonal_hand_value(self):
        f = truncated_svd(np.diag([3.0, 1.0]), 2)
        np.testing.assert_allclose(f.sigma, [3.0, 1.0])
        recon = f.u @ np.diag(f.sigma) @ f.vt
        np.testing.assert_allclose(recon, np.diag([3.0, 1.0]), atol=1e-12)

    def test_rank_one_hand_value(self):
        f = truncated_svd(np.array([[2.0, 0.0], [0.0, 0.0]]), 1)
        np.testing.assert_allclose(f.sigma, [2.0])
        np.testing.assert_allclose(f.u, [[1.0], [0.0]], atol=1e-12)
        np.testing.assert_allclose(f.vt, [[1.0, 0.0]], atol=1e-12)

    def test_full_rank_exactness(self):
        w = np.random.default_rng(0).standard_normal((8, 5))
        f = truncated_svd(w, 5)
        err = np.linalg.norm(w - f.u @ np.diag(f.sigma) @ f.vt)
        assert err <= 1e-8 * np.linalg.norm(w)

    def test_sign_convention_deterministic(self):
        w = np.random.default_rng(1).standard_normal((6, 6))
        f1 = truncated_svd(w, 4)
        f2 = truncated_svd(-(-w), 4)
        np.testing.assert_array_equal(f1.u, f2.u)
        for j in range(4):
            col = f1.u[:, j]
            nz = np.flatnonzero(np.abs(col) > 1e-12)
            assert col[nz[0]] > 0

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            truncated_svd(np.ones((3, 2)), 0)
        with pytest.raises(ValueError):
            truncated_svd(np.ones((3, 2)), 3)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_eckart_young_monotone(self, seed):
        w = np.random.default_rng(seed).standard_normal((10, 7))
        errs = []
        for r in range(1, 8):
            f = truncated_svd(w, r)
            errs.append(np.linalg.norm(w - f.u @ np.diag(f.sigma) @ f.vt))
        assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))


class TestBranch:
    def test_unit_scale_unit_gate(self):
        w = np.random.default_rng(2).standard_normal((6, 9))
        br = build_branch(truncated_svd(w, 3), np.ones(6), 3)
        f = truncated_svd(w, 3)
        np.testing.assert_allclose(
            _product(br), f.u @ np.diag(f.sigma) @ f.vt, atol=1e-8
        )

    def test_full_rank_unit_gate_recovers_weight(self):
        w = np.random.default_rng(3).standard_normal((5, 5))
        br = build_branch(truncated_svd(w, 5), np.ones(5), 5)
        np.testing.assert_allclose(_product(br), w, atol=1e-8)

    def test_zero_gate_disables_branch(self):
        w = np.random.default_rng(4).standard_normal((4, 4))
        br = build_branch(truncated_svd(w, 2), np.ones(4), 2)
        assert not _product(dataclasses.replace(br, gate=np.zeros(2))).any()

    def test_transform_folds_into_u(self):
        # u_star carries 1 / scale so that the scale applied upstream cancels
        # exactly.
        w = np.random.default_rng(5).standard_normal((4, 6))
        scale = np.array([2.0, 0.5, 3.0, 1.0])
        br = build_branch(truncated_svd(w, 2), scale, 2)
        plain = build_branch(truncated_svd(w, 2), np.ones(4), 2)
        np.testing.assert_allclose(br.u_star * scale[:, None], plain.u_star)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            build_branch(truncated_svd(np.ones((4, 4)), 1), np.ones(3), 1)

    def test_rank_beyond_the_factors(self):
        w = np.random.default_rng(4).standard_normal((4, 4))
        for r in (0, 3):
            with pytest.raises(ValueError, match="rank"):
                build_branch(truncated_svd(w, 2), np.ones(4), r)

    def test_leading_factors_equal_a_smaller_svd(self):
        # The sign convention works per column, so the leading r triplets of
        # one rank-R SVD give the branch of an SVD truncated at r, bit for bit.
        rng = np.random.default_rng(7)
        w = rng.standard_normal((9, 7))
        scale = rng.uniform(0.5, 2.0, 9)
        factors = truncated_svd(w, 6)
        for r in range(1, 7):
            shared = build_branch(factors, scale, r)
            own = build_branch(truncated_svd(w, r), scale, r)
            for a, b in ((shared.u_star, own.u_star), (shared.v_base, own.v_base)):
                np.testing.assert_array_equal(a, b)
                assert a.flags.c_contiguous


class TestDefaultRank:
    def test_values(self):
        assert default_rank(0.02, 64, 64) == 1
        assert default_rank(0.03, 64, 64) == 2
        assert default_rank(0.5, 10, 6) == 3
        assert default_rank(0.001, 64, 64) == 1
        assert default_rank(0.02, 0, 64) == 0

