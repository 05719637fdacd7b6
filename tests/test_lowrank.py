"""Truncated SVD and the gated low-rank branches."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from modquant.lowrank import (
    LowRankBranch,
    branches,
    default_rank,
    truncated_svd,
)


def build_branch(w: np.ndarray, scale: np.ndarray, r: int) -> LowRankBranch:
    """The rank-r branch of ``w``, built alone."""
    return branches(w, scale, {"b": r / min(w.shape)})["b"]


def _product(br: LowRankBranch) -> np.ndarray:
    """The branch's effective product u_star @ diag(gate) @ v_base."""
    return br.u_star @ br.effective_v()


class TestTruncatedSvd:
    def test_diagonal_hand_value(self):
        u, sigma, vt = truncated_svd(np.diag([3.0, 1.0]), 2)
        np.testing.assert_allclose(sigma, [3.0, 1.0])
        recon = u @ np.diag(sigma) @ vt
        np.testing.assert_allclose(recon, np.diag([3.0, 1.0]), atol=1e-12)

    def test_rank_one_hand_value(self):
        u, sigma, vt = truncated_svd(np.array([[2.0, 0.0], [0.0, 0.0]]), 1)
        np.testing.assert_allclose(sigma, [2.0])
        np.testing.assert_allclose(u, [[1.0], [0.0]], atol=1e-12)
        np.testing.assert_allclose(vt, [[1.0, 0.0]], atol=1e-12)

    def test_full_rank_exactness(self):
        w = np.random.default_rng(0).standard_normal((8, 5))
        u, sigma, vt = truncated_svd(w, 5)
        err = np.linalg.norm(w - u @ np.diag(sigma) @ vt)
        assert err <= 1e-8 * np.linalg.norm(w)

    def test_sign_convention_deterministic(self):
        w = np.random.default_rng(1).standard_normal((6, 6))
        u1 = truncated_svd(w, 4)[0]
        u2 = truncated_svd(-(-w), 4)[0]
        np.testing.assert_array_equal(u1, u2)
        for j in range(4):
            col = u1[:, j]
            nz = np.flatnonzero(np.abs(col) > 1e-12)
            assert col[nz[0]] > 0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_eckart_young_monotone(self, seed):
        w = np.random.default_rng(seed).standard_normal((10, 7))
        errs = []
        for r in range(1, 8):
            u, sigma, vt = truncated_svd(w, r)
            errs.append(np.linalg.norm(w - u @ np.diag(sigma) @ vt))
        assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))


class TestBranch:
    def test_unit_scale_unit_gate(self):
        w = np.random.default_rng(2).standard_normal((6, 9))
        br = build_branch(w, np.ones(6), 3)
        u, sigma, vt = truncated_svd(w, 3)
        np.testing.assert_allclose(
            _product(br), u @ np.diag(sigma) @ vt, atol=1e-8
        )

    def test_full_rank_unit_gate_recovers_weight(self):
        w = np.random.default_rng(3).standard_normal((5, 5))
        br = build_branch(w, np.ones(5), 5)
        np.testing.assert_allclose(_product(br), w, atol=1e-8)

    def test_zero_gate_disables_branch(self):
        w = np.random.default_rng(4).standard_normal((4, 4))
        br = build_branch(w, np.ones(4), 2)
        assert not _product(dataclasses.replace(br, gate=np.zeros(2))).any()

    def test_transform_folds_into_u(self):
        # u_star carries 1 / scale so that the scale applied upstream cancels
        # exactly.
        w = np.random.default_rng(5).standard_normal((4, 6))
        scale = np.array([2.0, 0.5, 3.0, 1.0])
        br = build_branch(w, scale, 2)
        plain = build_branch(w, np.ones(4), 2)
        np.testing.assert_allclose(br.u_star * scale[:, None], plain.u_star)

    @given(st.integers(2, 12), st.integers(2, 12), st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=30, deadline=None)
    def test_leading_factors_equal_a_smaller_svd(self, rows, cols, seed, data):
        # The sign convention works per column, so the leading r triplets of
        # one SVD at a full-rank sibling's rank give the branch of an SVD
        # truncated at r, bit for bit.
        w = np.random.default_rng(seed).standard_normal((rows, cols))
        scale = np.array(data.draw(st.lists(st.floats(0.5, 2.0), min_size=rows,
                                            max_size=rows)))
        full = min(rows, cols)
        for r in range(1, full + 1):
            shared = branches(w, scale, {"big": 1.0, "r": r / full})["r"]
            own = branches(w, scale, {"r": r / full})["r"]
            assert shared.rank == r
            for a, b in ((shared.u_star, own.u_star), (shared.v_base, own.v_base)):
                np.testing.assert_array_equal(a, b)
                assert a.flags.c_contiguous and b.flags.c_contiguous


class TestDefaultRank:
    def test_values(self):
        assert default_rank(0.02, 64, 64) == 1
        assert default_rank(0.03, 64, 64) == 2
        assert default_rank(0.5, 10, 6) == 3
        assert default_rank(0.001, 64, 64) == 1

