"""Tests for the unified F-COO SpTTM kernel."""

import numpy as np
import pytest

from repro.formats.fcoo import FCOOTensor
from repro.gpusim.counters import KernelProfile
from repro.kernels.unified import unified_spttm
from repro.tensor.ops import ttm_dense
from repro.tensor.random import random_factors, random_sparse_tensor
from repro.tensor.sparse import SparseTensor


class TestCorrectness:
    def test_matches_dense_every_mode(self, small_tensor, small_factors):
        dense = small_tensor.to_dense()
        for mode in range(3):
            result = unified_spttm(small_tensor, small_factors[mode], mode)
            np.testing.assert_allclose(
                result.output.to_dense(),
                ttm_dense(dense, small_factors[mode], mode),
                rtol=1e-5,
                atol=1e-6,
            )

    def test_matches_dense_fourth_order(self, fourth_order_tensor):
        rng = np.random.default_rng(0)
        dense = fourth_order_tensor.to_dense()
        for mode in range(4):
            u = rng.random((fourth_order_tensor.shape[mode], 3))
            result = unified_spttm(fourth_order_tensor, u, mode)
            np.testing.assert_allclose(
                result.output.to_dense(), ttm_dense(dense, u, mode), rtol=1e-5, atol=1e-6
            )

    def test_accepts_preencoded_fcoo(self, small_tensor, small_factors):
        fcoo = FCOOTensor.from_sparse(small_tensor, "spttm", 2)
        direct = unified_spttm(small_tensor, small_factors[2], 2)
        via_fcoo = unified_spttm(fcoo, small_factors[2], 2)
        assert via_fcoo.output.allclose(direct.output)

    def test_rejects_wrong_encoding(self, small_tensor, small_factors):
        fcoo = FCOOTensor.from_sparse(small_tensor, "spmttkrp", 0)
        with pytest.raises(ValueError, match="encoded for"):
            unified_spttm(fcoo, small_factors[0], 0)

    def test_empty_tensor(self):
        result = unified_spttm(SparseTensor.empty((4, 5, 6)), np.ones((6, 3)), 2)
        assert result.output.num_fibers == 0
        assert result.estimated_time_s >= 0
        # The footprint is the resident operands, as for the other kernels:
        # the float32 factor U (6 x 3) and no output fibers.
        assert result.profile.device_memory_bytes == 6 * 3 * 4

    def test_rank_one_matrix(self, small_tensor):
        u = np.ones((small_tensor.shape[2], 1))
        result = unified_spttm(small_tensor, u, 2)
        assert result.output.fiber_length == 1


class TestProfile:
    def test_profile_populated(self, small_tensor, small_factors):
        result = unified_spttm(small_tensor, small_factors[2], 2)
        assert isinstance(result.profile, KernelProfile)
        assert result.estimated_time_s > 0
        assert result.profile.counters.gmem_read_bytes > 0
        assert result.profile.counters.kernel_launches >= 1
        assert result.profile.device_memory_bytes > 0

    def test_perfect_load_balance(self, skewed_tensor):
        rng = np.random.default_rng(0)
        u = rng.random((skewed_tensor.shape[0], 8))
        result = unified_spttm(skewed_tensor, u, 0)
        assert result.profile.counters.imbalance_factor == pytest.approx(1.0)

    def test_time_scales_with_nnz(self):
        rng_rank = 8
        small = random_sparse_tensor((200, 200, 200), 5_000, seed=0)
        large = random_sparse_tensor((200, 200, 200), 100_000, seed=0)
        u_small = random_factors(small.shape, rng_rank, seed=1)[2]
        t_small = unified_spttm(small, u_small, 2).estimated_time_s
        t_large = unified_spttm(large, u_small, 2).estimated_time_s
        assert t_large > t_small

    def test_fused_no_slower_than_unfused(self, small_tensor, small_factors):
        fused = unified_spttm(small_tensor, small_factors[2], 2, fused=True)
        unfused = unified_spttm(small_tensor, small_factors[2], 2, fused=False)
        assert fused.estimated_time_s <= unfused.estimated_time_s
        assert (
            fused.profile.counters.gmem_total_bytes
            <= unfused.profile.counters.gmem_total_bytes
        )
        np.testing.assert_allclose(
            fused.output.fiber_values, unfused.output.fiber_values
        )

    def test_launch_parameters_respected(self, small_tensor, small_factors):
        result = unified_spttm(
            small_tensor, small_factors[2], 2, block_size=64, threadlen=16
        )
        assert result.estimated_time_s > 0

    def test_atomics_limited_to_block_carries(self, skewed_tensor):
        """The segmented scan removes per-non-zero atomics: the number of
        atomic operations must be far below nnz * rank (what the COO baseline
        issues)."""
        rank = 16
        u = np.random.default_rng(1).random((skewed_tensor.shape[2], rank))
        result = unified_spttm(skewed_tensor, u, 2)
        assert result.profile.counters.atomic_ops < skewed_tensor.nnz * rank / 10
