"""Tests for the unified one-shot SpMTTKRP kernel."""

import numpy as np
import pytest

from repro.formats.fcoo import FCOOTensor
from repro.kernels.unified import unified_spmttkrp
from repro.tensor.ops import mttkrp_dense
from repro.tensor.random import random_factors, random_sparse_tensor
from repro.tensor.sparse import SparseTensor


class TestCorrectness:
    def test_matches_dense_every_mode(self, small_tensor, small_factors):
        dense = small_tensor.to_dense()
        for mode in range(3):
            result = unified_spmttkrp(small_tensor, small_factors, mode)
            np.testing.assert_allclose(
                result.output, mttkrp_dense(dense, small_factors, mode), rtol=1e-5, atol=1e-6
            )

    def test_matches_dense_fourth_order(self, fourth_order_tensor):
        rng = np.random.default_rng(0)
        factors = [rng.random((s, 3)) for s in fourth_order_tensor.shape]
        dense = fourth_order_tensor.to_dense()
        for mode in range(4):
            result = unified_spmttkrp(fourth_order_tensor, factors, mode)
            np.testing.assert_allclose(
                result.output, mttkrp_dense(dense, factors, mode), rtol=1e-5, atol=1e-6
            )

    def test_accepts_preencoded_fcoo(self, small_tensor, small_factors):
        fcoo = FCOOTensor.from_sparse(small_tensor, "spmttkrp", 1)
        direct = unified_spmttkrp(small_tensor, small_factors, 1)
        via = unified_spmttkrp(fcoo, small_factors, 1)
        np.testing.assert_allclose(via.output, direct.output)

    def test_rejects_wrong_encoding(self, small_tensor, small_factors):
        fcoo = FCOOTensor.from_sparse(small_tensor, "spmttkrp", 1)
        with pytest.raises(ValueError, match="encoded for"):
            unified_spmttkrp(fcoo, small_factors, 0)

    def test_ignored_factor_at_target_mode(self, small_tensor, small_factors):
        """The factor at the output mode is not read; garbage there must not matter."""
        modified = list(small_factors)
        modified[0] = np.full_like(small_factors[0], np.nan)
        result = unified_spmttkrp(small_tensor, modified, 0)
        reference = unified_spmttkrp(small_tensor, small_factors, 0)
        np.testing.assert_allclose(result.output, reference.output)

    def test_empty_tensor(self):
        empty = SparseTensor.empty((4, 5, 6))
        factors = [np.ones((s, 2)) for s in (4, 5, 6)]
        result = unified_spmttkrp(empty, factors, 0)
        assert result.output.shape == (4, 2)
        assert (result.output == 0).all()
        # The footprint is the resident operands: the float32 product-mode
        # factors (5 x 2, 6 x 2) and the output (4 x 2).
        assert result.profile.device_memory_bytes == (5 * 2 + 6 * 2 + 4 * 2) * 4

    def test_output_rows_without_nonzeros_are_zero(self):
        coords = np.array([[0, 0, 0], [0, 1, 1]])
        tensor = SparseTensor(coords, np.array([1.0, 2.0]), (5, 2, 2))
        factors = [np.ones((5, 2)), np.ones((2, 2)), np.ones((2, 2))]
        result = unified_spmttkrp(tensor, factors, 0)
        assert (result.output[1:] == 0).all()
        assert (result.output[0] != 0).all()

    def test_wrong_factor_count(self, small_tensor, small_factors):
        with pytest.raises(ValueError):
            unified_spmttkrp(small_tensor, small_factors[:2], 0)

    def test_rank_mismatch(self, small_tensor, small_factors):
        bad = list(small_factors)
        bad[1] = np.ones((small_tensor.shape[1], 9))
        with pytest.raises(ValueError):
            unified_spmttkrp(small_tensor, bad, 0)


class TestProfile:
    def test_one_shot_no_intermediate_tensor(self, skewed_tensor):
        """The one-shot kernel's footprint excludes any intermediate tensor:
        it must be well below COO + intermediate (what ParTI allocates)."""
        from repro.bench.memory import spmttkrp_footprints

        rank = 8
        factors = random_factors(skewed_tensor.shape, rank, seed=0)
        result = unified_spmttkrp(skewed_tensor, factors, 0)
        unified_bytes, parti_bytes = spmttkrp_footprints(skewed_tensor, rank, mode=0)
        assert result.profile.device_memory_bytes == pytest.approx(unified_bytes, rel=0.2)
        assert result.profile.device_memory_bytes < parti_bytes

    def test_single_fused_launch(self, small_tensor, small_factors):
        result = unified_spmttkrp(small_tensor, small_factors, 0)
        assert result.profile.counters.kernel_launches == 1

    def test_atomics_far_below_baseline(self, skewed_tensor):
        rank = 16
        factors = random_factors(skewed_tensor.shape, rank, seed=1)
        result = unified_spmttkrp(skewed_tensor, factors, 0)
        assert result.profile.counters.atomic_ops < skewed_tensor.nnz * rank / 10

    def test_balanced(self, skewed_tensor):
        factors = random_factors(skewed_tensor.shape, 4, seed=2)
        result = unified_spmttkrp(skewed_tensor, factors, 0)
        assert result.profile.counters.imbalance_factor == pytest.approx(1.0)

    def test_mode_insensitivity_on_skewed_tensor(self):
        """The core claim of Figure 7: per-mode times stay within a small factor."""
        tensor = random_sparse_tensor(
            (50, 400, 8), 20_000, seed=3, distribution="power", concentration=1.0
        )
        factors = random_factors(tensor.shape, 16, seed=4)
        times = [
            unified_spmttkrp(tensor, factors, mode).estimated_time_s for mode in range(3)
        ]
        assert max(times) / min(times) < 2.0

    def test_rank_scaling_roughly_linear(self, skewed_tensor):
        factors8 = random_factors(skewed_tensor.shape, 8, seed=5)
        factors64 = random_factors(skewed_tensor.shape, 64, seed=5)
        t8 = unified_spmttkrp(skewed_tensor, factors8, 0).estimated_time_s
        t64 = unified_spmttkrp(skewed_tensor, factors64, 0).estimated_time_s
        assert t64 / t8 < 16.0  # grows, but not faster than the 8x rank increase squared
        assert t64 > t8
