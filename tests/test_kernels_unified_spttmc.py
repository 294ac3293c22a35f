"""Tests for the unified SpTTMc (tensor-times-matrix chain) kernel."""

import numpy as np
import pytest

from repro.formats.fcoo import FCOOTensor
from repro.kernels.unified import unified_spttmc
from repro.tensor.ops import ttmc_dense
from repro.tensor.random import random_factors
from repro.tensor.sparse import SparseTensor


class TestCorrectness:
    def test_matches_dense_every_mode(self, small_tensor, small_factors):
        dense = small_tensor.to_dense()
        for mode in range(3):
            result = unified_spttmc(small_tensor, small_factors, mode)
            np.testing.assert_allclose(
                result.output, ttmc_dense(dense, small_factors, mode), rtol=1e-5, atol=1e-6
            )

    def test_mixed_ranks(self, small_tensor):
        rng = np.random.default_rng(0)
        factors = [rng.random((s, r)) for s, r in zip(small_tensor.shape, (2, 3, 4))]
        result = unified_spttmc(small_tensor, factors, 0)
        assert result.output.shape == (small_tensor.shape[0], 12)
        np.testing.assert_allclose(
            result.output,
            ttmc_dense(small_tensor.to_dense(), factors, 0),
            rtol=1e-5,
            atol=1e-6,
        )

    def test_fourth_order(self, fourth_order_tensor):
        rng = np.random.default_rng(1)
        factors = [rng.random((s, 2)) for s in fourth_order_tensor.shape]
        dense = fourth_order_tensor.to_dense()
        for mode in range(4):
            result = unified_spttmc(fourth_order_tensor, factors, mode)
            np.testing.assert_allclose(
                result.output, ttmc_dense(dense, factors, mode), rtol=1e-5, atol=1e-6
            )

    def test_accepts_spmttkrp_encoding(self, small_tensor, small_factors):
        """SpTTMc and SpMTTKRP share the mode classification (Table I), so a
        tensor encoded for either works."""
        fcoo = FCOOTensor.from_sparse(small_tensor, "spmttkrp", 0)
        result = unified_spttmc(fcoo, small_factors, 0)
        np.testing.assert_allclose(
            result.output,
            ttmc_dense(small_tensor.to_dense(), small_factors, 0),
            rtol=1e-5,
            atol=1e-6,
        )

    def test_rejects_wrong_mode_encoding(self, small_tensor, small_factors):
        fcoo = FCOOTensor.from_sparse(small_tensor, "spttmc", 1)
        with pytest.raises(ValueError):
            unified_spttmc(fcoo, small_factors, 0)

    def test_empty_tensor(self):
        empty = SparseTensor.empty((3, 4, 5))
        factors = [np.ones((s, 2)) for s in (3, 4, 5)]
        result = unified_spttmc(empty, factors, 0)
        assert result.output.shape == (3, 4)
        assert (result.output == 0).all()
        # The footprint is the resident operands: the float32 product-mode
        # factors (4 x 2, 5 x 2) and the output unfolding (3 x 4).
        assert result.profile.device_memory_bytes == (4 * 2 + 5 * 2 + 3 * 4) * 4


class TestProfile:
    def test_profile_populated(self, small_tensor, small_factors):
        result = unified_spttmc(small_tensor, small_factors, 0)
        assert result.estimated_time_s > 0
        assert result.profile.counters.flops > 0

    def test_wider_output_costs_more(self, skewed_tensor):
        narrow = random_factors(skewed_tensor.shape, 2, seed=0)
        wide = random_factors(skewed_tensor.shape, 8, seed=0)
        t_narrow = unified_spttmc(skewed_tensor, narrow, 0).estimated_time_s
        t_wide = unified_spttmc(skewed_tensor, wide, 0).estimated_time_s
        assert t_wide > t_narrow
