"""Tests for the coalescing and read-only cache models."""

import numpy as np
import pytest

from repro.gpusim.device import TITAN_X
from repro.gpusim.memory import AccessPattern, coalesced_traffic_bytes, readonly_cache_traffic


class TestCoalescing:
    def test_coalesced_is_exact(self):
        assert coalesced_traffic_bytes(1000, 4, AccessPattern.COALESCED, TITAN_X) == 4000

    def test_random_short_runs_waste_bandwidth(self):
        useful = 1000 * 4
        random = coalesced_traffic_bytes(
            1000, 4, AccessPattern.RANDOM, TITAN_X, contiguous_run_bytes=4
        )
        assert random > useful
        # A 4-byte gather costs a whole 32-byte sector.
        assert random == pytest.approx(1000 * 32)

    def test_random_long_runs_amortise(self):
        long_run = coalesced_traffic_bytes(
            1000, 4, AccessPattern.RANDOM, TITAN_X, contiguous_run_bytes=1024
        )
        assert long_run == pytest.approx(1000 * 4, rel=0.1)

    def test_strided_penalty_grows_then_saturates(self):
        s2 = coalesced_traffic_bytes(100, 4, AccessPattern.STRIDED, TITAN_X, stride_elements=2)
        s8 = coalesced_traffic_bytes(100, 4, AccessPattern.STRIDED, TITAN_X, stride_elements=8)
        s1000 = coalesced_traffic_bytes(
            100, 4, AccessPattern.STRIDED, TITAN_X, stride_elements=1000
        )
        assert 400 < s2 < s8 <= s1000
        assert s1000 == pytest.approx(100 * 128)  # capped at one line per access

    def test_never_less_than_useful(self):
        for pattern in AccessPattern:
            got = coalesced_traffic_bytes(
                500, 8, pattern, TITAN_X, stride_elements=2, contiguous_run_bytes=8
            )
            assert got >= 500 * 8 - 1e-9

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            coalesced_traffic_bytes(-1, 4, AccessPattern.COALESCED, TITAN_X)
        with pytest.raises(ValueError):
            coalesced_traffic_bytes(10, 0, AccessPattern.COALESCED, TITAN_X)
        with pytest.raises(ValueError):
            coalesced_traffic_bytes(10, 4, AccessPattern.STRIDED, TITAN_X, stride_elements=0.5)


def _stream_traffic(rows, row_bytes, device, **kwargs):
    """Price a materialised row stream through the count-based model."""
    rows = np.asarray(rows)
    return readonly_cache_traffic(
        rows.size, np.unique(rows).size, row_bytes, device, **kwargs
    )


class TestReadOnlyCache:
    def test_small_working_set_hits(self):
        # 10 distinct rows of 64 B each reused 1000x: only compulsory misses.
        rows = np.tile(np.arange(10), 1000)
        traffic = _stream_traffic(rows, 64.0, TITAN_X)
        assert traffic.misses == pytest.approx(10)
        assert traffic.hit_rate > 0.99

    def test_huge_working_set_misses(self):
        rows = np.arange(500_000)  # every access distinct
        traffic = _stream_traffic(rows, 64.0, TITAN_X)
        assert traffic.hit_rate == pytest.approx(0.0, abs=1e-9)
        assert traffic.dram_bytes >= 500_000 * 64

    def test_intermediate_working_set(self):
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 100_000, size=300_000)
        traffic = _stream_traffic(rows, 64.0, TITAN_X)
        assert 0.0 < traffic.hit_rate < 1.0

    def test_monotone_in_working_set(self):
        rng = np.random.default_rng(1)
        small = _stream_traffic(rng.integers(0, 1_000, 100_000), 64.0, TITAN_X)
        large = _stream_traffic(rng.integers(0, 1_000_000, 100_000), 64.0, TITAN_X)
        assert large.hit_rate < small.hit_rate
        assert large.dram_bytes > small.dram_bytes

    def test_custom_cache_size(self):
        rows = np.tile(np.arange(1000), 10)
        big_cache = _stream_traffic(rows, 64.0, TITAN_X, cache_bytes=1e9)
        small_cache = _stream_traffic(rows, 64.0, TITAN_X, cache_bytes=1e3)
        assert big_cache.misses < small_cache.misses

    def test_empty_stream(self):
        traffic = _stream_traffic(np.empty(0, dtype=np.int64), 64.0, TITAN_X)
        assert traffic.accesses == 0
        assert traffic.dram_bytes == 0.0

    def test_invalid_row_bytes(self):
        with pytest.raises(ValueError):
            _stream_traffic(np.arange(5), 0.0, TITAN_X)

    @pytest.mark.parametrize("accesses, distinct", [(5, 6), (5, 0), (0, 1), (5, -1)])
    def test_inconsistent_counts_rejected(self, accesses, distinct):
        with pytest.raises(ValueError, match="distinct_rows"):
            readonly_cache_traffic(accesses, distinct, 64.0, TITAN_X)
