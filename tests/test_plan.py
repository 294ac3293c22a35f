"""Plan/execute split: launches priced without numerics match executed ones.

The unified kernels' cost model reads only the F-COO encoding's index
structure, so :func:`repro.autotune.tune_unified` prices every sweep cell
through the kernels' plan functions and never runs value arithmetic.  These
properties pin that shortcut to the full path:

* the cost-only ``times_grid`` equals, bit for bit, a sweep that runs each
  cell's kernel with numerics (under both backends) and reads
  ``estimated_time_s`` — one-shot, forced-streamed and sharded cells alike,
  with ``inf`` on both sides for a configuration that does not fit;
* the distinct-row counts memoised on an encoding equal ``np.unique`` on
  whole encodings, streamed chunks and device shards.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autotune import tune_unified
from repro.backends.base import Backend
from repro.context import ExecContext
from repro.formats.fcoo import FCOOTensor
from repro.formats.mode_encoding import OperationKind
from repro.gpusim.cluster import ClusterSpec, PCIE3_P2P
from repro.gpusim.device import TITAN_X, scaled_device
from repro.gpusim.timing import OutOfDeviceMemory
from repro.kernels.unified import (
    partition_shards,
    run_unified,
    unified_spttm,
)
from repro.kernels.unified.sharded import partition_for_cluster
from repro.tensor.random import random_factors
from repro.tensor.sparse import SparseTensor

SETTINGS = settings()

BACKENDS = ("reference", "vectorized")
BLOCK_SIZES = (64, 256)
THREADLENS = (8, 16)
DEVICE_COUNTS = (1, 2, 4)
#: A device small enough that the drawn tensors overflow it one-shot.
SMALL_DEVICE = scaled_device(TITAN_X, 5e-7)
#: Stream counts whose chunk buffers outgrow the small device.
OOM_STREAMS = 4096


@st.composite
def sparse_tensors(draw, max_dim=12, max_nnz=200) -> SparseTensor:
    order = draw(st.integers(min_value=3, max_value=4))
    shape = tuple(draw(st.integers(min_value=1, max_value=max_dim)) for _ in range(order))
    nnz = draw(st.integers(min_value=1, max_value=max_nnz))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    indices = np.stack([rng.integers(0, s, size=nnz) for s in shape], axis=1)
    return SparseTensor(indices, rng.uniform(-2.0, 2.0, size=nnz), shape)


def executed_grid(
    tensor, operation, mode, rank, *, device, num_streams, chunk_sizes, streamed, backend
):
    """The sweep the tuner replaces: every cell runs the kernel with numerics."""
    factors = [np.asarray(f) for f in random_factors(tensor.shape, rank, seed=0)]
    grid = np.zeros(
        (len(BLOCK_SIZES), len(THREADLENS), len(num_streams), len(chunk_sizes), len(DEVICE_COUNTS))
    )
    for index in np.ndindex(grid.shape):
        i, j, s, c, d = index
        ctx = ExecContext(
            streamed=streamed,
            num_streams=num_streams[s],
            chunk_nnz=chunk_sizes[c],
            cluster=(
                None
                if DEVICE_COUNTS[d] == 1
                else ClusterSpec.homogeneous(device, DEVICE_COUNTS[d], interconnect=PCIE3_P2P)
            ),
            backend=backend,
        )
        try:
            result = run_unified(
                operation,
                tensor,
                factors,
                mode,
                device=device,
                block_size=BLOCK_SIZES[i],
                threadlen=THREADLENS[j],
                ctx=ctx,
            )
            grid[index] = result.estimated_time_s
        except OutOfDeviceMemory:
            grid[index] = np.inf
    return grid


def assert_cost_only_sweep_matches(tensor, operation, mode, rank, *, backend, **axes):
    planned = tune_unified(
        tensor,
        operation,
        mode,
        rank=rank,
        device=axes["device"],
        block_sizes=BLOCK_SIZES,
        threadlens=THREADLENS,
        num_streams=axes["num_streams"],
        chunk_sizes=axes["chunk_sizes"],
        device_counts=DEVICE_COUNTS,
        streamed=axes["streamed"],
    ).times_grid
    executed = executed_grid(tensor, operation, mode, rank, backend=backend, **axes)
    assert planned.tobytes() == executed.tobytes()
    return planned


@pytest.mark.parametrize("backend", BACKENDS)
class TestCostOnlySweep:
    @SETTINGS
    @given(
        tensor=sparse_tensors(),
        data=st.data(),
        operation=st.sampled_from(list(OperationKind)),
        rank=st.integers(min_value=1, max_value=4),
        streamed=st.sampled_from([None, True, False]),
        device=st.sampled_from([TITAN_X, SMALL_DEVICE]),
        num_streams=st.sampled_from([(2,), (1, 3), (2, OOM_STREAMS)]),
        chunk_sizes=st.sampled_from([(None,), (None, 16), (24, 64)]),
    )
    def test_times_grid_equals_executed_sweep(
        self, backend, tensor, data, operation, rank, streamed, device, num_streams, chunk_sizes
    ):
        mode = data.draw(st.integers(min_value=0, max_value=tensor.order - 1))
        assert_cost_only_sweep_matches(
            tensor,
            operation,
            mode,
            rank,
            backend=backend,
            device=device,
            num_streams=num_streams,
            chunk_sizes=chunk_sizes,
            streamed=streamed,
        )

    def test_covers_one_shot_streamed_sharded_and_infeasible_cells(self, backend):
        rng = np.random.default_rng(3)
        shape = (20, 30, 10)
        indices = np.stack([rng.integers(0, s, size=400) for s in shape], axis=1)
        tensor = SparseTensor(indices, rng.standard_normal(400), shape)
        # Auto on a roomy device: every single-device cell runs one-shot and
        # the multi-device cells shard.
        grid = assert_cost_only_sweep_matches(
            tensor, OperationKind.SPMTTKRP, 0, 4, backend=backend,
            device=TITAN_X, num_streams=(2,), chunk_sizes=(None,), streamed=None,
        )
        assert np.isfinite(grid).all()
        # Forced streaming over several stream counts and chunk sizes, with
        # a stream count whose chunk buffers cannot fit the small device.
        grid = assert_cost_only_sweep_matches(
            tensor, OperationKind.SPTTMC, 1, 3, backend=backend,
            device=SMALL_DEVICE, num_streams=(1, 3, OOM_STREAMS), chunk_sizes=(16, 48),
            streamed=True,
        )
        assert np.isfinite(grid[:, :, :2]).all()
        assert np.isinf(grid[:, :, 2]).all()
        assert len(np.unique(grid[:, :, :2])) > 1


def test_tuner_runs_no_backend_arithmetic(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the tuner must not run value arithmetic")

    arithmetic = (
        "segment_reduce",
        "slice_products",
        "kron_products",
        "hadamard_segment_sums",
        "kron_segment_sums",
    )
    for cls in (Backend, *Backend.__subclasses__()):
        for name in arithmetic:
            if name in vars(cls):
                monkeypatch.setattr(cls, name, forbidden)
    tensor = SparseTensor(np.array([[0, 1, 2], [1, 1, 0], [2, 0, 1]]), [1.0, 2.0, 3.0], (3, 3, 3))
    with pytest.raises(AssertionError, match="value arithmetic"):
        unified_spttm(tensor, np.ones((3, 2)), 0)
    for operation in OperationKind:
        result = tune_unified(
            tensor, operation, 0, rank=2, block_sizes=(64,), threadlens=(8,),
            device_counts=(1, 2), streamed=True,
        )
        assert np.isfinite(result.times_grid).all()


class TestEncodingInput:
    def test_encoding_and_sparse_tensor_sweep_alike(self):
        rng = np.random.default_rng(5)
        indices = np.stack([rng.integers(0, s, size=300) for s in (9, 14, 11)], axis=1)
        tensor = SparseTensor(indices, rng.standard_normal(300), (9, 14, 11))
        for operation in OperationKind:
            fcoo = FCOOTensor.from_sparse(tensor, operation, 2)
            kwargs = dict(rank=3, block_sizes=BLOCK_SIZES, threadlens=THREADLENS)
            a = tune_unified(tensor, operation, 2, **kwargs)
            b = tune_unified(fcoo, operation, 2, **kwargs)
            assert a.times_grid.tobytes() == b.times_grid.tobytes()
            assert b.mode == 2

    def test_mismatched_encoding_rejected(self):
        tensor = SparseTensor(np.array([[0, 1, 2], [1, 0, 1]]), [1.0, 2.0], (2, 2, 3))
        fcoo = FCOOTensor.from_sparse(tensor, OperationKind.SPTTM, 0)
        with pytest.raises(ValueError, match="encoded for"):
            tune_unified(fcoo, "spmttkrp", 0, rank=2)
        with pytest.raises(ValueError, match="encoded for"):
            tune_unified(fcoo, "spttm", 1, rank=2)


def unique_counts(fcoo: FCOOTensor):
    return tuple(
        int(np.unique(fcoo.product_indices[:, p]).size)
        for p in range(fcoo.product_indices.shape[1])
    )


class TestDistinctRowMemo:
    @SETTINGS
    @given(
        tensor=sparse_tensors(),
        data=st.data(),
        operation=st.sampled_from(list(OperationKind)),
        threadlen=st.sampled_from([1, 4, 8]),
        chunk_parts=st.integers(min_value=1, max_value=6),
        num_shards=st.integers(min_value=1, max_value=5),
    )
    def test_memo_equals_unique_on_encodings_chunks_and_shards(
        self, tensor, data, operation, threadlen, chunk_parts, num_shards
    ):
        mode = data.draw(st.integers(min_value=0, max_value=tensor.order - 1))
        fcoo = FCOOTensor.from_sparse(tensor, operation, mode)
        pieces = [fcoo]
        pieces += [c.tensor for c in fcoo.chunk(chunk_parts * threadlen, threadlen=threadlen)]
        pieces += [c.tensor for c in partition_shards(fcoo, num_shards, threadlen=threadlen)]
        weights = data.draw(
            st.lists(
                st.floats(min_value=0.1, max_value=4.0), min_size=num_shards, max_size=num_shards
            )
        )
        pieces += [
            c.tensor
            for c in partition_shards(fcoo, num_shards, threadlen=threadlen, weights=weights)
        ]
        cluster = ClusterSpec.homogeneous(TITAN_X, num_shards)
        pieces += [c.tensor for c in partition_for_cluster(fcoo, cluster, threadlen=threadlen)]
        for piece in pieces:
            counts = piece.distinct_product_rows
            assert counts == unique_counts(piece)
            assert piece.distinct_product_rows is counts  # memoised, not recounted

    def test_empty_encoding_counts_zero(self):
        fcoo = FCOOTensor.from_sparse(SparseTensor.empty((3, 4, 5)), OperationKind.SPMTTKRP, 1)
        assert fcoo.distinct_product_rows == (0, 0)
