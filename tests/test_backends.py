"""The backend bit-identity harness.

Every numeric-execution backend must be byte-identical — same dtype, same
shape, same bytes, so the sign of zero counts — to the reference backend
on every input.  The Hypothesis sweeps here drive the three unified
kernels through the one-shot, chunked (streamed) and sharded topologies
under both backends and compare bytes, plus the primitive-level
reductions (1-D/2-D, empty segments, single non-zero, unsorted ids,
signed zeros, inputs spanning several reduction blocks) and the
``ExecContext(backend=...)`` / ``REPRO_BACKEND`` selection plumbing.
"""

from typing import Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import (
    BACKEND_ENV_VAR,
    BACKENDS,
    Backend,
    ReferenceBackend,
    VectorizedBackend,
    available_backends,
    get_backend,
)
from repro.backends.vectorized import _BLOCK_ELEMENTS, _self_check
from repro.context import ExecContext
from repro.gpusim.scan import segment_reduce
from repro.kernels.unified import unified_spmttkrp, unified_spttm, unified_spttmc
from repro.tensor.sparse import SparseTensor

SETTINGS = settings()

REF = ReferenceBackend()
VEC = VectorizedBackend()


def assert_bytes_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    """Byte-level identity: ``np.array_equal`` treats -0.0 == +0.0, this
    does not."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype, (actual.dtype, expected.dtype)
    assert actual.shape == expected.shape, (actual.shape, expected.shape)
    assert actual.tobytes() == expected.tobytes(), "arrays differ in their bytes"


# ---------------------------------------------------------------------- #
# Strategies
# ---------------------------------------------------------------------- #
@st.composite
def sparse_tensors(draw, max_dim=8, max_order=4, max_nnz=60) -> SparseTensor:
    order = draw(st.integers(min_value=2, max_value=max_order))
    shape = tuple(
        draw(st.integers(min_value=1, max_value=max_dim)) for _ in range(order)
    )
    nnz = draw(st.integers(min_value=1, max_value=max_nnz))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    indices = np.stack([rng.integers(0, s, size=nnz) for s in shape], axis=1)
    values = rng.uniform(0.25, 2.0, size=nnz)
    return SparseTensor(indices, values, shape)


@st.composite
def tensors_with_mode(draw) -> Tuple[SparseTensor, int]:
    tensor = draw(sparse_tensors())
    mode = draw(st.integers(min_value=0, max_value=tensor.order - 1))
    return tensor, mode


@st.composite
def segmented_values(draw):
    """(values, sorted segment_ids, num_segments) with empty segments."""
    n = draw(st.integers(min_value=0, max_value=80))
    num_segments = draw(st.integers(min_value=1, max_value=20))
    width = draw(st.integers(min_value=0, max_value=6))  # 0 -> 1-D values
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    segment_ids = np.sort(rng.integers(0, num_segments, size=n))
    values = (
        rng.standard_normal(n) if width == 0 else rng.standard_normal((n, width))
    )
    return values, segment_ids, num_segments


def make_factors(tensor: SparseTensor, rank: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    return [rng.uniform(0.1, 1.0, size=(s, rank)) for s in tensor.shape]


# ---------------------------------------------------------------------- #
# Primitive-level identity
# ---------------------------------------------------------------------- #
class TestSegmentReduceIdentity:
    @SETTINGS
    @given(segmented_values())
    def test_bit_identity_with_canonical_reduce(self, case):
        values, segment_ids, num_segments = case
        expected = segment_reduce(values, segment_ids, num_segments)
        assert_bytes_equal(
            VEC.segment_reduce(values, segment_ids, num_segments), expected
        )
        assert_bytes_equal(
            REF.segment_reduce(values, segment_ids, num_segments), expected
        )

    def test_single_nnz(self):
        values = np.array([[3.5, -1.25]])
        out = VEC.segment_reduce(values, np.array([2]), 5)
        expected = np.zeros((5, 2))
        expected[2] = values[0]
        assert_bytes_equal(out, expected)

    def test_all_segments_empty(self):
        out = VEC.segment_reduce(np.zeros((0, 3)), np.zeros(0, dtype=np.int64), 4)
        assert_bytes_equal(out, np.zeros((4, 3)))

    def test_unsorted_ids_identity(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((50, 4))
        segment_ids = rng.integers(0, 7, size=50)  # deliberately unsorted
        assert_bytes_equal(
            VEC.segment_reduce(values, segment_ids, 7),
            segment_reduce(values, segment_ids, 7),
        )

    def test_skewed_segments_identity(self):
        # One giant segment next to many singletons.
        rng = np.random.default_rng(1)
        segment_ids = np.sort(np.r_[np.zeros(500, dtype=np.int64), np.arange(1, 40)])
        values = rng.standard_normal((segment_ids.size, 3))
        assert_bytes_equal(
            VEC.segment_reduce(values, segment_ids, 40),
            segment_reduce(values, segment_ids, 40),
        )

    def test_self_check_probe(self):
        assert _self_check() is None

    def test_signed_zero_sums_to_positive_zero(self):
        # Every output cell starts at +0.0, and +0.0 + -0.0 == +0.0: a cell
        # whose only addends are negative zeros must come out +0.0.
        values = np.array([[-0.0, 1.0], [2.0, -0.0]])
        segment_ids = np.array([0, 1])
        expected = np.array([[0.0, 1.0], [2.0, 0.0]])
        assert_bytes_equal(REF.segment_reduce(values, segment_ids, 2), expected)
        assert_bytes_equal(VEC.segment_reduce(values, segment_ids, 2), expected)
        assert_bytes_equal(
            VEC.segment_reduce(values[:, 0], segment_ids, 2), expected[:, 0]
        )
        vals = np.array([-0.0, 2.0])
        mats = [np.ones((2, 2))]
        rows = [np.array([0, 1])]
        for name in ("hadamard_segment_sums", "kron_segment_sums"):
            assert_bytes_equal(
                getattr(VEC, name)(vals, mats, rows, segment_ids, 2),
                getattr(REF, name)(vals, mats, rows, segment_ids, 2),
            )

    @SETTINGS
    @given(segmented_values(), st.integers(min_value=1, max_value=3))
    def test_fused_hadamard_identity(self, case, num_mats):
        values, segment_ids, num_segments = case
        if values.ndim != 1:
            values = values[:, 0] if values.shape[1] else np.zeros(len(segment_ids))
        rng = np.random.default_rng(7)
        mats = [rng.standard_normal((10, 4)) for _ in range(num_mats)]
        rows = [rng.integers(0, 10, size=values.shape[0]) for _ in range(num_mats)]
        assert_bytes_equal(
            VEC.hadamard_segment_sums(values, mats, rows, segment_ids, num_segments),
            REF.hadamard_segment_sums(values, mats, rows, segment_ids, num_segments),
        )

    @SETTINGS
    @given(segmented_values(), st.integers(min_value=1, max_value=3))
    def test_kron_identity(self, case, num_mats):
        values, segment_ids, num_segments = case
        if values.ndim != 1:
            values = values[:, 0] if values.shape[1] else np.zeros(len(segment_ids))
        rng = np.random.default_rng(9)
        mats = [rng.standard_normal((8, 3)) for _ in range(num_mats)]
        rows = [rng.integers(0, 8, size=values.shape[0]) for _ in range(num_mats)]
        assert_bytes_equal(
            VEC.kron_segment_sums(values, mats, rows, segment_ids, num_segments),
            REF.kron_segment_sums(values, mats, rows, segment_ids, num_segments),
        )

    def test_dense_hadamard_identity(self):
        rng = np.random.default_rng(3)
        grams = [rng.standard_normal((6, 6)) for _ in range(4)]
        assert_bytes_equal(VEC.dense_hadamard(grams, 6), REF.dense_hadamard(grams, 6))
        assert_bytes_equal(VEC.dense_hadamard([], 6), REF.dense_hadamard([], 6))


# ---------------------------------------------------------------------- #
# Inputs spanning several reduction blocks
# ---------------------------------------------------------------------- #
def multi_block_segments(width: int, unsorted: bool):
    """About three blocks' worth of segment ids for partials of ``width``:
    power-law segment lengths, one segment straddling the first block edge,
    optionally shuffled.  Returns ``(segment_ids, num_segments, rng)``."""
    step = _BLOCK_ELEMENTS // width
    n = 3 * step + 7
    rng = np.random.default_rng(width)
    lengths = np.minimum(rng.zipf(1.5, size=n), step)
    lengths = lengths[: int(np.searchsorted(np.cumsum(lengths), n)) + 1]
    segment_ids = np.repeat(np.arange(lengths.size), lengths)[:n]
    segment_ids[step - 64 : step + 64] = segment_ids[step - 64]
    if unsorted:
        segment_ids = rng.permutation(segment_ids)
    return segment_ids, int(segment_ids.max()) + 2, rng


def signed_normal(rng, shape) -> np.ndarray:
    """Standard normals with about a tenth of the entries set to -0.0."""
    values = rng.standard_normal(shape)
    values[rng.random(shape) < 0.1] = -0.0
    return values


@pytest.mark.parametrize("unsorted", [False, True], ids=["sorted", "unsorted"])
@pytest.mark.parametrize("width", [1, 16, 64])
class TestMultiBlockIdentity:
    def test_segment_reduce(self, width, unsorted):
        segment_ids, num_segments, rng = multi_block_segments(width, unsorted)
        n = segment_ids.size
        assert n > 2 * (_BLOCK_ELEMENTS // width)
        values = signed_normal(rng, n if width == 1 else (n, width))
        assert_bytes_equal(
            VEC.segment_reduce(values, segment_ids, num_segments),
            REF.segment_reduce(values, segment_ids, num_segments),
        )

    def test_hadamard_segment_sums(self, width, unsorted):
        segment_ids, num_segments, rng = multi_block_segments(width, unsorted)
        n = segment_ids.size
        values = signed_normal(rng, n)
        mats = [signed_normal(rng, (30, width)) for _ in range(2)]
        rows = [rng.integers(0, 30, size=n) for _ in mats]
        assert_bytes_equal(
            VEC.hadamard_segment_sums(values, mats, rows, segment_ids, num_segments),
            REF.hadamard_segment_sums(values, mats, rows, segment_ids, num_segments),
        )

    def test_kron_segment_sums(self, width, unsorted):
        segment_ids, num_segments, rng = multi_block_segments(width, unsorted)
        n = segment_ids.size
        side = int(np.sqrt(width))
        values = signed_normal(rng, n)
        mats = [signed_normal(rng, (30, side)) for _ in range(2)]
        rows = [rng.integers(0, 30, size=n) for _ in mats]
        assert_bytes_equal(
            VEC.kron_segment_sums(values, mats, rows, segment_ids, num_segments),
            REF.kron_segment_sums(values, mats, rows, segment_ids, num_segments),
        )


# ---------------------------------------------------------------------- #
# Kernel-level identity across topologies
# ---------------------------------------------------------------------- #
# The backend contract is per-topology: swapping the backend under a fixed
# execution shape must not change a single bit.  (The topologies themselves
# are NOT bit-identical to each other — the streamed merge re-associates
# sums across chunk boundaries — so each topology is compared against the
# reference backend under the SAME topology.)
TOPOLOGIES = (
    {},
    {"streamed": True, "chunk_nnz": 16},
    {"devices": 2},
)


def _backend_pair(topology):
    return (
        ExecContext(backend="reference", **topology),
        ExecContext(backend="vectorized", **topology),
    )


class TestKernelIdentity:
    @SETTINGS
    @given(tensors_with_mode(), st.integers(min_value=1, max_value=6))
    def test_spmttkrp_identity_across_topologies(self, tensor_mode, rank):
        tensor, mode = tensor_mode
        factors = make_factors(tensor, rank)
        for topology in TOPOLOGIES:
            ref_ctx, vec_ctx = _backend_pair(topology)
            reference = unified_spmttkrp(tensor, factors, mode, ctx=ref_ctx).output
            out = unified_spmttkrp(tensor, factors, mode, ctx=vec_ctx).output
            assert_bytes_equal(out, reference)

    @SETTINGS
    @given(tensors_with_mode(), st.integers(min_value=1, max_value=6))
    def test_spttm_identity_across_topologies(self, tensor_mode, rank):
        tensor, mode = tensor_mode
        matrix = make_factors(tensor, rank)[mode]
        for topology in TOPOLOGIES:
            ref_ctx, vec_ctx = _backend_pair(topology)
            reference = unified_spttm(tensor, matrix, mode, ctx=ref_ctx).output
            out = unified_spttm(tensor, matrix, mode, ctx=vec_ctx).output
            assert_bytes_equal(out.fiber_values, reference.fiber_values)
            assert_bytes_equal(out.fiber_coords, reference.fiber_coords)

    @SETTINGS
    @given(tensors_with_mode(), st.integers(min_value=1, max_value=4))
    def test_spttmc_identity_across_topologies(self, tensor_mode, rank):
        tensor, mode = tensor_mode
        factors = make_factors(tensor, rank)
        for topology in TOPOLOGIES:
            ref_ctx, vec_ctx = _backend_pair(topology)
            reference = unified_spttmc(tensor, factors, mode, ctx=ref_ctx).output
            out = unified_spttmc(tensor, factors, mode, ctx=vec_ctx).output
            assert_bytes_equal(out, reference)

    def test_decomposition_identity(self):
        from repro.algorithms.cp import cp_als
        from repro.algorithms.tucker import tucker_hooi
        from repro.tensor.random import random_sparse_tensor

        tensor = random_sparse_tensor((40, 12, 10), 300, seed=5)
        runs = {
            name: cp_als(
                tensor, 4, max_iterations=2, compute_fit=False, seed=3,
                ctx=ExecContext(backend=name),
            )
            for name in ("reference", "vectorized")
        }
        for a, b in zip(runs["reference"].factors, runs["vectorized"].factors):
            assert_bytes_equal(a, b)
        assert_bytes_equal(runs["reference"].weights, runs["vectorized"].weights)

        tuckers = {
            name: tucker_hooi(
                tensor, (3, 3, 3), max_iterations=1, seed=3,
                ctx=ExecContext(backend=name),
            )
            for name in ("reference", "vectorized")
        }
        for a, b in zip(tuckers["reference"].factors, tuckers["vectorized"].factors):
            assert_bytes_equal(a, b)
        assert_bytes_equal(tuckers["reference"].core, tuckers["vectorized"].core)


# ---------------------------------------------------------------------- #
# Selection plumbing
# ---------------------------------------------------------------------- #
class TestBackendSelection:
    def test_registry_contents(self):
        assert available_backends() == ("reference", "vectorized")
        assert isinstance(BACKENDS["reference"], ReferenceBackend)
        assert isinstance(BACKENDS["vectorized"], VectorizedBackend)

    def test_get_backend_resolution(self):
        assert get_backend("vectorized") is BACKENDS["vectorized"]
        instance = VectorizedBackend()
        assert get_backend(instance) is instance

    def test_get_backend_env_default(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert get_backend(None).name == "vectorized"
        monkeypatch.setenv(BACKEND_ENV_VAR, "reference")
        assert get_backend(None).name == "reference"
        monkeypatch.setenv(BACKEND_ENV_VAR, "")  # empty -> default
        assert get_backend(None).name == "vectorized"

    def test_get_backend_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("gpu")
        with pytest.raises(TypeError):
            get_backend(42)

    def test_context_validates_backend_eagerly(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ExecContext(backend="typo")
        assert ExecContext(backend="vectorized").backend == "vectorized"
        instance = ReferenceBackend()
        assert ExecContext(backend=instance).backend is instance

    def test_context_threads_backend_into_kernels(self, monkeypatch):
        """An explicit ctx backend wins over the environment default."""
        from repro.tensor.random import random_sparse_tensor

        calls = []
        original = VectorizedBackend.hadamard_segment_sums

        def spy(self, *args, **kwargs):
            calls.append(self.name)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(VectorizedBackend, "hadamard_segment_sums", spy)
        monkeypatch.setenv(BACKEND_ENV_VAR, "reference")
        tensor = random_sparse_tensor((8, 6, 5), 40, seed=0)
        factors = make_factors(tensor, 3)
        unified_spmttkrp(tensor, factors, 0, ctx=ExecContext(backend="vectorized"))
        assert calls, "ctx backend did not reach the kernel numeric core"

    def test_abstract_backend_is_abstract(self):
        backend = Backend()
        with pytest.raises(NotImplementedError):
            backend.segment_reduce(np.zeros(1), np.zeros(1, dtype=int), 1)
        with pytest.raises(NotImplementedError):
            backend.slice_products(np.zeros(1), [], [])
        with pytest.raises(NotImplementedError):
            backend.dense_hadamard([], 1)
