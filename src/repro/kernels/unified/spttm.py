"""Unified SpTTM: sparse tensor-times-matrix on the F-COO format.

Computes ``Y = X ×_mode U`` (paper Equation 3) where ``X`` is sparse and
``U`` dense.  The result is semi-sparse: one dense fiber of length ``R`` per
non-empty fiber of ``X`` along ``mode``.

Algorithm (paper Section IV-D, Figure 4):

* the tensor is F-COO encoded for SpTTM on ``mode`` — product-mode indices
  (``mode`` itself) stored, the other modes compressed to the bit-flag;
* every thread takes ``threadlen`` consecutive non-zeros and multiplies each
  value by the factor row ``U[k, :]`` fetched through the read-only cache;
* a segmented scan over the bit-flags reduces the partial fibers, and the
  per-fiber results are written out coalesced;
* everything runs in one fused kernel launch — no intermediate data.

Tensors whose F-COO footprint exceeds device memory execute out-of-core via
:mod:`repro.kernels.unified.streaming` (automatically, or on request with
``streamed=True``): the non-zero stream is chunked on ``threadlen``-aligned
boundaries, the per-chunk fiber partials merge by global segment id, and the
cost model overlaps each chunk's PCIe copy with the previous chunk's kernel.
"""

from __future__ import annotations

from typing import Any, Optional, Union

import numpy as np

from repro.backends import Backend, get_backend
from repro.context import UNSET, ExecContext, resolve_context
from repro.formats.fcoo import FCOOTensor
from repro.formats.mode_encoding import OperationKind
from repro.formats.semisparse import SemiSparseTensor
from repro.gpusim.counters import KernelProfile
from repro.gpusim.device import DeviceSpec, TITAN_X
from repro.gpusim.launch import LaunchConfig
from repro.gpusim.timing import profile_from_counters
from repro.kernels.common import SpTTMResult, validate_factor
from repro.kernels.unified._model import unified_kernel_counters
from repro.kernels.unified.plan import (
    UnifiedCost,
    encode_for,
    plan_unified,
    unified_segment_sums,
)
from repro.obs.metrics import observe_kernel_profile
from repro.tensor.sparse import SparseTensor

__all__ = ["unified_spttm", "plan_spttm"]


def _fiber_values(fcoo: FCOOTensor, matrix: np.ndarray, backend: Backend) -> np.ndarray:
    """Numeric core: per-fiber sums of ``value * U[k, :]``."""
    product_idx = fcoo.product_mode_indices(0).astype(np.int64)
    return backend.hadamard_segment_sums(
        fcoo.values, [matrix], [product_idx], fcoo.segment_ids, fcoo.num_segments
    )


def plan_spttm(
    fcoo: FCOOTensor,
    rank: int,
    *,
    device: DeviceSpec = TITAN_X,
    block_size: int = 128,
    threadlen: int = 8,
    fused: bool = True,
    ctx: Optional[ExecContext] = None,
) -> KernelProfile:
    """The profile :func:`unified_spttm` reports for ``fcoo`` and a rank-``rank``
    factor, priced without any value arithmetic (see
    :mod:`repro.kernels.unified.plan`)."""
    ctx = ctx if ctx is not None else ExecContext()
    name = f"unified-spttm-mode{fcoo.mode}"
    if fcoo.nnz == 0:
        launch = LaunchConfig(block_size=block_size, grid_x=1, grid_y=rank, threadlen=threadlen)
        counters = unified_kernel_counters(fcoo, rank, 0, rank, launch, device, fused=fused)
        return profile_from_counters(name, counters, launch, device)
    num_segments = fcoo.num_segments
    cost = UnifiedCost(
        name=name,
        rank=rank,
        output_width=rank,
        flops_per_nnz_per_column=2.0,
        factor_bytes=fcoo.shape[fcoo.mode] * rank * 4.0,
        output_bytes=num_segments * rank * 4.0 + num_segments * (fcoo.order - 1) * 4.0,
        # The semi-sparse output stays partitioned across the devices (the
        # next pipeline stage consumes it in place); only the fibers
        # straddling a shard boundary exchange with a neighbour.
        reduction="boundary",
    )
    return plan_unified(
        fcoo,
        cost,
        device=device,
        block_size=block_size,
        threadlen=threadlen,
        fused=fused,
        ctx=ctx,
    )


def unified_spttm(
    tensor: Union[SparseTensor, FCOOTensor],
    matrix: np.ndarray,
    mode: int,
    *,
    device: DeviceSpec = TITAN_X,
    block_size: int = 128,
    threadlen: int = 8,
    fused: bool = True,
    streamed: Any = UNSET,
    num_streams: Any = UNSET,
    chunk_nnz: Any = UNSET,
    cluster: Any = UNSET,
    devices: Any = UNSET,
    ctx: Optional[ExecContext] = None,
) -> SpTTMResult:
    """Compute SpTTM with the unified F-COO algorithm on the simulated GPU.

    Parameters
    ----------
    tensor:
        The sparse input, either as a :class:`SparseTensor` (encoded
        on the fly) or as an :class:`FCOOTensor` already encoded for SpTTM
        on ``mode`` (the CP/Tucker drivers pre-encode once per mode).
    matrix:
        Dense factor ``U`` of shape ``(I_mode, R)``.
    mode:
        Product mode (0-based).
    device:
        Simulated GPU.
    block_size, threadlen:
        The tunable launch parameters of Figure 5 / Table V.
    fused:
        Keep the product/scan/accumulate stages in one kernel (the unified
        default); ``False`` models the unfused variant for the ablation
        benchmark.
    ctx:
        The :class:`~repro.context.ExecContext` carrying the execution
        controls described below.
    streamed:
        ``None`` (default) auto-selects: one-shot when the operands fit in
        device memory, out-of-core streaming otherwise.  ``True`` forces
        streaming, ``False`` forces one-shot (raising
        :class:`~repro.gpusim.timing.OutOfDeviceMemory` when it does not
        fit).  An empty tensor always takes the one-shot path.
    num_streams:
        CUDA streams (in-flight chunk buffers) for the streamed path; 1
        disables the transfer/compute overlap.
    chunk_nnz:
        Non-zeros per streamed chunk (must be at least ``threadlen``;
        rounded down to a ``threadlen`` multiple); ``None`` sizes chunks to
        fill the device memory budget.
    cluster:
        Optional :class:`~repro.gpusim.cluster.ClusterSpec` or
        :class:`~repro.gpusim.cluster.MultiNodeClusterSpec`: the non-zero
        stream shards across its devices on ``threadlen``-aligned
        boundaries, each shard runs on its own device (falling back to the
        streamed path per-device when it does not fit); the semi-sparse
        output stays partitioned across the devices and only the fibers
        straddling a shard boundary exchange with a neighbour
        (``profile.sharded`` carries the per-device ledger).
    devices:
        Shorthand for ``cluster``: a device count > 1 builds a homogeneous
        cluster of ``device``.  Mutually consistent with ``cluster``.

    ``streamed`` / ``num_streams`` / ``chunk_nnz`` / ``cluster`` /
    ``devices`` as direct kwargs are deprecated aliases for the matching
    ``ctx`` fields: still honored (they override ``ctx``) but each warns
    once.

    Returns
    -------
    SpTTMResult
        The semi-sparse result and the simulated kernel profile
        (``profile.streaming`` holds the per-chunk ledger on the streamed
        path).
    """
    ctx = resolve_context(
        "unified_spttm",
        ctx,
        streamed=streamed,
        num_streams=num_streams,
        chunk_nnz=chunk_nnz,
        cluster=cluster,
        devices=devices,
    )
    backend_impl = get_backend(ctx.backend)
    fcoo = encode_for(tensor, OperationKind.SPTTM, mode)
    matrix = validate_factor(matrix, fcoo.shape[fcoo.mode], "matrix")
    rank = matrix.shape[1]
    profile = plan_spttm(
        fcoo,
        rank,
        device=device,
        block_size=block_size,
        threadlen=threadlen,
        fused=fused,
        ctx=ctx,
    )

    out_shape = list(fcoo.shape)
    out_shape[fcoo.mode] = rank
    if fcoo.nnz:
        fiber_coords = fcoo.segment_index_coords
        fiber_values = unified_segment_sums(
            fcoo, lambda chunk: _fiber_values(chunk, matrix, backend_impl), profile
        )
    else:
        fiber_coords = np.empty((0, fcoo.order - 1), dtype=np.int64)
        fiber_values = np.empty((0, rank), dtype=np.float64)
    output = SemiSparseTensor(
        shape=tuple(out_shape),
        dense_mode=fcoo.mode,
        fiber_coords=fiber_coords,
        fiber_values=fiber_values,
    )
    if ctx.metrics is not None:
        observe_kernel_profile(ctx.metrics, kernel="spttm", nnz=fcoo.nnz, profile=profile)
    return SpTTMResult(output=output, profile=profile)
