"""Unified one-shot SpMTTKRP on the F-COO format (paper Sections IV-B/C/D).

Computes, for a third-order tensor and ``mode = 0`` (the paper's mode-1),

``M(i, :) = Σ_j Σ_k X(i, j, k) · (B(j, :) ∗ C(k, :))``

directly on the non-zeros (one-shot, Figure 3b): each non-zero gathers one
row from every product-mode factor through the read-only cache, forms their
Hadamard product scaled by the value, and a segmented scan over the F-COO
bit-flags reduces the contributions of each output slice without atomic
updates.  The implementation generalises to any order (the Hadamard product
simply runs over all product modes) and any target mode.

When the operands exceed device memory the kernel falls back to (or is
forced onto, via ``ctx=ExecContext(streamed=True)``) the out-of-core path
of :mod:`repro.kernels.unified.streaming`: the non-zero stream is chunked
on ``threadlen``-aligned boundaries, chunks are pipelined through PCIe on
``ctx.num_streams`` CUDA streams, and the per-chunk slice sums merge into the
same output the one-shot kernel produces.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.backends import Backend, get_backend
from repro.context import DEFAULT_CONTEXT, ExecContext
from repro.formats.fcoo import FCOOTensor
from repro.formats.mode_encoding import OperationKind
from repro.gpusim.counters import KernelProfile
from repro.gpusim.device import DeviceSpec, TITAN_X
from repro.kernels.common import MTTKRPResult, validate_factor
from repro.kernels.unified.plan import (
    UnifiedCost,
    encode_for,
    plan_unified,
    unified_segment_sums,
)
from repro.obs.metrics import observe_kernel_profile
from repro.tensor.sparse import SparseTensor

__all__ = ["unified_spmttkrp", "plan_spmttkrp", "spmttkrp_footprint"]


def _cost(fcoo: FCOOTensor, rank: int) -> UnifiedCost:
    shape = fcoo.shape
    product_modes = fcoo.roles.product_modes
    return UnifiedCost(
        name=f"unified-spmttkrp-mode{fcoo.mode}",
        rank=rank,
        output_width=rank,
        # Hadamard across P product modes costs P multiplies per column plus
        # the segmented add: charge 2 + (P - 1) FLOPs per non-zero per column.
        flops_per_nnz_per_column=2.0 + (len(product_modes) - 1),
        factor_bytes=sum(shape[m] * rank * 4.0 for m in product_modes),
        output_bytes=shape[fcoo.mode] * rank * 4.0,
    )


def spmttkrp_footprint(
    fcoo: FCOOTensor,
    rank: int,
    *,
    block_size: int = 128,
    threadlen: int = 8,
) -> Tuple[float, float]:
    """One-shot device footprint of :func:`unified_spmttkrp`.

    Returns ``(footprint_bytes, resident_bytes)`` where ``resident_bytes``
    is the factor-matrix + output portion that stays on the device even on
    the streamed path.  Shared with :class:`repro.algorithms.cp.UnifiedGPUEngine`
    so the engine's transfer accounting uses the exact numbers the kernel's
    streamed/one-shot decision uses.
    """
    cost = _cost(fcoo, rank)
    footprint = cost.footprint(fcoo, block_size=block_size, threadlen=threadlen)
    return footprint, cost.resident_bytes


def plan_spmttkrp(
    fcoo: FCOOTensor,
    rank: int,
    *,
    device: DeviceSpec = TITAN_X,
    block_size: int = 128,
    threadlen: int = 8,
    fused: bool = True,
    ctx: Optional[ExecContext] = None,
) -> KernelProfile:
    """The profile :func:`unified_spmttkrp` reports for ``fcoo`` and rank-``rank``
    factors, priced without any value arithmetic (see
    :mod:`repro.kernels.unified.plan`)."""
    return plan_unified(
        fcoo,
        _cost(fcoo, rank),
        device=device,
        block_size=block_size,
        threadlen=threadlen,
        fused=fused,
        ctx=ctx if ctx is not None else DEFAULT_CONTEXT,
    )


def _slice_sums(
    fcoo: FCOOTensor, mats: Sequence[np.ndarray], backend: Backend
) -> np.ndarray:
    """Numeric core: per-slice Hadamard sums."""
    row_streams = [
        fcoo.product_mode_indices(pos).astype(np.int64) for pos in range(len(mats))
    ]
    return backend.hadamard_segment_sums(
        fcoo.values, mats, row_streams, fcoo.segment_ids, fcoo.num_segments
    )


def unified_spmttkrp(
    tensor: Union[SparseTensor, FCOOTensor],
    factors: Sequence[np.ndarray],
    mode: int,
    *,
    device: DeviceSpec = TITAN_X,
    block_size: int = 128,
    threadlen: int = 8,
    fused: bool = True,
    ctx: Optional[ExecContext] = None,
) -> MTTKRPResult:
    """Compute MTTKRP with the unified F-COO algorithm.

    Parameters
    ----------
    tensor:
        The sparse input, either a :class:`SparseTensor` or an
        :class:`FCOOTensor` already encoded for SpMTTKRP on ``mode``.
    factors:
        One dense factor matrix per tensor mode (shape ``(I_m, R)``); the
        entry at ``mode`` is ignored (it is the one being recomputed in
        CP-ALS).
    mode:
        Output mode (0-based).
    device, block_size, threadlen, fused:
        As in :func:`repro.kernels.unified.spttm.unified_spttm`.
    ctx:
        The :class:`~repro.context.ExecContext` carrying the out-of-core
        (``streamed`` / ``num_streams`` / ``chunk_nnz``) and multi-GPU
        (``cluster`` / ``devices``) controls.

    Returns
    -------
    MTTKRPResult
        The dense ``(I_mode, R)`` result and the simulated kernel profile
        (``profile.streaming`` holds the per-chunk ledger on the streamed
        path).
    """
    ctx = ctx if ctx is not None else DEFAULT_CONTEXT
    backend_impl = get_backend(ctx.backend)
    fcoo = encode_for(tensor, OperationKind.SPMTTKRP, mode)

    shape = fcoo.shape
    order = fcoo.order
    if len(factors) != order:
        raise ValueError(f"need one factor per mode ({order}), got {len(factors)}")
    mats = [
        validate_factor(factors[m], shape[m], f"factors[{m}]")
        for m in fcoo.roles.product_modes
    ]
    ranks = {m.shape[1] for m in mats}
    if len(ranks) != 1:
        raise ValueError(f"product-mode factors must share one rank, got {sorted(ranks)}")
    rank = ranks.pop()
    profile = plan_spmttkrp(
        fcoo,
        rank,
        device=device,
        block_size=block_size,
        threadlen=threadlen,
        fused=fused,
        ctx=ctx,
    )

    output = np.zeros((shape[fcoo.mode], rank), dtype=np.float64)
    if fcoo.nnz:
        slice_sums = unified_segment_sums(
            fcoo, lambda chunk: _slice_sums(chunk, mats, backend_impl), profile
        )
        # Scatter the per-slice sums to the output rows (the segment table
        # stores the index-mode coordinate of each slice).
        np.add.at(output, fcoo.segment_index_coords[:, 0], slice_sums)
    if ctx.metrics is not None:
        observe_kernel_profile(
            ctx.metrics, kernel="spmttkrp", nnz=fcoo.nnz, profile=profile
        )
    return MTTKRPResult(output=output, profile=profile)
