"""Unified SpTTMc: the tensor-times-matrix-chain kernel (paper Equation 4).

SpTTMc is the workhorse of the HOOI/Tucker decomposition: for target mode
``n`` it multiplies the tensor by every factor matrix except ``U_n`` along
the corresponding modes and returns the mode-``n`` unfolding of the result,

``Y_(n)(i, :) += X(i, j, k) · (U_2(j, :) ⊗ U_3(k, :))``  (third order, n=0).

Under the unified mode classification (Table I) SpTTMc looks exactly like
SpMTTKRP — product modes are all modes except ``n``, the index mode is ``n``
— except that the per-non-zero combination of factor rows is a Kronecker
product (output width ``Π R_m``) instead of a Hadamard product (width
``R``).  The same F-COO encoding, non-zero partitioning and segmented scan
therefore apply unchanged, which is precisely the unification the paper
claims.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Union

import numpy as np

from repro.backends import Backend, get_backend
from repro.context import DEFAULT_CONTEXT, ExecContext
from repro.formats.fcoo import FCOOTensor
from repro.formats.mode_encoding import OperationKind
from repro.gpusim.counters import KernelProfile
from repro.gpusim.device import DeviceSpec, TITAN_X
from repro.kernels.common import TTMcResult, validate_factor
from repro.kernels.unified.plan import (
    UnifiedCost,
    encode_for,
    plan_unified,
    unified_segment_sums,
)
from repro.obs.metrics import observe_kernel_profile
from repro.tensor.sparse import SparseTensor

__all__ = ["unified_spttmc", "plan_spttmc"]


def _kron_slice_sums(
    fcoo: FCOOTensor, mats: Sequence[np.ndarray], backend: Backend
) -> np.ndarray:
    """Numeric core: per-slice sums of the per-non-zero Kronecker products.

    Built from the last product mode outward so earlier modes vary fastest
    (matching the Kolda unfolding convention of the oracles).
    """
    row_streams = [
        fcoo.product_mode_indices(pos).astype(np.int64) for pos in range(len(mats))
    ]
    return backend.kron_segment_sums(
        fcoo.values, mats, row_streams, fcoo.segment_ids, fcoo.num_segments
    )


def plan_spttmc(
    fcoo: FCOOTensor,
    ranks: Sequence[int],
    *,
    device: DeviceSpec = TITAN_X,
    block_size: int = 128,
    threadlen: int = 8,
    fused: bool = True,
    ctx: Optional[ExecContext] = None,
) -> KernelProfile:
    """The profile :func:`unified_spttmc` reports for ``fcoo`` and product-mode
    factor ranks ``ranks``, priced without any value arithmetic (see
    :mod:`repro.kernels.unified.plan`)."""
    shape = fcoo.shape
    product_modes = fcoo.roles.product_modes
    out_width = math.prod(ranks)
    cost = UnifiedCost(
        name=f"unified-spttmc-mode{fcoo.mode}",
        rank=max(ranks),
        output_width=out_width,
        # The Kronecker product performs one multiply per output column plus
        # the segmented add.
        flops_per_nnz_per_column=3.0,
        factor_bytes=sum(shape[m] * r * 4.0 for m, r in zip(product_modes, ranks)),
        output_bytes=shape[fcoo.mode] * out_width * 4.0,
    )
    return plan_unified(
        fcoo,
        cost,
        device=device,
        block_size=block_size,
        threadlen=threadlen,
        fused=fused,
        ctx=ctx if ctx is not None else DEFAULT_CONTEXT,
    )


def unified_spttmc(
    tensor: Union[SparseTensor, FCOOTensor],
    factors: Sequence[np.ndarray],
    mode: int,
    *,
    device: DeviceSpec = TITAN_X,
    block_size: int = 128,
    threadlen: int = 8,
    fused: bool = True,
    ctx: Optional[ExecContext] = None,
) -> TTMcResult:
    """Compute TTMc with the unified F-COO algorithm on the simulated GPU.

    Parameters
    ----------
    tensor:
        Sparse input tensor or a pre-encoded :class:`FCOOTensor` (the
        encoding is shared with SpMTTKRP — ``OperationKind.SPTTMC``).
    factors:
        One dense factor per mode (the entry at ``mode`` is ignored); factor
        ``m`` has shape ``(I_m, R_m)`` and the ranks may differ per mode.
    mode:
        Target mode whose unfolding is produced.
    ctx:
        The :class:`~repro.context.ExecContext` carrying the out-of-core
        (``streamed`` / ``num_streams`` / ``chunk_nnz``) and multi-GPU
        (``cluster`` / ``devices``) controls, as in
        :func:`repro.kernels.unified.spttm.unified_spttm` (the partial
        unfoldings merge through a modeled ring all-reduce).

    Returns
    -------
    TTMcResult
        The ``(I_mode, Π_{m != mode} R_m)`` unfolded result and the profile
        (``profile.streaming`` holds the per-chunk ledger on the streamed
        path).
    """
    ctx = ctx if ctx is not None else DEFAULT_CONTEXT
    backend_impl = get_backend(ctx.backend)
    fcoo = encode_for(tensor, OperationKind.SPTTMC, mode)

    shape = fcoo.shape
    order = fcoo.order
    if len(factors) != order:
        raise ValueError(f"need one factor per mode ({order}), got {len(factors)}")
    mats = [
        validate_factor(factors[m], shape[m], f"factors[{m}]")
        for m in fcoo.roles.product_modes
    ]
    ranks = [m.shape[1] for m in mats]
    profile = plan_spttmc(
        fcoo,
        ranks,
        device=device,
        block_size=block_size,
        threadlen=threadlen,
        fused=fused,
        ctx=ctx,
    )

    if fcoo.nnz:
        slice_sums = unified_segment_sums(
            fcoo, lambda chunk: _kron_slice_sums(chunk, mats, backend_impl), profile
        )
        output = backend_impl.segment_reduce(
            slice_sums, fcoo.segment_index_coords[:, 0], shape[fcoo.mode]
        )
    else:
        output = np.zeros((shape[fcoo.mode], math.prod(ranks)), dtype=np.float64)
    if ctx.metrics is not None:
        observe_kernel_profile(
            ctx.metrics, kernel="spttmc", nnz=fcoo.nnz, profile=profile
        )
    return TTMcResult(output=output, profile=profile)
