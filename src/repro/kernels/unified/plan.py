"""Plan/execute split of the unified kernels: cost without numerics.

The F-COO cost model reads only index structure, never values, so a
launch is priced from the encoding alone.  :func:`plan_unified` makes the
one-shot / streamed / sharded decision and returns the
:class:`~repro.gpusim.counters.KernelProfile` of the chosen execution
without touching a value; each kernel's ``plan_*`` function
(:func:`~repro.kernels.unified.spttm.plan_spttm`,
:func:`~repro.kernels.unified.spmttkrp.plan_spmttkrp`,
:func:`~repro.kernels.unified.spttmc.plan_spttmc`) wraps it with the
kernel's widths, FLOP charge and footprint.  The kernels call their plan
function themselves and then run the numerics exactly once with
:func:`unified_segment_sums`, so the tuner and the kernels share one cost
path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.context import ExecContext
from repro.formats.fcoo import FCOOTensor
from repro.formats.mode_encoding import OperationKind
from repro.gpusim.cluster import ClusterLike, resolve_cluster
from repro.gpusim.counters import KernelCounters, KernelProfile
from repro.gpusim.device import DeviceSpec
from repro.gpusim.launch import LaunchConfig
from repro.gpusim.timing import profile_from_counters
from repro.kernels.unified._model import unified_device_footprint, unified_kernel_counters
from repro.kernels.unified.sharded import plan_sharded
from repro.kernels.unified.streaming import (
    NumericCore,
    plan_streamed,
    should_stream,
    streamed_segment_sums,
)
from repro.tensor.sparse import SparseTensor
from repro.util.validation import check_mode

__all__ = ["UnifiedCost", "encode_for", "plan_unified", "unified_segment_sums"]

#: Encodings each operation's kernel accepts: SpTTMc shares SpMTTKRP's
#: mode classification, so either encoding serves it.
_ACCEPTED = {
    OperationKind.SPTTM: (OperationKind.SPTTM,),
    OperationKind.SPMTTKRP: (OperationKind.SPMTTKRP,),
    OperationKind.SPTTMC: (OperationKind.SPTTMC, OperationKind.SPMTTKRP),
}
_LABELS = {
    OperationKind.SPTTM: "SpTTM",
    OperationKind.SPMTTKRP: "SpMTTKRP",
    OperationKind.SPTTMC: "SpTTMc",
}


def encode_for(
    tensor: Union[SparseTensor, FCOOTensor], operation: OperationKind, mode: int
) -> FCOOTensor:
    """The F-COO encoding a kernel of ``operation`` on ``mode`` runs on.

    A :class:`SparseTensor` is encoded on the fly; an :class:`FCOOTensor`
    is checked to be encoded for this operation and mode and used as is.
    """
    if isinstance(tensor, FCOOTensor):
        if tensor.operation not in _ACCEPTED[operation] or (
            tensor.mode != check_mode(mode, tensor.order)
        ):
            raise ValueError(
                f"the provided FCOOTensor is encoded for {tensor.operation.value} on "
                f"mode {tensor.mode}, not {_LABELS[operation]} on mode {mode}"
            )
        return tensor
    return FCOOTensor.from_sparse(tensor, operation, check_mode(mode, tensor.order))


@dataclass(frozen=True)
class UnifiedCost:
    """What one unified kernel's cost model needs beyond the encoding.

    Attributes
    ----------
    name:
        Profile name (``-streamed`` / ``-sharded`` appended on those paths).
    rank:
        Columns of each gathered factor matrix.
    output_width:
        Columns of the per-segment sums.
    flops_per_nnz_per_column:
        Arithmetic per non-zero per output column.
    factor_bytes / output_bytes:
        Device bytes of the dense factors and of the output; together they
        stay resident on every path.
    reduction:
        How sharded partial outputs merge (``"allreduce"`` or
        ``"boundary"``; see :func:`~repro.kernels.unified.sharded.plan_sharded`).
    """

    name: str
    rank: int
    output_width: int
    flops_per_nnz_per_column: float
    factor_bytes: float
    output_bytes: float
    reduction: str = "allreduce"

    @property
    def resident_bytes(self) -> float:
        return self.factor_bytes + self.output_bytes

    def footprint(self, fcoo: FCOOTensor, *, block_size: int, threadlen: int) -> float:
        """One-shot device footprint: encoding, factors and output."""
        launch = LaunchConfig.for_nnz(
            max(fcoo.nnz, 1), self.rank, block_size=block_size, threadlen=threadlen
        )
        return unified_device_footprint(fcoo, launch, self.factor_bytes, self.output_bytes)


def _plan_on_device(
    fcoo: FCOOTensor,
    cost: UnifiedCost,
    *,
    device: DeviceSpec,
    footprint: float,
    block_size: int,
    threadlen: int,
    fused: bool,
    ctx: ExecContext,
) -> KernelProfile:
    """Price ``fcoo`` on one device: streamed when it must, else one-shot."""
    if should_stream(fcoo, footprint, device, ctx.streamed):

        def chunk_cost(chunk: FCOOTensor):
            launch = LaunchConfig.for_nnz(
                chunk.nnz, cost.rank, block_size=block_size, threadlen=threadlen
            )
            return _counters(chunk, cost, launch, device, fused), launch

        return plan_streamed(
            fcoo,
            chunk_cost,
            device=device,
            threadlen=threadlen,
            num_streams=ctx.num_streams,
            chunk_nnz=ctx.chunk_nnz,
            resident_bytes=cost.resident_bytes,
            name=cost.name,
        )
    launch = LaunchConfig.for_nnz(
        max(fcoo.nnz, 1), cost.rank, block_size=block_size, threadlen=threadlen
    )
    return profile_from_counters(
        cost.name,
        _counters(fcoo, cost, launch, device, fused),
        launch,
        device,
        device_memory_bytes=footprint,
    )


def _counters(
    fcoo: FCOOTensor,
    cost: UnifiedCost,
    launch: LaunchConfig,
    device: DeviceSpec,
    fused: bool,
) -> KernelCounters:
    """The ledger of one launch over ``fcoo`` (a whole stream, chunk or shard)."""
    return unified_kernel_counters(
        fcoo,
        cost.rank,
        output_rows=fcoo.num_segments,
        output_width=cost.output_width,
        launch=launch,
        device=device,
        flops_per_nnz_per_column=cost.flops_per_nnz_per_column,
        fused=fused,
    )


def _plan_sharded(
    fcoo: FCOOTensor,
    cost: UnifiedCost,
    *,
    cluster: ClusterLike,
    block_size: int,
    threadlen: int,
    fused: bool,
    ctx: ExecContext,
) -> KernelProfile:
    """Price every shard on its own device, then the partial-output merge."""

    def shard_cost(shard: FCOOTensor, device: DeviceSpec) -> KernelProfile:
        launch = LaunchConfig.for_nnz(
            max(shard.nnz, 1), cost.rank, block_size=block_size, threadlen=threadlen
        )
        footprint = unified_device_footprint(shard, launch, cost.resident_bytes, 0.0)
        return _plan_on_device(
            shard,
            cost,
            device=device,
            footprint=footprint,
            block_size=block_size,
            threadlen=threadlen,
            fused=fused,
            ctx=ctx,
        )

    return plan_sharded(
        fcoo,
        shard_cost,
        cluster=cluster,
        threadlen=threadlen,
        output_bytes=cost.output_bytes,
        output_width=cost.output_width,
        reduction=cost.reduction,
        name=cost.name,
    )


def plan_unified(
    fcoo: FCOOTensor,
    cost: UnifiedCost,
    *,
    device: DeviceSpec,
    block_size: int,
    threadlen: int,
    fused: bool,
    ctx: ExecContext,
) -> KernelProfile:
    """The profile of running one unified kernel on ``fcoo`` — no numerics.

    Sharded when ``ctx`` names a cluster of several devices (each shard
    streams on its own device if it must), streamed when the one-shot
    footprint exceeds the device or ``ctx.streamed`` forces it, one-shot
    otherwise.  Raises
    :class:`~repro.gpusim.timing.OutOfDeviceMemory` for an infeasible
    configuration, exactly as running the kernel would.
    """
    device, multi = resolve_cluster(device, ctx.cluster, ctx.devices)
    kwargs = dict(block_size=block_size, threadlen=threadlen, fused=fused, ctx=ctx)
    if multi is not None and fcoo.nnz:
        return _plan_sharded(fcoo, cost, cluster=multi, **kwargs)
    footprint = cost.footprint(fcoo, block_size=block_size, threadlen=threadlen)
    return _plan_on_device(fcoo, cost, device=device, footprint=footprint, **kwargs)


def unified_segment_sums(
    fcoo: FCOOTensor, numeric_core: NumericCore, profile: KernelProfile
) -> np.ndarray:
    """Run a kernel's numeric core once, as its planned profile dictates.

    A streamed execution reduces chunk by chunk and merges the partial
    segments; one-shot and sharded executions run the canonical
    full-stream pass (shards only model time, so every topology yields the
    same bits).
    """
    if profile.streaming is not None:
        return streamed_segment_sums(fcoo, numeric_core, profile.streaming)
    return numeric_core(fcoo)
