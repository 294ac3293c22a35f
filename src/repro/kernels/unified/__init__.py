"""The unified F-COO kernels (the paper's contribution, Section IV).

All three kernels share the same skeleton:

1. every thread owns ``threadlen`` consecutive non-zeros of the F-COO
   encoded tensor (perfect load balance regardless of the sparsity
   structure);
2. each non-zero's product-mode indices select rows of the dense factor
   matrices (served by the read-only data cache) and a Hadamard (SpMTTKRP),
   Kronecker (SpTTMc) or scalar (SpTTM) product is formed and scaled by the
   non-zero value;
3. partial products are reduced into per-segment results (one per fiber or
   slice) by a warp-shuffle segmented scan driven by the F-COO bit-flags —
   no atomic updates except the per-block carries of the adjacent
   synchronisation scheme;
4. the product, scan and accumulation stages are fused into a single kernel
   launch so intermediate data never travels through global memory.

The kernels return numerically exact results (vectorised NumPy) together
with a :class:`repro.gpusim.KernelProfile` describing the simulated cost.
That profile reads only the encoding's index structure, so each kernel's
``plan_*`` function prices a launch without numerics
(:mod:`repro.kernels.unified.plan`); the kernels call it themselves and
then run the arithmetic exactly once.

Tensors larger than device memory execute out-of-core
(:mod:`repro.kernels.unified.streaming`): the non-zero stream is chunked on
``threadlen``-aligned boundaries and pipelined through PCIe on multiple CUDA
streams, overlapping each chunk's copy with the previous chunk's kernel.

With ``ctx=ExecContext(cluster=...)`` (or ``devices=N``) the same stream
shards across a simulated multi-GPU node
(:mod:`repro.kernels.unified.sharded`): each shard runs on its own device —
streaming per-device when it still does not fit — and the partial outputs
merge through a modeled collective.

:func:`run_unified` runs the kernel of a given
:class:`~repro.formats.mode_encoding.OperationKind` from the full per-mode
factor list.
"""

from repro.kernels.unified.spttm import plan_spttm, unified_spttm
from repro.kernels.unified.spmttkrp import plan_spmttkrp, unified_spmttkrp
from repro.kernels.unified.spttmc import plan_spttmc, unified_spttmc
from repro.kernels.unified.dispatch import run_unified
from repro.kernels.unified.streaming import (
    ChunkLedger,
    StreamedExecution,
    choose_chunk_nnz,
    plan_streamed,
    streamed_segment_sums,
)
from repro.kernels.unified.sharded import (
    ShardLedger,
    ShardedExecution,
    partition_shards,
    partition_shards_hierarchical,
    plan_sharded,
)

__all__ = [
    "unified_spttm",
    "unified_spmttkrp",
    "unified_spttmc",
    "run_unified",
    "plan_spttm",
    "plan_spmttkrp",
    "plan_spttmc",
    "ChunkLedger",
    "StreamedExecution",
    "choose_chunk_nnz",
    "plan_streamed",
    "streamed_segment_sums",
    "ShardLedger",
    "ShardedExecution",
    "plan_sharded",
    "partition_shards",
    "partition_shards_hierarchical",
]
