"""Cost-model helpers shared by the unified kernels.

The unified kernels differ only in the width of their per-non-zero product
(1 column group for SpTTM, ``R`` for SpMTTKRP, ``R_1·R_2·...`` for SpTTMc)
and in how many product-mode index streams they read; everything else —
tensor streaming, factor access through the read-only cache, segmented scan,
output scatter — is common and modelled here.
"""

from __future__ import annotations

from repro.formats.fcoo import FCOOTensor
from repro.gpusim.counters import KernelCounters
from repro.gpusim.device import DeviceSpec
from repro.gpusim.launch import LaunchConfig
from repro.gpusim.memory import AccessPattern, coalesced_traffic_bytes, readonly_cache_traffic
from repro.gpusim.scan import segmented_scan_counters

__all__ = [
    "tensor_stream_counters",
    "factor_access_counters",
    "output_scatter_counters",
    "unified_kernel_counters",
    "unified_device_footprint",
]


def tensor_stream_counters(
    fcoo: FCOOTensor,
    launch: LaunchConfig,
    device: DeviceSpec,
) -> KernelCounters:
    """Traffic for streaming the F-COO arrays (indices, values, flags).

    Consecutive threads read consecutive array elements, so every stream is
    perfectly coalesced; the whole tensor is read exactly once per kernel
    thanks to kernel fusion (the product, scan and accumulate stages share
    the data in registers / shared memory).
    """
    nnz = fcoo.nnz
    index_bytes = fcoo.index_dtype.itemsize * fcoo.product_indices.shape[1]
    value_bytes = fcoo.value_dtype.itemsize
    bf_bytes = nnz / 8.0
    sf_bytes = fcoo.num_partitions(launch.threadlen) / 8.0
    read = coalesced_traffic_bytes(
        nnz, index_bytes + value_bytes, AccessPattern.COALESCED, device
    )
    read += bf_bytes + sf_bytes
    return KernelCounters(gmem_read_bytes=read)


def factor_access_counters(
    accesses: int,
    distinct_rows: int,
    rank: int,
    device: DeviceSpec,
    *,
    use_readonly_cache: bool = True,
    value_bytes: int = 4,
) -> KernelCounters:
    """Traffic for gathering factor-matrix rows selected by a product mode.

    Each of the ``accesses`` non-zeros reads one row (``rank`` values) of
    the factor matrix; ``distinct_rows`` of them are different rows.  The
    unified kernels route these reads through the read-only data cache; a
    baseline that does not (``use_readonly_cache=False``) only benefits
    from the L2.
    """
    row_bytes = float(rank * value_bytes)
    cache_bytes = (
        float(device.readonly_cache_bytes_total + device.l2_bytes)
        if use_readonly_cache
        else float(device.l2_bytes)
    )
    traffic = readonly_cache_traffic(
        accesses, distinct_rows, row_bytes, device, cache_bytes=cache_bytes
    )
    return KernelCounters(gmem_read_bytes=traffic.dram_bytes)


def output_scatter_counters(
    num_rows: int,
    row_width: int,
    device: DeviceSpec,
    *,
    value_bytes: int = 4,
    coalesced: bool = True,
) -> KernelCounters:
    """Traffic for writing the reduced per-segment results to global memory."""
    pattern = AccessPattern.COALESCED if coalesced else AccessPattern.RANDOM
    written = coalesced_traffic_bytes(
        num_rows * row_width,
        value_bytes,
        pattern,
        device,
        contiguous_run_bytes=row_width * value_bytes,
    )
    return KernelCounters(gmem_write_bytes=written)


def unified_kernel_counters(
    fcoo: FCOOTensor,
    rank: int,
    output_rows: int,
    output_width: int,
    launch: LaunchConfig,
    device: DeviceSpec,
    *,
    flops_per_nnz_per_column: float = 2.0,
    fused: bool = True,
) -> KernelCounters:
    """Assemble the full ledger of one unified kernel execution.

    Parameters
    ----------
    fcoo:
        The encoded tensor.  Every product-mode index column is one
        gathered factor-row stream (a single one for SpTTM, one per product
        mode for SpMTTKRP/SpTTMc); the ledger reads only the encoding's
        structure, never its values.
    rank:
        Number of columns of each gathered factor matrix.
    output_rows / output_width:
        Shape of the reduced result written to global memory.
    launch:
        Launch configuration (block size, threadlen, grid).
    device:
        Target device.
    flops_per_nnz_per_column:
        Arithmetic per non-zero per output column (2 for a multiply-add,
        higher when several factor rows are combined).
    fused:
        Whether the product/scan/accumulate stages run as one kernel
        (the unified default).  ``False`` is used by the fusion ablation.
    """
    nnz = fcoo.nnz
    counters = tensor_stream_counters(fcoo, launch, device)
    for distinct_rows in fcoo.distinct_product_rows:
        counters = counters.merge(
            factor_access_counters(nnz, distinct_rows, rank, device, use_readonly_cache=True)
        )
    counters = counters.merge(
        output_scatter_counters(output_rows, output_width, device)
    )
    scan = segmented_scan_counters(
        num_elements=nnz,
        num_segments=fcoo.num_segments,
        rank=output_width,
        launch=launch,
        device=device,
        fused=fused,
    )
    counters = counters.merge(scan)
    counters.flops += flops_per_nnz_per_column * nnz * output_width
    counters.active_threads = float(
        min(launch.total_threads, max(1, -(-nnz // launch.threadlen)) * launch.grid_y)
    )
    counters.kernel_launches += 1 if fused else 2
    counters.imbalance_factor = 1.0  # non-zero partitioning is perfectly balanced
    return counters


def unified_device_footprint(
    fcoo: FCOOTensor,
    launch: LaunchConfig,
    factor_bytes: float,
    output_bytes: float,
) -> float:
    """Device-memory footprint of one unified kernel (inputs + outputs).

    The one-shot strategy keeps no intermediate tensors; only the F-COO
    arrays, the dense factor matrices and the output are resident.
    """
    return float(fcoo.storage_bytes(launch.threadlen) + factor_bytes + output_bytes)
