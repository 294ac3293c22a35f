"""ParTI!'s OpenMP CPU kernels (the "ParTI-omp" bars of Figure 6).

The algorithms mirror the GPU versions — fiber-centric SpTTM and two-step
COO SpMTTKRP with an intermediate semi-sparse tensor — executed by 12
OpenMP threads on the CPU model of :mod:`repro.cpusim`.  Parallelisation is
over slices of the output mode (each thread owns a contiguous block of
slices so no atomics are needed), which is why the CPU variant's load
balance depends on the slice-size distribution.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.cpusim.cpu import CPU_I7_5820K, CpuCounters, CpuSpec, cpu_profile
from repro.gpusim.device import TITAN_X
from repro.gpusim.memory import readonly_cache_traffic
from repro.kernels.common import MTTKRPResult, SpTTMResult, chunked_imbalance, validate_factor
from repro.kernels.reference.coo_reference import reference_mttkrp, reference_spttm
from repro.tensor.sparse import SparseTensor
from repro.util.validation import check_mode

__all__ = ["parti_omp_spttm", "parti_omp_spmttkrp"]


def _llc_factor_bytes(row_indices: np.ndarray, rank: int, cpu: CpuSpec) -> float:
    """DRAM bytes for factor-row gathers after last-level-cache reuse.

    Reuses the GPU cache model with the CPU's LLC capacity; the transaction
    granularity difference (64-byte CPU lines vs 128-byte GPU lines) is a
    second-order effect for row sizes of 32–256 bytes.
    """
    row_indices = np.asarray(row_indices)
    traffic = readonly_cache_traffic(
        row_indices.size,
        np.unique(row_indices).size,
        rank * 4.0,
        TITAN_X,
        cache_bytes=float(cpu.llc_bytes),
    )
    return traffic.dram_bytes


def parti_omp_spttm(
    tensor: SparseTensor,
    matrix: np.ndarray,
    mode: int,
    *,
    cpu: CpuSpec = CPU_I7_5820K,
    num_threads: Optional[int] = None,
) -> SpTTMResult:
    """Fiber-centric SpTTM on the multicore CPU model (ParTI-omp)."""
    mode = check_mode(mode, tensor.order)
    matrix = validate_factor(matrix, tensor.shape[mode], "matrix")
    rank = matrix.shape[1]

    output = reference_spttm(tensor, matrix, mode)

    nnz = tensor.nnz
    fiber_nnz = tensor.fiber_counts(mode)
    nfibs = int(fiber_nnz.shape[0])
    threads = num_threads if num_threads is not None else cpu.threads

    counters = CpuCounters()
    counters.flops = 2.0 * nnz * rank
    # ParTI's CPU SpTTM walks fibers with a scalar inner loop (index load,
    # bounds check, multiply-add per column); ~6 scalar ops per non-zero per
    # column.
    counters.scalar_ops = 6.0 * nnz * rank
    counters.mem_read_bytes = nnz * 8.0  # product-mode index + value
    counters.mem_read_bytes += nfibs * tensor.order * 4.0  # fiber metadata
    counters.mem_read_bytes += _llc_factor_bytes(
        np.asarray(tensor.mode_indices(mode)), rank, cpu
    )
    counters.mem_write_bytes = nfibs * rank * 4.0
    counters.parallel_fraction = 0.98
    counters.used_threads = max(min(threads, nfibs), 1)
    # Fibers are statically chunked across threads; a thread's time is the
    # sum of its chunk, so the imbalance follows the chunk sums.
    counters.imbalance_factor = chunked_imbalance(fiber_nnz, threads) if nfibs else 1.0

    profile = cpu_profile(
        f"parti-omp-spttm-mode{mode}", counters, cpu, num_threads=threads
    )
    return SpTTMResult(output=output, profile=profile)


def parti_omp_spmttkrp(
    tensor: SparseTensor,
    factors: Sequence[np.ndarray],
    mode: int,
    *,
    cpu: CpuSpec = CPU_I7_5820K,
    num_threads: Optional[int] = None,
) -> MTTKRPResult:
    """Two-step COO SpMTTKRP on the multicore CPU model (ParTI-omp)."""
    mode = check_mode(mode, tensor.order)
    order = tensor.order
    if len(factors) != order:
        raise ValueError(f"need one factor per mode ({order}), got {len(factors)}")
    product_modes = [m for m in range(order) if m != mode]
    mats = {
        m: validate_factor(factors[m], tensor.shape[m], f"factors[{m}]") for m in product_modes
    }
    rank = next(iter(mats.values())).shape[1]

    output = reference_mttkrp(tensor, factors, mode)

    nnz = tensor.nnz
    threads = num_threads if num_threads is not None else cpu.threads
    last_product = product_modes[-1]
    intermediate_fibers = tensor.num_fibers(last_product) if nnz else 0
    slice_nnz = tensor.slice_counts(mode)
    num_slices = int(slice_nnz.shape[0])

    counters = CpuCounters()
    # Step 1: read the COO tensor + last factor, write the intermediate.
    counters.mem_read_bytes = nnz * (order + 1) * 4.0
    counters.mem_read_bytes += _llc_factor_bytes(
        np.asarray(tensor.mode_indices(last_product)), rank, cpu
    )
    counters.mem_write_bytes = intermediate_fibers * rank * 4.0
    # Step 2: read the intermediate + remaining factors, write the output.
    counters.mem_read_bytes += intermediate_fibers * (rank + order - 1) * 4.0
    for m in product_modes:
        if m == last_product:
            continue
        counters.mem_read_bytes += _llc_factor_bytes(
            np.asarray(tensor.mode_indices(m)), rank, cpu
        )
    counters.mem_write_bytes += tensor.shape[mode] * rank * 4.0

    counters.flops = 2.0 * nnz * rank + 2.0 * intermediate_fibers * rank * max(
        len(product_modes) - 1, 1
    )
    # ParTI's COO MTTKRP reconstructs the unfolded column index with an
    # integer division and modulo per non-zero per column (Equation 6), on
    # top of the gather and multiply-add: ~12 scalar ops per non-zero per
    # column in step 1 plus ~4 per intermediate fiber per column in step 2.
    counters.scalar_ops = 12.0 * nnz * rank + 4.0 * intermediate_fibers * rank
    counters.parallel_fraction = 0.97
    counters.used_threads = max(min(threads, num_slices), 1) if num_slices else 1
    counters.imbalance_factor = chunked_imbalance(slice_nnz, threads) if num_slices else 1.0

    profile = cpu_profile(
        f"parti-omp-spmttkrp-mode{mode}", counters, cpu, num_threads=threads
    )
    return MTTKRPResult(output=output, profile=profile)
