"""A deterministic GPU execution/cost model (the "simulated Titan X").

The paper evaluates CUDA kernels on an NVIDIA GeForce GTX Titan X.  This
reproduction has no GPU, so every kernel in :mod:`repro.kernels` runs its
mathematics as vectorised NumPy and *charges* its work to the cost model in
this subpackage, which converts operation counts into an estimated execution
time for a configurable device.

The model is intentionally first-order — the paper's results are driven by
memory traffic, cache behaviour, atomic contention, load balance and
occupancy, not by instruction-level effects — but each of those first-order
effects is modelled explicitly:

* :mod:`~repro.gpusim.device` — device specifications (default: the Titan X
  of Table III) and occupancy limits.
* :mod:`~repro.gpusim.cluster` — multi-GPU cluster specifications (devices
  joined by an interconnect) and the collective cost models used by the
  sharded execution path.
* :mod:`~repro.gpusim.launch` — launch configurations (grid/block/threadlen)
  and occupancy/utilisation computation.
* :mod:`~repro.gpusim.counters` — the ledger of work a kernel performs
  (FLOPs, coalesced global traffic, atomics, imbalance, launches).
* :mod:`~repro.gpusim.memory` — global-memory coalescing and the read-only
  data-cache model used for factor-matrix accesses.
* :mod:`~repro.gpusim.atomics` — atomic-update contention model.
* :mod:`~repro.gpusim.scan` — the segmented-scan primitive (numeric result
  plus cost contribution).
* :mod:`~repro.gpusim.timeline` — the unified simulated-time resource
  engine: serial resources (copy/compute engines, intra-node links,
  per-node NICs) with busy-until bookkeeping, dependency-ordered task
  booking, per-resource utilisation and a Chrome-trace-exportable event
  trace.  The stream pipeline, the cluster collectives and the serving
  scheduler all book time on it.  It also holds the multi-stream
  transfer/compute overlap pipeline of the out-of-core path.
* :mod:`~repro.gpusim.timing` — conversion of a counter ledger into
  estimated kernel time on a device.
"""

from repro.gpusim.device import DeviceSpec, TITAN_X, scaled_device
from repro.gpusim.cluster import (
    ClusterLike,
    ClusterSpec,
    ETHERNET_10G,
    INFINIBAND_EDR,
    InterconnectSpec,
    MultiNodeClusterSpec,
    NVLINK1,
    NodeSpec,
    PCIE3_P2P,
    resolve_cluster,
)
from repro.gpusim.launch import LaunchConfig
from repro.gpusim.counters import KernelCounters, KernelProfile
from repro.gpusim.memory import (
    AccessPattern,
    coalesced_traffic_bytes,
    readonly_cache_traffic,
)
from repro.gpusim.atomics import atomic_contention_factor, atomic_cost_ops
from repro.gpusim.scan import segment_reduce, segmented_scan_counters
from repro.gpusim.timeline import (
    Booking,
    ChunkTiming,
    GangBooking,
    Resource,
    SimClock,
    StreamSchedule,
    Timeline,
    device_compute_key,
    device_copy_key,
    pipeline_time,
    schedule_chunks,
)
from repro.gpusim.timing import estimate_kernel_time, OutOfDeviceMemory, check_device_fit

__all__ = [
    "DeviceSpec",
    "TITAN_X",
    "scaled_device",
    "ClusterLike",
    "ClusterSpec",
    "ETHERNET_10G",
    "INFINIBAND_EDR",
    "InterconnectSpec",
    "MultiNodeClusterSpec",
    "NVLINK1",
    "NodeSpec",
    "PCIE3_P2P",
    "resolve_cluster",
    "LaunchConfig",
    "KernelCounters",
    "KernelProfile",
    "AccessPattern",
    "coalesced_traffic_bytes",
    "readonly_cache_traffic",
    "atomic_contention_factor",
    "atomic_cost_ops",
    "segment_reduce",
    "segmented_scan_counters",
    "ChunkTiming",
    "StreamSchedule",
    "pipeline_time",
    "schedule_chunks",
    "Booking",
    "GangBooking",
    "Resource",
    "SimClock",
    "Timeline",
    "device_compute_key",
    "device_copy_key",
    "estimate_kernel_time",
    "OutOfDeviceMemory",
    "check_device_fit",
]
