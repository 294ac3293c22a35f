"""repro — reproduction of "A Unified Optimization Approach for Sparse Tensor
Operations on GPUs" (Liu, Wen, Sarwate, Mehri Dehnavi; IEEE CLUSTER 2017).

The package implements:

* the F-COO storage format and the unified SpTTM / SpMTTKRP / SpTTMc GPU
  kernels built on it (:mod:`repro.formats`, :mod:`repro.kernels.unified`),
  including the out-of-core streamed execution path for tensors larger than
  device memory (:mod:`repro.kernels.unified.streaming`) and the multi-GPU
  sharded execution path (:mod:`repro.kernels.unified.sharded`);
* the substrates those kernels need — sparse tensor algebra
  (:mod:`repro.tensor`), a deterministic GPU execution/cost model
  (:mod:`repro.gpusim`), a multicore CPU model (:mod:`repro.cpusim`);
* the baselines of the paper's evaluation — ParTI-GPU, ParTI-omp and SPLATT
  (:mod:`repro.kernels.baselines`);
* complete tensor algorithms: CP-ALS and Tucker/HOOI
  (:mod:`repro.algorithms`);
* datasets (:mod:`repro.data`), auto-tuning (:mod:`repro.autotune`) and the
  per-figure/table experiment harness (:mod:`repro.bench`);
* a multi-tenant serving subsystem over the simulated cluster
  (:mod:`repro.serve`): an async job scheduler with admission control and
  batching, capability-aware placement, and a preprocessing cache keyed by
  tensor content — surfaced as :class:`~repro.serve.ServingEngine` and
  ``python -m repro serve``.  SLO-driven serving adds per-job deadlines
  (:class:`~repro.context.SLO`), a deadline-aware preempting scheduler and
  a device-pool autoscaler;
* an observability layer (:mod:`repro.obs`): a deterministic
  simulated-time :class:`~repro.obs.MetricsRegistry` (Prometheus text +
  JSON export), span-attributed timelines folded into per-job/per-resource
  cost breakdowns (:func:`~repro.obs.attribute`), and the scheduler's
  structured JSONL :class:`~repro.obs.EventLog` — all record-only, never
  perturbing modeled time;
* the unified execution-context API (:mod:`repro.context`):
  :class:`~repro.context.ExecContext` bundles the execution knobs every
  kernel and driver shares (streaming, cluster, chaos, caches) behind one
  frozen ``ctx=`` parameter.

Quick start
-----------
>>> from repro import SparseTensor, unified_spmttkrp, random_factors
>>> import numpy as np
>>> X = SparseTensor(np.array([[0, 1, 2], [1, 0, 1]]), np.array([1.0, 2.0]), (2, 2, 3))
>>> factors = random_factors(X.shape, rank=4, seed=0)
>>> result = unified_spmttkrp(X, factors, mode=0)
>>> result.output.shape
(2, 4)
"""

from repro._version import __version__
from repro.backends import Backend, ReferenceBackend, VectorizedBackend, get_backend
from repro.context import SLO, ExecContext, TimedResult
from repro.tensor import (
    SparseTensor,
    khatri_rao,
    kronecker,
    hadamard,
    random_sparse_tensor,
    ttm_dense,
    mttkrp_dense,
    ttmc_dense,
)
from repro.tensor.random import random_factors
from repro.formats import (
    COOTensor,
    FCOOTensor,
    FCOOChunk,
    CSFTensor,
    SemiSparseTensor,
    OperationKind,
    mode_roles,
)
from repro.gpusim import (
    ClusterSpec,
    DeviceSpec,
    InterconnectSpec,
    MultiNodeClusterSpec,
    NodeSpec,
    SimClock,
    TITAN_X,
    Timeline,
    LaunchConfig,
    OutOfDeviceMemory,
)
from repro.cpusim import CpuSpec, CPU_I7_5820K
from repro.kernels.unified import (
    ShardedExecution,
    StreamedExecution,
    unified_spttm,
    unified_spmttkrp,
    unified_spttmc,
)
from repro.kernels.baselines import (
    parti_gpu_spttm,
    parti_gpu_spmttkrp,
    parti_omp_spttm,
    parti_omp_spmttkrp,
    splatt_mttkrp,
)
from repro.algorithms import (
    cp_als,
    CPResult,
    UnifiedGPUEngine,
    SplattCPUEngine,
    tucker_hooi,
    TuckerResult,
    cp_fit,
)
from repro.data import load_dataset, DATASETS, read_tns, write_tns
from repro.autotune import tune_unified
from repro.obs import (
    Attribution,
    EventLog,
    MetricsRegistry,
    Span,
    attribute,
)
from repro.serve import (
    AutoscalerSpec,
    Job,
    JobKind,
    JobResult,
    PreemptionRecord,
    PreprocCache,
    ScaleEvent,
    ServingEngine,
    ServingReport,
    WorkloadSpec,
)

__all__ = [
    "__version__",
    # execution context & SLOs
    "ExecContext",
    "SLO",
    "TimedResult",
    # numeric-execution backends
    "Backend",
    "ReferenceBackend",
    "VectorizedBackend",
    "get_backend",
    # tensor substrate
    "SparseTensor",
    "khatri_rao",
    "kronecker",
    "hadamard",
    "random_sparse_tensor",
    "random_factors",
    "ttm_dense",
    "mttkrp_dense",
    "ttmc_dense",
    # storage formats
    "COOTensor",
    "FCOOTensor",
    "FCOOChunk",
    "CSFTensor",
    "SemiSparseTensor",
    "OperationKind",
    "mode_roles",
    # devices
    "DeviceSpec",
    "TITAN_X",
    "ClusterSpec",
    "InterconnectSpec",
    "MultiNodeClusterSpec",
    "NodeSpec",
    "Timeline",
    "SimClock",
    "LaunchConfig",
    "OutOfDeviceMemory",
    "CpuSpec",
    "CPU_I7_5820K",
    # kernels
    "unified_spttm",
    "unified_spmttkrp",
    "unified_spttmc",
    "StreamedExecution",
    "ShardedExecution",
    "parti_gpu_spttm",
    "parti_gpu_spmttkrp",
    "parti_omp_spttm",
    "parti_omp_spmttkrp",
    "splatt_mttkrp",
    # algorithms
    "cp_als",
    "CPResult",
    "UnifiedGPUEngine",
    "SplattCPUEngine",
    "tucker_hooi",
    "TuckerResult",
    "cp_fit",
    # data & tuning
    "load_dataset",
    "DATASETS",
    "read_tns",
    "write_tns",
    "tune_unified",
    # serving
    "Job",
    "JobKind",
    "JobResult",
    "PreprocCache",
    "ServingEngine",
    "ServingReport",
    "WorkloadSpec",
    "PreemptionRecord",
    "AutoscalerSpec",
    "ScaleEvent",
    # observability
    "MetricsRegistry",
    "EventLog",
    "Span",
    "Attribution",
    "attribute",
]
