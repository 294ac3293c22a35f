"""The unified execution-context API (`ExecContext`) and SLO classes.

Every unified kernel and both decomposition drivers take their execution
controls — streaming, cluster, chaos, caches, backend, metrics — from one
frozen :class:`ExecContext`, passed as ``ctx=``:

>>> from repro import ExecContext, unified_spmttkrp
>>> ctx = ExecContext(streamed=True, num_streams=4)
>>> result = unified_spmttkrp(tensor, factors, mode=0, ctx=ctx)  # doctest: +SKIP

The module also defines:

* :class:`SLO` — a per-job service-level objective (latency deadline,
  priority class, preemptibility) consumed by the serving scheduler's
  deadline-aware policy;
* :class:`TimedResult` — the common protocol (``makespan_s`` /
  ``timeline`` / ``recoveries`` / ``preemptions``) implemented by
  ``CPResult``, ``TuckerResult`` and ``ScheduleOutcome``, so generic
  tooling (``--trace``, bench regression) stops special-casing each
  result type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

if TYPE_CHECKING:  # pragma: no cover - import-time only
    from repro.gpusim.cluster import ClusterLike, NodeFailure
    from repro.gpusim.timeline import Timeline
    from repro.obs.metrics import MetricsRegistry

__all__ = [
    "SLO",
    "ExecContext",
    "DEFAULT_CONTEXT",
    "TimedResult",
]


# ---------------------------------------------------------------------- #
# SLO classes
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class SLO:
    """A per-job service-level objective.

    Attributes
    ----------
    deadline_s:
        Latency budget relative to the job's arrival (simulated seconds);
        ``None`` means the job has no deadline (a pure batch job).
    priority:
        Priority class, lower is more urgent (matches ``Job.priority``).
    preemptible:
        Whether the scheduler's deadline-aware policy may preempt this
        job at a chunk boundary to make room for a latency-class job.
        Latency-class jobs default to non-preemptible.
    """

    deadline_s: Optional[float] = None
    priority: int = 1
    preemptible: bool = True

    def __post_init__(self) -> None:
        if self.deadline_s is not None and (
            not math.isfinite(self.deadline_s) or self.deadline_s <= 0.0
        ):
            raise ValueError(
                f"deadline_s must be a finite positive latency budget or None, "
                f"got {self.deadline_s}"
            )
        if self.priority < 0:
            raise ValueError(f"priority must be non-negative, got {self.priority}")

    @classmethod
    def latency(cls, deadline_s: float, *, priority: int = 0) -> "SLO":
        """A latency-class SLO: hard deadline, urgent, never preempted."""
        return cls(deadline_s=deadline_s, priority=priority, preemptible=False)

    @classmethod
    def batch(cls, *, priority: int = 1) -> "SLO":
        """A batch-class SLO: no deadline, preemptible."""
        return cls(deadline_s=None, priority=priority, preemptible=True)

    @property
    def has_deadline(self) -> bool:
        """Whether this SLO carries a latency deadline."""
        return self.deadline_s is not None

    def deadline_for(self, arrival_s: float) -> float:
        """Absolute deadline for a job arriving at ``arrival_s`` (inf if none)."""
        if self.deadline_s is None:
            return math.inf
        return arrival_s + self.deadline_s


# ---------------------------------------------------------------------- #
# ExecContext
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ExecContext:
    """Bundled execution knobs for the unified kernels and decompositions.

    Each field is the one spelling of its control: the kernels,
    :func:`~repro.algorithms.cp.cp_als`,
    :func:`~repro.algorithms.tucker.tucker_hooi` and
    :class:`~repro.algorithms.cp.UnifiedGPUEngine` read it from ``ctx``.

    Attributes
    ----------
    streamed:
        ``None`` (default) auto-selects: one-shot when the operands fit in
        device memory, out-of-core streaming otherwise, so a decomposition
        completes on an over-capacity tensor instead of raising.  ``True``
        forces streaming, ``False`` forces one-shot (raising
        :class:`~repro.gpusim.timing.OutOfDeviceMemory` when it does not
        fit).  An empty tensor always takes the one-shot path.
    num_streams:
        CUDA streams (in-flight chunk buffers) for the streamed path; 1
        disables the transfer/compute overlap.
    chunk_nnz:
        Non-zeros per streamed chunk (must be at least the launch's
        ``threadlen``; rounded down to a ``threadlen`` multiple); ``None``
        sizes chunks to fill the device memory budget.
    cluster:
        Multi-GPU topology (:class:`~repro.gpusim.cluster.ClusterSpec` or
        :class:`~repro.gpusim.cluster.MultiNodeClusterSpec`).  The
        non-zero stream shards across its devices on ``threadlen``-aligned
        boundaries and each shard runs on its own device, streaming there
        when it still does not fit (``profile.sharded`` carries the
        per-device ledger).  SpMTTKRP and SpTTMc merge their partial
        outputs through a modeled all-reduce; SpTTM's semi-sparse
        output stays partitioned and only the fibers straddling a shard
        boundary exchange with a neighbour.  The decompositions shard every
        kernel this way and report per-device busy time and scaling
        efficiency.
    devices:
        Shorthand for ``cluster``: a device count > 1 builds a homogeneous
        single-node cluster of the kernel's ``device``.  Must agree with
        ``cluster`` when both are given.
    chaos:
        Scripted :class:`~repro.gpusim.cluster.NodeFailure` events for the
        decompositions to survive.  A failure *fires* at the first kernel
        boundary (an MTTKRP mode in CP-ALS, an SpTTMc in HOOI) whose
        modeled completion time reaches ``failure.time_s`` while the run
        shards across a multi-node cluster containing
        ``failure.node_index`` (indices read against the topology at that
        moment).  The interrupted sweep's partial work is discarded as
        wasted time (its bookings stay on the timeline), the failed node's
        shards re-stage onto the survivors (modeled on the copy lanes), and
        the sweep replays in full from its iteration-boundary checkpoint
        on the survivor topology.  Both decompositions draw randomness only
        at initialisation and the sharded kernels are bit-identical across
        topologies, so the recovered factors (and Tucker core) equal the
        failure-free run's exactly.  Failures that cannot apply
        (single-GPU run, out-of-range node) are ignored, and ``recover_s``
        is ignored too: a decomposition never rebalances back onto a
        returned node mid-run (the serving layer does reuse recovered
        nodes for *new* jobs).
    preproc_cache:
        A :class:`~repro.serve.PreprocCache` (any object with its
        ``encoding(tensor, operation, mode)`` protocol) shared across
        calls.  The decompositions obtain their per-mode F-COO encodings
        through it instead of rebuilding them: CP-ALS in engine setup,
        HOOI once per SpTTMc (within one decomposition every sweep past
        the first hits).  Repeated decompositions of the same tensor — the
        multi-tenant serving pattern — skip the host preprocessing; CP-ALS
        charges the host seconds of cache *misses* into its setup time
        (they are exactly what a later hit saves).
    overlap_modes:
        CP-ALS intra-kernel pipelining on the unified timeline: mode
        ``k``'s partial-output all-reduce books the cluster's link/NIC
        resources while mode ``k``'s dense update (the normal-equations
        solve on the reduce-scattered rows each device owns) books the
        compute engines; mode ``k + 1``'s MTTKRP waits for both — the
        updated factor must be fully distributed — so the numeric
        iteration order, and hence every factor, is bit-identical to the
        sequential schedule.  Only ``CPResult.makespan_s`` moves, and only
        downward: each mode pays ``max(collective, dense)`` instead of
        their sum.  A single-GPU run has no collective, so the flag is a
        modeled no-op there.
    overlap_staging:
        CP-ALS on a sharded cluster: stage each mode's shards on the
        per-device copy engines during the first sweep, overlapped with
        the previous mode's reduction, instead of charging all staging
        serially in engine setup (the factors are bit-identical; only
        modeled time moves, and only downward; off by default so modeled
        seconds of existing runs are unchanged).
    backend:
        The numeric-execution backend (:mod:`repro.backends`): a registry
        name (``"reference"`` / ``"vectorized"``), a
        :class:`~repro.backends.base.Backend` instance, or ``None`` to
        consult the ``REPRO_BACKEND`` environment variable (default
        ``"reference"``).  Backends are bit-identical by contract, so this
        changes wall-clock speed only — never results or modeled seconds.
    slo:
        The job-level :class:`SLO`, carried for serving-layer consumers.
    metrics:
        The run's :class:`~repro.obs.metrics.MetricsRegistry`.  When set,
        the unified kernels, streamed/sharded drivers, and decomposition
        algorithms publish launch counters and modeled-time histograms
        into it (observation-only: modeled seconds never change).  The
        serving engine threads its per-run registry through here so every
        layer a job touches reports into one place.
    nic_policy:
        NIC queue discipline for collectives under contention (one of
        :data:`~repro.gpusim.timeline.NIC_POLICIES`): ``"fifo"`` — the
        default, bookings serve in arrival order — or ``"fair"`` /
        ``"priority"``, which let the serving scheduler reorder queued
        (never in-flight) collectives.  Disciplines only move modeled
        time; numerics are policy-independent by construction.
    """

    streamed: Optional[bool] = None
    num_streams: int = 2
    chunk_nnz: Optional[int] = None
    cluster: Optional["ClusterLike"] = None
    devices: Optional[int] = None
    chaos: Optional[Tuple["NodeFailure", ...]] = None
    preproc_cache: Optional[Any] = None
    overlap_modes: bool = False
    overlap_staging: bool = False
    backend: Optional[Any] = None
    slo: Optional[SLO] = None
    metrics: Optional["MetricsRegistry"] = None
    nic_policy: str = "fifo"

    def __post_init__(self) -> None:
        if self.backend is not None:
            # Validate eagerly so a typo'd name fails at construction, not
            # deep inside a kernel.  (Lazy import: backends -> gpusim only.)
            from repro.backends import get_backend

            get_backend(self.backend)
        if self.num_streams < 1:
            raise ValueError(f"num_streams must be >= 1, got {self.num_streams}")
        if self.chunk_nnz is not None and self.chunk_nnz < 1:
            raise ValueError(f"chunk_nnz must be >= 1 or None, got {self.chunk_nnz}")
        if self.devices is not None and self.devices < 1:
            raise ValueError(f"devices must be >= 1 or None, got {self.devices}")
        if self.chaos is not None and not isinstance(self.chaos, tuple):
            # Normalise any sequence of failures to a tuple so the context
            # stays hashable/frozen-safe.
            object.__setattr__(self, "chaos", tuple(self.chaos))
        from repro.gpusim.timeline import NIC_POLICIES

        if self.nic_policy not in NIC_POLICIES:
            raise ValueError(
                f"nic_policy must be one of {NIC_POLICIES}, got {self.nic_policy!r}"
            )

    def evolve(self, **changes: Any) -> "ExecContext":
        """A copy with ``changes`` applied (``dataclasses.replace`` sugar)."""
        return replace(self, **changes)


#: The all-defaults context; what a call without ``ctx=`` resolves to.
DEFAULT_CONTEXT = ExecContext()


# ---------------------------------------------------------------------- #
# The common result surface
# ---------------------------------------------------------------------- #
@runtime_checkable
class TimedResult(Protocol):
    """What every timed result exposes, whatever layer produced it.

    Implemented by :class:`~repro.algorithms.cp.CPResult`,
    :class:`~repro.algorithms.tucker.TuckerResult` and
    :class:`~repro.serve.ScheduleOutcome` (and, by delegation,
    :class:`~repro.serve.ServingReport`): a makespan in simulated seconds,
    the :class:`~repro.gpusim.timeline.Timeline` the run booked (``None``
    when untimed), the fault recoveries that fired, and the preemptions
    the run suffered.  Generic consumers — ``--trace`` export, the bench
    regression harness — program against this protocol instead of
    special-casing each concrete type.
    """

    @property
    def makespan_s(self) -> float: ...

    @property
    def timeline(self) -> Optional["Timeline"]: ...

    @property
    def recoveries(self) -> Sequence[Any]: ...

    @property
    def preemptions(self) -> Sequence[Any]: ...
