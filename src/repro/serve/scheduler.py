"""Event-driven multi-tenant scheduler over the simulated cluster.

The scheduler turns a stream of :class:`~repro.serve.job.Job` s into a
deterministic simulated-time schedule:

* **admission** — on arrival a job is either shed (optional queue-depth
  bound: a full queue rejects newcomers instead of growing without bound),
  rejected by memory admission control *before* any preprocessing is spent
  (a job whose resident dense operands cannot fit next to two minimal
  streamed chunk buffers on any device — see
  :meth:`~repro.serve.placement.Placer.admit`), or preprocessed: its F-COO
  encoding (and, with ``autotune``, its tuned launch parameters) come from
  the shared :class:`~repro.serve.cache.PreprocCache`.  Preprocessing is
  host work done tenant-side and overlaps freely across jobs; a cache miss
  delays only that job's stage-readiness, never the cluster.

* **queueing** — admitted jobs wait in a priority queue
  (``policy="priority"``: lower priority class first, FIFO within a class;
  ``policy="fifo"``: strict arrival order; ``policy="deadline"``:
  earliest-deadline-first over the jobs' :class:`~repro.context.SLO`
  deadlines, then priority class — on a workload without SLOs every
  deadline is ``inf`` and the policy degenerates to ``"priority"``
  bit for bit).

* **preemption** — under ``policy="deadline"``, a dispatched job that
  would miss its deadline may preempt one committed batch job
  (preemptible, no deadline of its own) sharing its device slots: the
  victim's not-yet-consumed timeline bookings are *released* back to the
  resource pool (:meth:`~repro.gpusim.timeline.Timeline.release`), a
  streamed victim's in-flight compute booking is *truncated* at the next
  chunk boundary (:meth:`~repro.gpusim.timeline.Timeline.truncate` — the
  streamed pipeline's natural checkpoint), and the victim re-queues with
  a resume ledger: its already-computed output, its completed-chunk
  count, and the remaining pipeline re-booked later under
  ``resume:jobN`` labels (plus a factor re-stage).  Outputs are
  bit-identical with or without preemption — the numeric result was
  computed once at dispatch and only *time* is replayed.

* **autoscaling** — an optional :class:`~repro.serve.autoscale.Autoscaler`
  grows and shrinks the active slot pool against queue depth and engine
  idleness; parked slots are excluded from placement exactly like failed
  nodes.

* **dispatch** — a job is dispatched when a copy engine frees *and* the job
  is stage-ready, so its staging overlaps the predecessor's compute.
  Arrivals earlier than the dispatch instant always enter the queue first,
  so a late high-priority job overtakes queued batch work; a job still
  preprocessing never blocks stage-ready ones.

* **batching** — compatible stage-ready jobs (same tensor content,
  operation, mode and rank — i.e. the same F-COO encoding and launch
  geometry) ride one dispatch: the encoding is staged once for the whole
  batch and the members execute back to back on the batch's device.
  Batching changes *when* work runs, never *what* it computes.

All time bookkeeping lives on one shared
:class:`~repro.gpusim.timeline.Timeline`: every device contributes a copy
engine and a compute engine resource, and a sharded job's partial-output
collective gang-books the execution cluster's intra-node link / per-node
NIC resources.  On idle resources the booked schedule reproduces the
closed-form costs bit for bit; a collective that finds a shared link or
NIC busy queues behind it and the job finishes later.  Collectives always
serve in booking order: a sharded placement takes whole nodes and holds
its compute lanes (a non-busy ``barrier:`` booking) until its collective
ends, so two jobs that share a link or NIC also share a lane, and the
later one's collective cannot be ready before the earlier one's is done —
there is never a queued collective for a policy to reorder.  The timeline
also powers the per-resource utilisation of
:class:`~repro.serve.engine.ServingReport` and the ``--trace`` Chrome
trace export.

Every dispatched or resumed job is one ``_Commitment``: it owns the job's
bookings, its provisional ``dispatch``/``resume`` and ``complete`` events
(their timestamps lie in the committed future) and its
:class:`~repro.serve.job.JobResult`.  The three features that take
committed work back go through it: a deadline job's trial booking and a
preempted victim are *revoked* — all or nothing: future bookings
released, at most one in-flight booking truncated, stale events
retracted — and a job torn off a failed node is *abandoned*, its bookings
left on the timeline as wasted work.

Everything is simulated time derived from the deterministic cost models —
two runs of the same workload produce identical schedules, which is what
lets ``tests/test_serving.py`` assert bit-identical outputs and the CI
regression gate track throughput/latency without timer noise.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.formats.fcoo import FCOOTensor
from repro.gpusim.cluster import (
    ClusterLike,
    MultiNodeClusterSpec,
    NodeFailure,
    collapse_cluster,
)
from repro.gpusim.device import DeviceSpec
from repro.gpusim.timeline import (
    NIC_POLICIES,
    Booking,
    Resource,
    Span,
    Timeline,
    device_compute_key,
    device_copy_key,
    schedule_chunks,
)
from repro.gpusim.timing import OutOfDeviceMemory
from repro.obs.attribution import Attribution, attribute
from repro.obs.events import Event, EventLog
from repro.obs.metrics import MetricsRegistry
from repro.serve.autoscale import Autoscaler, AutoscalerSpec, ScaleEvent
from repro.serve.cache import PreprocCache
from repro.serve.execute import ExecutionOutcome, execute_job
from repro.serve.feedback import ObservationStore
from repro.serve.job import Job, JobKind, JobResult, JobStatus
from repro.serve.placement import JobGeometry, Placement, Placer, job_geometry

__all__ = [
    "DeviceTimeline",
    "PreemptionRecord",
    "ScheduleOutcome",
    "Scheduler",
    "tuner_device",
]


def tuner_device(cluster: ClusterLike) -> DeviceSpec:
    """Where a cluster's tuner sweeps run: its most capable member (ties:
    lowest slot)."""
    weights = cluster.capability_weights()
    return cluster.devices[
        max(range(cluster.num_devices), key=lambda s: (weights[s], -s))
    ]


@dataclass
class DeviceTimeline:
    """Per-device serving summary — a *view* over the shared timeline.

    .. deprecated::
        The scheduler no longer accumulates per-device horizons here; the
        shared :class:`~repro.gpusim.timeline.Timeline` (see
        :attr:`ScheduleOutcome.timeline`) is the source of truth, and one
        :class:`DeviceTimeline` per device is derived from it after the
        run for backward compatibility.  ``copy_free_s`` /
        ``compute_free_s`` are the final horizons of the device's copy and
        compute engine resources, and ``busy_s`` is the compute engine's
        accumulated busy time (the sum of its busy-marked bookings — what
        the utilisation report divides by the makespan).
    """

    slot: int
    device: DeviceSpec
    copy_free_s: float = 0.0
    compute_free_s: float = 0.0
    busy_s: float = 0.0
    jobs: int = 0


@dataclass(frozen=True)
class PreemptionRecord:
    """One preemption: who was cut, by whom, where, and what it freed.

    ``time_s`` is the *cut point* — the chunk boundary a streamed victim
    was checkpointed at (or the preemption instant for a victim caught
    before compute).  ``released_s`` is the busy time given back to the
    resource pool, and ``resume_stage_s`` the factor re-staging the
    victim pays when it resumes.
    """

    job_id: int
    preempted_by: int
    time_s: float
    completed_chunks: int
    total_chunks: int
    released_s: float
    resume_stage_s: float


@dataclass(frozen=True)
class _ResumeState:
    """A preempted streamed job's resume ledger.

    The output was already computed at the original dispatch (execution
    is pure in ``(job, placement)``), so resuming re-books only *time*:
    the remaining chunks' pipeline on the original placement, plus a
    factor re-stage.
    """

    placement: Placement
    outcome: ExecutionOutcome
    completed_chunks: int
    total_chunks: int
    remaining_exec_s: float
    resume_stage_s: float


@dataclass(eq=False)
class _ReadyEntry:
    """One admitted, preprocessed job waiting in the queue."""

    job: Job
    geometry: JobGeometry
    encoding: Optional[FCOOTensor]
    ready_s: float  # earliest staging start: preprocessing done AND the
    #                 encodings it reuses finished building
    preproc_s: float
    encode_hit: bool
    tuner_hit: Optional[bool]
    launch: Optional[Tuple[int, int]]  # tuned (BLOCK_SIZE, threadlen)
    #: Preemption bookkeeping: times preempted so far, the last cut point,
    #: and — for a checkpointed streamed victim — the resume ledger
    #: (``None`` re-dispatches from scratch).
    preemptions: int = 0
    preempted_from_s: float = 0.0
    resume: Optional[_ResumeState] = None
    #: Whether this entry is a post-failure re-admission — its re-staging
    #: is attributed to the ``recovery`` span phase rather than ``stage``.
    requeued: bool = False


@dataclass(eq=False)
class _Commitment:
    """One committed (dispatched or resumed) job and everything revoking it
    touches.

    It owns the job's timeline bookings in booking order (the stage and
    exec bookings singled out, so preemption can tell "caught
    mid-staging" from "caught mid-compute"), the provisional start
    (``dispatch``/``resume``) and ``complete`` events it emitted — their
    timestamps lie in the committed future — and the job's
    :class:`JobResult`.  It leaves the run in one step: :meth:`revoke`
    (trial re-book, preemption) or :meth:`abandon` (chaos teardown).
    """

    entry: _ReadyEntry
    placement: Placement
    outcome: ExecutionOutcome
    result: JobResult
    bookings: List[Booking]
    stage_booking: Optional[Booking]  # single-lane stage (non-sharded)
    exec_booking: Optional[Booking]  # single-lane compute (non-sharded)
    resumed: bool = False
    start_event: Optional[Event] = None
    complete_event: Optional[Event] = None

    def in_flight(self, at: float) -> List[Booking]:
        """The bookings running across ``at`` (started before, ending after)."""
        return [b for b in self.bookings if b.start_s < at < b.end_s]

    def revoke(
        self,
        state: "_RunState",
        at: float = -math.inf,
        *,
        cut_at: Optional[float] = None,
    ) -> Optional[float]:
        """Withdraw everything of this commitment not yet run at ``at``.

        Every booking starting at or after ``at`` is released, and the one
        booking in flight across ``at`` (if any) is truncated at ``cut_at``
        (default ``at``).  The default ``at`` withdraws the whole
        commitment.  The stale ``complete`` event is retracted, and so is
        the start event unless a booking was cut mid-flight: a real
        partial run is history, a never-started booking is not.

        All or nothing: returns ``None`` and changes nothing when nothing
        is left to withdraw, more than one booking is in flight, or a
        touched lane holds later bookings (releasing would strand them).
        Otherwise the commitment leaves the run and the busy seconds given
        back are returned.
        """
        future = [b for b in self.bookings if b.start_s >= at]
        cut = self.in_flight(at)
        if len(cut) > 1 or not (future or cut):
            return None
        by_lane: Dict[str, List[Booking]] = {}
        for booking in future + cut:
            by_lane.setdefault(booking.resource, []).append(booking)
        timeline = state.timeline
        if not all(
            timeline.resource(key).is_tail(group) for key, group in by_lane.items()
        ):
            return None
        released = timeline.release(future) if future else 0.0
        end_s = at if cut_at is None else cut_at
        for booking in cut:
            if booking.busy:
                released += booking.end_s - end_s
            timeline.truncate(booking, end_s)
        self._retire(state, work_started=bool(cut))
        return released

    def abandon(self, state: "_RunState", at: float) -> None:
        """Drop this commitment after its node failed at ``at``.

        Its bookings stay on the timeline as wasted work; the start event
        survives only when staging began before the failure.
        """
        self._retire(state, work_started=self.result.stage_start_s < at)

    def _retire(self, state: "_RunState", *, work_started: bool) -> None:
        del state.committed[self.result.job.job_id]
        if state.events is None:
            return
        if self.complete_event is not None:
            state.events.retract(self.complete_event)
        if not work_started and self.start_event is not None:
            state.events.retract(self.start_event)


@dataclass
class _RunState:
    """Everything one scheduler run reads and writes."""

    timeline: Timeline
    copy: List[Resource]
    compute: List[Resource]
    jobs: List[int]
    #: Jobs not yet arrived, in arrival order.
    pending: deque
    #: Chaos events not yet fired, in firing order.
    chaos: deque
    #: Admitted, preprocessed jobs as ``(queue key, entry)``.
    ready: List[Tuple[Tuple, _ReadyEntry]] = field(default_factory=list)
    #: Live commitments by job id, in commit order — what the deadline
    #: policy preempts from and a node failure tears down.
    committed: Dict[int, _Commitment] = field(default_factory=dict)
    #: Results of rejected jobs by job id.
    rejected: Dict[int, JobResult] = field(default_factory=dict)
    #: encoding key -> simulated time its host build completes, for this
    #: run only (a fresh run restarts the simulated clock).
    availability: Dict[Tuple, float] = field(default_factory=dict)
    #: Flat slots / node indices currently down (chaos); new placements
    #: exclude them until the node's recovery event (if any) fires.
    failed_slots: set = field(default_factory=set)
    failed_nodes: set = field(default_factory=set)
    #: ``(recover_s, node_index, slots)`` for failed nodes that come back.
    pending_recovery: List[Tuple[float, int, Tuple[int, ...]]] = field(
        default_factory=list
    )
    #: Chaos events that fired, in firing order.
    fired: List[NodeFailure] = field(default_factory=list)
    requeue_counts: Dict[int, int] = field(default_factory=dict)
    #: Preemptions performed, in firing order.
    preemption_records: List[PreemptionRecord] = field(default_factory=list)
    batch_seq: int = 0
    #: The device-pool autoscaler (``None`` without one), the slots it has
    #: parked, and how many of its actions the event log has seen.
    scaler: Optional[Autoscaler] = None
    parked_slots: set = field(default_factory=set)
    scale_seen: int = 0
    #: Telemetry sinks of the run (both optional; observation-only).
    metrics: Optional[MetricsRegistry] = None
    events: Optional[EventLog] = None


@dataclass
class ScheduleOutcome:
    """Everything one scheduler run produced."""

    results: List[JobResult]
    timelines: List[DeviceTimeline]
    #: The shared simulated-time timeline of the run: per-device copy and
    #: compute engines plus the link/NIC resources the sharded jobs'
    #: collectives booked.  Export with ``timeline.write_chrome_trace``.
    timeline: Optional[Timeline] = field(default=None, repr=False)
    #: Chaos events that fired during the run, in firing order.
    failures: List[NodeFailure] = field(default_factory=list)
    #: Total job re-queues: every time a node loss tore an in-flight job
    #: off its placement and sent it back to the queue.
    requeued_jobs: int = 0
    #: Preemptions the deadline policy performed, in firing order.
    preemptions: List[PreemptionRecord] = field(default_factory=list)
    #: Autoscaler actions, in firing order (empty without an autoscaler).
    scale_events: List[ScaleEvent] = field(default_factory=list)
    #: The span-folded cost breakdown of the run's timeline (per-job and
    #: per-resource attributed seconds; see :mod:`repro.obs.attribution`).
    attribution: Optional[Attribution] = field(default=None, repr=False)

    @property
    def makespan_s(self) -> float:
        """Completion time of the last job (0 for an all-rejected run)."""
        return max((r.finish_s for r in self.results if r.completed), default=0.0)

    @property
    def recoveries(self) -> List[NodeFailure]:
        """Fired chaos events whose node came back (the
        :class:`~repro.context.TimedResult` recovery ledger)."""
        return [e for e in self.failures if e.recover_s is not None]


class Scheduler:
    """Deterministic simulated-time scheduler for one serving cluster.

    Parameters
    ----------
    cluster:
        The serving cluster.
    cache:
        Shared preprocessing cache (encodings + tuned launch configs).
    policy:
        ``"priority"`` (default), ``"fifo"`` or ``"deadline"``
        (earliest-deadline-first with chunk-boundary preemption; see the
        module docstring).
    max_batch:
        Largest batch of compatible jobs per dispatch (1 disables batching).
    max_queue_depth:
        Queue bound for admission-time load shedding (``None``: unbounded).
    block_size / threadlen:
        Default launch parameters (overridden per job by the tuner cache
        when ``autotune`` is on).
    autotune:
        Look up tuned ``(BLOCK_SIZE, threadlen)`` per kernel-job shape in
        the cache (sweeping on a miss, reusing on a hit); tuning runs on
        the cluster's most capable device.
    num_streams:
        Stream count for the kernels' out-of-core fallback.
    autoscale:
        Optional :class:`~repro.serve.autoscale.AutoscalerSpec`; ``None``
        (the default) keeps the legacy fixed pool byte-identical.
    adaptive:
        Feed the :class:`~repro.serve.feedback.ObservationStore` back into
        placement (congestion-aware blended scores) and the tuner cache
        (observed-time re-ranking).  With no observations recorded yet the
        adaptive paths fall back *exactly* to the static ones, so a cold
        adaptive run is event-for-event identical to a static run.
    observations:
        The cross-run :class:`~repro.serve.feedback.ObservationStore`.
        When set, every run folds its completed jobs' attributed costs in
        (recording is independent of ``adaptive``, which only *consumes*).
    nic_policy:
        One of :data:`~repro.gpusim.timeline.NIC_POLICIES`; it only labels
        the ``repro_nic_discipline_dispatch_total`` metric.  Collectives
        always serve in booking order (see the module docstring).
    """

    def __init__(
        self,
        cluster: ClusterLike,
        cache: Optional[PreprocCache] = None,
        *,
        policy: str = "priority",
        max_batch: int = 4,
        max_queue_depth: Optional[int] = None,
        block_size: int = 128,
        threadlen: int = 8,
        autotune: bool = False,
        num_streams: int = 2,
        autoscale: Optional[AutoscalerSpec] = None,
        adaptive: bool = False,
        observations: Optional[ObservationStore] = None,
        nic_policy: str = "fifo",
    ) -> None:
        if policy not in ("priority", "fifo", "deadline"):
            raise ValueError(
                f"policy must be 'priority', 'fifo' or 'deadline', got {policy!r}"
            )
        if max_batch < 1:
            raise ValueError(f"max_batch must be at least 1, got {max_batch}")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be at least 1, got {max_queue_depth}"
            )
        if nic_policy not in NIC_POLICIES:
            raise ValueError(
                f"nic_policy must be one of {NIC_POLICIES}, got {nic_policy!r}"
            )
        # Collapse a one-node multi-node spec (mirroring the placer), so
        # timelines, placements and reports speak the same cluster.
        self.cluster = cluster = collapse_cluster(cluster)
        self.cache = cache if cache is not None else PreprocCache()
        self.policy = policy
        self.max_batch = max_batch
        self.max_queue_depth = max_queue_depth
        self.autotune = autotune
        self.num_streams = num_streams
        self.autoscale = autoscale
        self.adaptive = adaptive
        self.observations = observations
        self.nic_policy = nic_policy
        self.placer = Placer(
            cluster,
            block_size=block_size,
            threadlen=threadlen,
            num_streams=num_streams,
            adaptive=adaptive,
            observations=observations,
        )
        self._tuner_device = tuner_device(cluster)

    # ------------------------------------------------------------------ #
    def _queue_key(self, job: Job) -> Tuple:
        if self.policy == "deadline":
            # EDF, then the priority order.  Without SLOs every deadline
            # is inf and this degenerates to the "priority" key exactly.
            return (job.deadline_s, job.priority, job.arrival_s, job.job_id)
        if self.policy == "priority":
            return (job.priority, job.arrival_s, job.job_id)
        return (job.arrival_s, job.job_id)

    def _preprocess(
        self,
        job: Job,
        geometry: JobGeometry,
        availability: Dict[Tuple, float],
    ) -> _ReadyEntry:
        """Run one admitted job's host preprocessing through the cache.

        ``availability`` maps a cache entry's key (encoding or tuner
        config) to the simulated time its build completes: a cache *hit*
        is free but cannot make the job stage-ready before the entry it
        reuses physically exists, so a job arriving just behind the miss
        that builds it waits for that build, not zero.
        """
        encoding = None
        launch = None
        tuner_hit: Optional[bool] = None
        ready_s = job.arrival_s
        if job.kind.is_kernel:
            key = (job.tensor.content_key, job.operation.value, job.mode)
            encoding, encode_hit, preproc_s = self.cache.encoding(
                job.tensor, job.operation, job.mode
            )
            if encode_hit:
                ready_s = max(ready_s, availability.get(key, job.arrival_s))
            else:
                availability[key] = job.arrival_s + preproc_s
                ready_s = availability[key]
            if self.autotune:
                launch, tuner_hit, tune_s = self.cache.tuner_config(
                    job.tensor,
                    job.operation,
                    job.mode,
                    job.rank,
                    device=self._tuner_device,
                )
                preproc_s += tune_s
                tuner_key = (
                    "tuner",
                    job.tensor.content_key,
                    job.operation.value,
                    job.mode,
                    job.rank,
                )
                if tuner_hit:
                    ready_s = max(ready_s, availability.get(tuner_key, job.arrival_s))
                else:
                    # The sweep runs after this job's encode lands.
                    ready_s += tune_s
                    availability[tuner_key] = ready_s
                if tuner_hit and self.adaptive and self.observations is not None:
                    # Feedback half of the tuner: a cached config whose
                    # observed execution time drifted past the tolerance
                    # is re-ranked against the stored prediction surface.
                    # Pure cache bookkeeping — no extra host seconds, no
                    # readiness change.
                    observed = self.observations.expected_exec_any(
                        job.kind.value, job.tensor.content_key
                    )
                    if observed is not None:
                        launch, _ = self.cache.rerank_tuner_config(
                            job.tensor,
                            job.operation,
                            job.mode,
                            job.rank,
                            device=self._tuner_device,
                            observed_s=observed,
                        )
        else:
            # Prime the cache for every mode the decomposition will sweep,
            # so the driver's per-mode lookups hit; the misses are this
            # job's preprocessing bill.
            encode_hit, preproc_s = True, 0.0
            for mode in range(job.tensor.order):
                key = (job.tensor.content_key, job.operation.value, mode)
                _, hit, cost_s = self.cache.encoding(job.tensor, job.operation, mode)
                encode_hit = encode_hit and hit
                preproc_s += cost_s
                if hit:
                    ready_s = max(ready_s, availability.get(key, job.arrival_s))
                else:
                    availability[key] = job.arrival_s + preproc_s
                    ready_s = max(ready_s, availability[key])
        return _ReadyEntry(
            job=job,
            geometry=geometry,
            encoding=encoding,
            ready_s=ready_s,
            preproc_s=preproc_s,
            encode_hit=encode_hit,
            tuner_hit=tuner_hit,
            launch=launch,
        )

    def _admit(self, state: _RunState, clock: float) -> None:
        """Process arrivals up to ``clock``: shed, reject or preprocess."""
        while state.pending and state.pending[0].arrival_s <= clock:
            job = state.pending.popleft()
            if (
                self.max_queue_depth is not None
                and len(state.ready) >= self.max_queue_depth
            ):
                self._reject(
                    state,
                    job,
                    f"queue full ({self.max_queue_depth} jobs waiting) at arrival",
                    code="queue_full",
                    time_s=job.arrival_s,
                )
                continue
            geometry = job_geometry(job, threadlen=self.placer.threadlen)
            reason = self.placer.admit(job, geometry)
            if reason is not None:
                self._reject(
                    state, job, reason, code="admission_control", time_s=job.arrival_s
                )
                continue
            entry = self._preprocess(job, geometry, state.availability)
            state.ready.append((self._queue_key(job), entry))
            if state.events is not None:
                state.events.emit(
                    "admit",
                    time_s=job.arrival_s,
                    job_id=f"job{job.job_id}",
                    job_kind=job.kind.value,
                    tenant=job.tenant,
                    priority=job.priority,
                    ready_s=entry.ready_s,
                )

    @staticmethod
    def _reject(
        state: _RunState, job: Job, reason: str, *, code: str, time_s: float
    ) -> None:
        """Record ``job`` as rejected and log it under the reason ``code``."""
        state.rejected[job.job_id] = JobResult(
            job=job,
            status=JobStatus.REJECTED,
            reject_reason=reason,
            stage_start_s=job.arrival_s,
            exec_start_s=job.arrival_s,
            finish_s=job.arrival_s,
        )
        if state.events is not None:
            state.events.emit(
                "reject", time_s=time_s, job_id=f"job{job.job_id}", reason=code
            )

    def _pop_best_ready(
        self, ready: List[Tuple[Tuple, _ReadyEntry]], t: float
    ) -> Optional[_ReadyEntry]:
        """Pop the best queued job that is stage-ready at ``t`` (work
        conservation: a job still preprocessing never blocks ready ones)."""
        candidates = [entry for entry in ready if entry[1].ready_s <= t]
        if not candidates:
            return None
        best = min(candidates, key=lambda entry: entry[0])[1]
        ready[:] = [e for e in ready if e[1].job.job_id != best.job.job_id]
        return best

    def _pop_batch_mates(
        self, ready: List[Tuple[Tuple, _ReadyEntry]], leader: Job, t: float
    ) -> List[_ReadyEntry]:
        """Extract up to ``max_batch - 1`` stage-ready jobs batchable with
        ``leader``."""
        if self.max_batch <= 1 or not leader.kind.is_kernel:
            return []
        matching = sorted(
            (
                entry
                for entry in ready
                # The mate must itself be a kernel job: a decomposition on
                # the same tensor shares the leader's batch_key (CP-ALS
                # preprocesses the SpMTTKRP encoding) but is not one kernel
                # invocation and must keep its own placement.
                if entry[1].job.kind.is_kernel
                and entry[1].job.batch_key == leader.batch_key
                and entry[1].ready_s <= t
            ),
            key=lambda entry: entry[0],
        )
        take = matching[: self.max_batch - 1]
        if take:
            taken = {entry[1].job.job_id for entry in take}
            ready[:] = [entry for entry in ready if entry[1].job.job_id not in taken]
        return [entry[1] for entry in take]

    # ------------------------------------------------------------------ #
    def _node_slots(self, node_index: int) -> Tuple[int, ...]:
        """Flat serving-cluster slots a chaos event on ``node_index`` kills.

        On a multi-node cluster the event takes out a whole node; on a
        flat cluster the "node" index is read as a single device slot.
        Out-of-range indices map to no slots — the event is inapplicable
        and ignored, mirroring the decomposition drivers.
        """
        cluster = self.cluster
        if isinstance(cluster, MultiNodeClusterSpec):
            if 0 <= node_index < cluster.num_nodes:
                return cluster.node_slots(node_index)
            return ()
        if 0 <= node_index < cluster.num_devices:
            return (node_index,)
        return ()

    def run(
        self,
        jobs: Sequence[Job],
        chaos: Optional[Sequence[NodeFailure]] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
        events: Optional[EventLog] = None,
    ) -> ScheduleOutcome:
        """Schedule and execute ``jobs``; returns the full ledger.

        ``chaos`` injects seeded node-loss events
        (:class:`~repro.gpusim.cluster.NodeFailure`, e.g. from
        :func:`~repro.serve.workload.generate_chaos`).  When an event
        fires, the node's slots stop accepting new placements, and every
        job whose committed run overlaps the failure instant on a dead
        slot (``finish_s > time_s``) is torn down: its result is dropped,
        its bookings stay on the timeline as wasted work, and the job is
        re-queued (re-preprocessing hits the warm cache) to be re-admitted
        on surviving slots.  An event's ``recover_s`` returns the node's
        slots to the placement pool at that time.  Numeric outputs are
        unaffected — a re-queued job recomputes the same bits on the
        survivor placement — so chaos perturbs only the schedule.

        ``metrics`` and ``events`` are the run's optional telemetry sinks
        (see :mod:`repro.obs`): with ``metrics``, every layer a job
        touches publishes into the registry (kernels included — it is
        threaded through :func:`~repro.serve.execute.execute_job` onto
        the :class:`~repro.context.ExecContext`); with ``events``, the
        event loop appends one structured record per scheduling decision.
        Both are observation-only: bookings and results are bit-identical
        with or without them.
        """
        ids = [job.job_id for job in jobs]
        if len(set(ids)) != len(ids):
            raise ValueError("job ids must be unique within one scheduler run")
        timeline = Timeline()
        state = _RunState(
            timeline=timeline,
            copy=[
                timeline.resource(device_copy_key(i), category="copy")
                for i in range(self.cluster.num_devices)
            ],
            compute=[
                timeline.resource(device_compute_key(i), category="compute")
                for i in range(self.cluster.num_devices)
            ],
            jobs=[0] * self.cluster.num_devices,
            pending=deque(sorted(jobs, key=lambda j: (j.arrival_s, j.job_id))),
            chaos=deque(sorted(chaos or (), key=lambda e: (e.time_s, e.node_index))),
            metrics=metrics,
            events=events,
        )
        if self.autoscale is not None:
            state.scaler = Autoscaler(self.autoscale, self.placer.scores)
            state.parked_slots = set(state.scaler.parked)
        clock = timeline.clock
        while state.pending or state.ready or state.chaos:
            self._fire_chaos(state, clock.now_s)
            self._admit(state, clock.now_s)
            self._autoscale(state, clock.now_s)
            if not self._dispatch_next(state):
                break
        return self._outcome(state)

    def _fire_chaos(self, state: _RunState, now: float) -> None:
        """Apply every chaos/recovery event due at ``now``.

        Recoveries apply first so a node failing and recovering at the
        same instant nets out failed (the failure is the later event).
        A failure abandons every commitment overlapping it on a dead slot
        and re-queues its job; the victim's bookings stay on the timeline
        as wasted work.
        """
        events = state.events
        state.pending_recovery.sort()
        while state.pending_recovery and state.pending_recovery[0][0] <= now:
            recover_at, node, slots = state.pending_recovery.pop(0)
            state.failed_nodes.discard(node)
            state.failed_slots.difference_update(slots)
            if events is not None:
                events.emit(
                    "node_recovery", time_s=recover_at, node=node, slots=list(slots)
                )
        while state.chaos and state.chaos[0].time_s <= now:
            event = state.chaos.popleft()
            slots = self._node_slots(event.node_index)
            if not slots:
                continue  # inapplicable event (node index out of range)
            state.fired.append(event)
            state.failed_nodes.add(event.node_index)
            state.failed_slots.update(slots)
            if event.recover_s is not None:
                state.pending_recovery.append(
                    (event.recover_s, event.node_index, slots)
                )
            dead = set(slots)
            victims = [
                c
                for c in state.committed.values()
                if c.result.finish_s > event.time_s
                and dead & set(c.result.device_slots)
            ]
            if events is not None:
                events.emit(
                    "node_failure",
                    time_s=event.time_s,
                    node=event.node_index,
                    slots=list(slots),
                    victims=len(victims),
                )
            for victim in victims:
                job = victim.entry.job
                state.requeue_counts[job.job_id] = (
                    state.requeue_counts.get(job.job_id, 0) + 1
                )
                victim.abandon(state, event.time_s)
                geometry = job_geometry(job, threadlen=self.placer.threadlen)
                entry = self._preprocess(job, geometry, state.availability)
                # Re-admission cannot predate the failure that caused it.
                entry.ready_s = max(entry.ready_s, event.time_s)
                entry.requeued = True
                state.ready.append((self._queue_key(job), entry))
                if events is not None:
                    events.emit(
                        "requeue",
                        time_s=event.time_s,
                        job_id=f"job{job.job_id}",
                        node=event.node_index,
                    )

    def _autoscale(self, state: _RunState, now: float) -> None:
        """Step the autoscaler (if any) against the queue and engine idleness."""
        scaler = state.scaler
        if scaler is None:
            return
        scaler.step(
            now,
            len(state.ready),
            [lane.free_s for lane in state.copy],
            [lane.free_s for lane in state.compute],
        )
        state.parked_slots = set(scaler.parked)
        if state.events is not None:
            for scale in scaler.events[state.scale_seen:]:
                state.events.emit(
                    "scale",
                    time_s=scale.time_s,
                    action=scale.action,
                    slot=scale.slot,
                    active_devices=scale.active_devices,
                )
        state.scale_seen = len(scaler.events)

    def _dispatch_next(self, state: _RunState) -> bool:
        """Dispatch the next stage-ready job, or advance the clock to the
        next event that reshapes the queue; ``False`` once nothing is left
        to wait for."""
        clock = state.timeline.clock
        upcoming = [
            t
            for t in (
                state.pending[0].arrival_s if state.pending else None,
                state.chaos[0].time_s if state.chaos else None,
                min(state.pending_recovery)[0] if state.pending_recovery else None,
            )
            if t is not None
        ]
        if not state.ready:
            if not upcoming:
                return False
            clock.advance_to(max(clock.now_s, min(upcoming)))
            return True
        # The next staging can begin when some active copy engine frees...
        active_copy = [
            lane
            for slot, lane in enumerate(state.copy)
            if slot not in state.parked_slots
        ] or state.copy
        t = max(clock.now_s, min(lane.free_s for lane in active_copy))
        # ...but arrivals and chaos/recovery events before that instant
        # reshape the queue (or the placement pool) first.
        blocker = min(upcoming, default=math.inf)
        if blocker <= t:
            clock.advance_to(max(clock.now_s, blocker))
            return True
        entry = self._pop_best_ready(state.ready, t)
        if entry is None:
            # Everyone queued is still preprocessing; advance to the
            # earliest readiness (or the next arrival/event).
            next_ready = min(e[1].ready_s for e in state.ready)
            clock.advance_to(min(next_ready, blocker))
            return True
        clock.advance_to(t)
        self._dispatch(state, entry, t)
        return True

    def _outcome(self, state: _RunState) -> ScheduleOutcome:
        """Fold a finished run's commitments and timeline into its ledger."""
        results = dict(state.rejected)
        results.update((jid, c.result) for jid, c in state.committed.items())
        requeues = state.requeue_counts
        ordered = [
            replace(results[job_id], requeues=requeues[job_id])
            if job_id in requeues
            else results[job_id]
            for job_id in sorted(results)
        ]
        timeline = state.timeline
        metrics = state.metrics
        # Fold the span-tagged trace into the per-job cost breakdown and
        # backfill the attributed fields on every completed result.  The
        # fold reads the timeline; it never writes, so the schedule is
        # bit-identical with or without telemetry consumers.
        attribution = attribute(timeline)
        for result in ordered:
            cost = attribution.jobs.get(f"job{result.job.job_id}")
            if result.completed and cost is not None:
                result.nic_wait_s = cost.nic_wait_s
                result.compute_s = cost.compute_s
                result.preemption_overhead_s = cost.preemption_overhead_s
        if self.observations is not None:
            # Close the loop: fold every completed job's attributed cost
            # and per-resource waits into the cross-run observation store.
            # Recording happens regardless of ``adaptive`` (which only
            # gates consumption), so a static run still warms the store.
            device_node = getattr(self.cluster, "device_node", None)
            for result in ordered:
                if not result.completed:
                    continue
                slots = result.device_slots
                self.observations.record(
                    kind=result.job.kind.value,
                    content_key=result.job.tensor.content_key,
                    device_names=[self.cluster.devices[s].name for s in slots],
                    slots=slots,
                    nodes=(
                        sorted({device_node[s] for s in slots})
                        if device_node is not None
                        else [0]
                    ),
                    exec_s=result.exec_s,
                    device_wait_s=max(
                        0.0,
                        result.exec_start_s
                        - (result.stage_start_s + result.stage_s),
                    ),
                    nic_wait_s=result.nic_wait_s,
                )
        if metrics is not None:
            attribution.publish(metrics)
            queue_wait = metrics.histogram(
                "repro_job_queue_wait_seconds",
                "Simulated seconds completed jobs waited between arrival "
                "and staging.",
            )
            for result in ordered:
                if result.completed:
                    queue_wait.observe(result.queue_wait_s)
            gangs = {
                e.label
                for e in timeline.events
                if e.busy
                and e.category in ("link", "nic")
                and e.span is not None
                and e.span.phase == "collective"
            }
            metrics.counter(
                "repro_nic_discipline_dispatch_total",
                "Collective gang dispatches through the NIC queue, by "
                "discipline.",
                ("policy",),
            ).inc(float(len(gangs)), policy=self.nic_policy)
        timelines = [
            DeviceTimeline(
                slot=i,
                device=d,
                copy_free_s=state.copy[i].free_s,
                compute_free_s=state.compute[i].free_s,
                busy_s=state.compute[i].busy_s,
                jobs=state.jobs[i],
            )
            for i, d in enumerate(self.cluster.devices)
        ]
        return ScheduleOutcome(
            results=ordered,
            timelines=timelines,
            timeline=timeline,
            failures=state.fired,
            requeued_jobs=sum(requeues.values()),
            preemptions=list(state.preemption_records),
            scale_events=list(state.scaler.events) if state.scaler is not None else [],
            attribution=attribution,
        )

    # ------------------------------------------------------------------ #
    def _dispatch(self, state: _RunState, entry: _ReadyEntry, t0: float) -> None:
        job = entry.job
        geometry = entry.geometry
        if entry.resume is not None and self._dispatch_resume(state, entry, t0):
            return
        placement = self.placer.place(
            job,
            geometry,
            [lane.free_s for lane in state.compute],
            t0,
            excluded_nodes=frozenset(state.failed_nodes),
            excluded_slots=frozenset(state.failed_slots | state.parked_slots),
        )
        if entry.launch is not None:
            placement = replace(
                placement, block_size=entry.launch[0], threadlen=entry.launch[1]
            )

        mates = [] if placement.sharded else self._pop_batch_mates(state.ready, job, t0)
        batch_id: Optional[int] = None
        if mates:
            batch_id = state.batch_seq
            state.batch_seq += 1

        try:
            outcome = execute_job(
                job,
                placement,
                encoding=entry.encoding,
                cache=self.cache,
                num_streams=self.num_streams,
                metrics=state.metrics,
            )
        except OutOfDeviceMemory as exc:
            # The admission estimate is first-order (autotune can raise the
            # threadlen after sizing, and geometry is host arithmetic); a
            # kernel-level capacity failure rejects this one job instead of
            # aborting the whole serving run.
            self._reject(
                state,
                job,
                f"rejected at execution: {exc}",
                code="out_of_device_memory",
                time_s=t0,
            )
            for mate in mates:
                state.ready.append((self._queue_key(mate.job), mate))
            return
        own = self._commit(
            state,
            entry,
            t0,
            placement,
            geometry,
            outcome,
            batch_id=batch_id,
            batch_leader=bool(mates),
            encoding_staged=True,
        )
        if (
            self.policy == "deadline"
            and math.isfinite(job.deadline_s)
            and own.result.finish_s > job.deadline_s
        ):
            # The deadline job would miss as booked: try to free its lanes
            # by preempting a committed batch job, then re-book.
            self._rescue(state, own, t0, geometry)

        for mate in mates:
            # The batch shares the leader's encoding (already staged) and
            # device; only the mate's dense operands still move.
            mate_outcome = execute_job(
                mate.job,
                placement,
                encoding=entry.encoding,
                cache=self.cache,
                num_streams=self.num_streams,
                metrics=state.metrics,
            )
            self._commit(
                state,
                mate,
                t0,
                placement,
                geometry,
                mate_outcome,
                batch_id=batch_id,
                batch_leader=False,
                encoding_staged=False,
            )

    # ------------------------------------------------------------------ #
    def _staging_seconds(
        self,
        job: Job,
        placement: Placement,
        geometry: JobGeometry,
        outcome: ExecutionOutcome,
        *,
        encoding_staged: bool,
    ) -> float:
        """Host-to-device staging time of one dispatched job.

        Resident jobs ship the F-COO arrays once plus the dense factor
        matrices (the output is produced on the device — it occupies
        memory there but never crosses PCIe, matching the CP engine's
        transfer accounting); a job that fell back to the streamed path
        re-ships its chunks inside the kernel (charged there), so only the
        factors stage here; batch mates reuse the leader's staged
        encoding.  CP jobs charge their transfer inside the engine setup
        (already part of ``exec_s``); Tucker has no setup accounting, so
        its worst-mode staging is charged here.
        """
        if outcome.execution == "decomposition":
            if job.kind is JobKind.TUCKER:
                return (
                    geometry.fcoo_bytes + geometry.factor_bytes
                ) / placement.primary_device.pcie_bandwidth_bytes_per_s
            return 0.0
        if placement.sharded:
            execution = getattr(outcome.profile, "sharded", None)
            if execution is None:
                return 0.0
            # Every device stages its own shard (plus its replica of the
            # dense factors) over its own host link, concurrently.  The
            # ledgers index the *execution* cluster — one node of the
            # serving cluster for a node-local shard.
            devices = placement.cluster.devices
            return max(
                (
                    (ledger.staged_bytes + geometry.factor_bytes)
                    / devices[ledger.index].pcie_bandwidth_bytes_per_s
                    for ledger in execution.shards
                ),
                default=0.0,
            )
        device = placement.device
        fcoo_bytes = geometry.fcoo_bytes if encoding_staged else 0.0
        if outcome.execution == "streamed":
            fcoo_bytes = 0.0
        return (fcoo_bytes + geometry.factor_bytes) / device.pcie_bandwidth_bytes_per_s

    def _commit(
        self,
        state: _RunState,
        entry: _ReadyEntry,
        t0: float,
        placement: Placement,
        geometry: JobGeometry,
        outcome: ExecutionOutcome,
        *,
        batch_id: Optional[int],
        batch_leader: bool,
        encoding_staged: bool,
    ) -> _Commitment:
        """Book one executed job onto the shared timeline.

        Staging gang-books the placement's copy engines, execution books
        each device's compute engine for its actual busy seconds, and a
        sharded job's partial-output collective books the execution
        cluster's link/NIC resources after the slowest shard.  On idle
        resources the resolved times equal the pre-refactor closed forms
        bit for bit (``finish == exec_start + exec_s``); a collective that
        queues behind another job's on a shared NIC pushes the finish
        later — never earlier.  Every participating compute engine is held
        (a non-busy reservation) until the job completes, since the
        devices take part in the collective.
        """
        job = entry.job
        tag = f"job{job.job_id}"
        stage_s = self._staging_seconds(
            job, placement, geometry, outcome, encoding_staged=encoding_staged
        )
        slots = placement.device_slots
        copy_lanes = [state.copy[s] for s in slots]
        compute_lanes = [state.compute[s] for s in slots]

        stage = state.timeline.book_together(
            copy_lanes,
            stage_s,
            ready_s=max(t0, entry.ready_s),
            label=f"stage:{tag}",
            # A post-failure re-admission's re-staging is recovery overhead,
            # not first-run staging; the attribution fold keeps them apart.
            span=Span(
                tag,
                kernel=job.kind.value,
                phase="recovery" if entry.requeued else "stage",
            ),
        )
        stage_start, stage_end = stage.start_s, stage.end_s
        tracked: List[Booking] = list(stage.bookings)
        exec_bookings: List[Booking] = []

        execution = getattr(outcome.profile, "sharded", None) if placement.sharded else None
        busy_by_slot: Dict[int, float]
        if placement.sharded:
            # The execution ledgers index the placement's cluster (a node
            # of the serving cluster for a node-local shard); translate the
            # local device indices to the serving cluster's flat slots.
            if execution is not None:
                busy_by_slot = {
                    slots[local]: busy
                    for local, busy in execution.device_times.items()
                }
            else:
                per_device = getattr(outcome.output, "device_time_by_device", None)
                busy_by_slot = (
                    {slots[local]: busy for local, busy in per_device.items()}
                    if per_device
                    else {s: outcome.exec_s for s in slots}
                )
        else:
            busy_by_slot = {slots[0]: outcome.exec_s}

        exec_start = stage_end
        for lane in compute_lanes:
            exec_start = max(exec_start, lane.free_s)
        for lane, slot in zip(compute_lanes, slots):
            busy = busy_by_slot.get(slot, 0.0)
            if busy > 0.0:
                exec_bookings.append(
                    lane.book(
                        busy,
                        ready_s=exec_start,
                        label=f"exec:{tag}",
                        span=Span(tag, kernel=job.kind.value, phase="compute"),
                    )
                )
        tracked.extend(exec_bookings)

        # The idle-resource closed form; link/NIC contention can only delay it.
        finish = exec_start + outcome.exec_s
        if placement.sharded:
            if execution is not None:
                reduction_s = execution.reduction_time_s
                compute_span = execution.max_shard_time_s
                reduction_kind = execution.reduction_kind
            else:
                # A sharded decomposition: its per-mode collectives live on
                # the driver's own timeline (CPResult/TuckerResult carry
                # it); book their aggregate on the serving cluster's
                # link/NIC resources so decomposition jobs contend for a
                # shared NIC exactly like kernel jobs do.  One tail
                # booking is the job-level granularity the scheduler
                # prices everything else at.
                result_timeline = getattr(outcome.output, "timeline", None)
                reduction_s = (
                    sum(
                        e.duration_s
                        for e in result_timeline.events
                        if e.busy and e.category in ("link", "nic")
                    )
                    if result_timeline is not None
                    else 0.0
                )
                compute_span = outcome.exec_s - reduction_s
                reduction_kind = "collectives"
        else:
            reduction_s = 0.0
            compute_span = outcome.exec_s
        if reduction_s > 0.0 and placement.cluster is not None:
            compute_end = exec_start + compute_span
            resources = placement.cluster.collective_resources(state.timeline)
            red_start = compute_end
            for resource in resources:
                red_start = max(red_start, resource.free_s)
            if red_start > compute_end:
                # The collective queued behind another job's on a shared
                # link/NIC: the whole job completes later.
                finish = red_start + reduction_s
            collective = state.timeline.book_together(
                resources,
                finish - red_start,
                ready_s=red_start,
                label=f"{reduction_kind}:{tag}",
                span=Span(tag, kernel=job.kind.value, phase="collective"),
                # The job was NIC-ready the moment its compute drained;
                # ``red_start - compute_end`` is pure shared-NIC queueing and
                # lands in the per-job ``nic_wait_s`` breakdown.
                queued_from_s=compute_end,
            )
            tracked.extend(collective.bookings)
        # Hold every participating compute engine to the job's completion
        # (the devices take part in the collective; nothing else may slot in).
        for lane in compute_lanes:
            if finish > lane.free_s:
                tracked.append(
                    lane.book(
                        finish - lane.free_s,
                        ready_s=lane.free_s,
                        label=f"barrier:{tag}",
                        busy=False,
                    )
                )

        detail: Dict[str, object] = dict(
            slots=list(slots), execution=outcome.execution, batch_id=batch_id
        )
        rationale = self.placer.last_rationale
        if self.adaptive and rationale is not None:
            # Placement rationale (record-only): the chosen slot's blended
            # score, the static roofline score it would have had, and the
            # observed congestion folded in.  Emitted only on adaptive
            # runs, so static event logs are byte-identical to earlier
            # releases.
            for key in ("blended_score_s", "static_score_s", "observed_congestion_s"):
                detail[key] = rationale[key]
        result = JobResult(
            job=job,
            status=JobStatus.COMPLETED,
            output=outcome.output,
            device_slots=slots,
            execution=outcome.execution,
            encode_cache_hit=entry.encode_hit,
            tuner_cache_hit=entry.tuner_hit,
            batch_id=batch_id,
            batch_leader=batch_leader,
            preproc_s=entry.preproc_s,
            stage_s=stage_s,
            exec_s=outcome.exec_s,
            stage_start_s=stage_start,
            exec_start_s=exec_start,
            finish_s=finish,
            block_size=placement.block_size,
            threadlen=placement.threadlen,
            placement=placement,
            preemptions=entry.preemptions,
            preempted_s=(
                max(0.0, stage_start - entry.preempted_from_s)
                if entry.preemptions
                else 0.0
            ),
        )
        commitment = _Commitment(
            entry=entry,
            placement=placement,
            outcome=outcome,
            result=result,
            bookings=tracked,
            stage_booking=stage.bookings[0] if len(stage.bookings) == 1 else None,
            exec_booking=exec_bookings[0] if len(exec_bookings) == 1 else None,
        )
        return self._register(state, commitment, "dispatch", **detail)

    @staticmethod
    def _register(
        state: _RunState, commitment: _Commitment, start_kind: str, **detail: object
    ) -> _Commitment:
        """The shared tail of a dispatch and a resume: emit the provisional
        start and ``complete`` events, count the job on its slots, and make
        the commitment live."""
        result = commitment.result
        tag = f"job{result.job.job_id}"
        for slot in result.device_slots:
            state.jobs[slot] += 1
        if state.events is not None:
            commitment.start_event = state.events.emit(
                start_kind, time_s=result.stage_start_s, job_id=tag, **detail
            )
            commitment.complete_event = state.events.emit(
                "complete",
                time_s=result.finish_s,
                job_id=tag,
                execution=result.execution,
                exec_s=result.exec_s,
            )
        state.committed[result.job.job_id] = commitment
        return commitment

    # ------------------------------------------------------------------ #
    # Preemption (policy="deadline")
    # ------------------------------------------------------------------ #
    def _rescue(
        self, state: _RunState, own: _Commitment, t0: float, geometry: JobGeometry
    ) -> None:
        """Try to rescue a deadline job that would miss as first booked.

        The job's own (just-made) commitment is revoked whole, one
        committed batch victim sharing its device slots is preempted, and
        the job is re-committed onto the freed lanes.  When no victim can
        be preempted the re-commit round-trips to the exact original
        booking — :meth:`~repro.gpusim.timeline.Timeline.release` restores
        every lane horizon, so the re-booked times are identical.
        """
        slots = set(own.placement.device_slots)
        candidates = sorted(
            (
                c
                for c in state.committed.values()
                if c is not own
                and c.result.finish_s > t0
                and c.result.batch_id is None
                and not c.resumed
                and c.entry.job.preemptible
                and not math.isfinite(c.entry.job.deadline_s)
                and slots & set(c.placement.device_slots)
            ),
            # Latest-finishing victim first: it holds the most future time.
            key=lambda c: (-c.result.finish_s, c.entry.job.job_id),
        )
        if not candidates or own.revoke(state) is None:
            return
        for cand in candidates:
            if self._preempt_victim(state, cand, t0, own.entry.job):
                break
        self._commit(
            state,
            own.entry,
            t0,
            own.placement,
            geometry,
            own.outcome,
            batch_id=own.result.batch_id,
            batch_leader=own.result.batch_leader,
            encoding_staged=True,
        )

    def _preempt_victim(
        self, state: _RunState, cand: _Commitment, t: float, by: Job
    ) -> bool:
        """Preempt one committed job at ``t``; ``False`` leaves it untouched.

        Three shapes are releasable; everything else (a one-shot kernel or
        a sharded shard mid-compute — no checkpoint boundary) is skipped:

        * nothing started yet (all bookings at/after ``t``) — full release
          and a from-scratch re-queue;
        * caught mid-staging — the stage booking is cut at ``t`` (shipped
          bytes are sunk cost), the rest released, from-scratch re-queue;
        * a streamed job caught mid-compute — the compute booking is cut
          at the first chunk boundary past ``t`` and the victim re-queues
          with a resume ledger (completed chunks stand; the remaining
          chunks' pipeline re-books at resume, plus a factor re-stage).

        The cut itself is :meth:`_Commitment.revoke`, which refuses (and
        changes nothing) when a victim's lanes hold later bookings, e.g.
        behind another job's barrier.
        """
        victim = cand.entry.job
        streaming = getattr(cand.outcome.profile, "streaming", None)
        boundary = t
        completed = 0
        total = streaming.num_chunks if streaming is not None else 0
        resume: Optional[_ResumeState] = None
        flying = cand.in_flight(t)
        if flying:
            cut = flying[0]
            if (
                cut is cand.exec_booking
                and streaming is not None
                and not cand.placement.sharded
            ):
                sched = streaming.schedule
                exec_start = cand.result.exec_start_s
                idx = next(
                    (
                        i
                        for i, end in enumerate(sched.compute_ends)
                        if exec_start + end >= t
                    ),
                    None,
                )
                if idx is None or idx + 1 >= streaming.num_chunks:
                    return False  # last chunk in flight: nothing to give back
                completed = idx + 1
                boundary = exec_start + sched.compute_ends[idx]
                if boundary >= cut.end_s:
                    return False
                remaining_s = schedule_chunks(
                    sched.timings[completed:], streaming.num_streams
                ).total_time_s
                resume = _ResumeState(
                    placement=cand.placement,
                    outcome=cand.outcome,
                    completed_chunks=completed,
                    total_chunks=total,
                    remaining_exec_s=remaining_s,
                    resume_stage_s=(
                        cand.entry.geometry.factor_bytes
                        / cand.placement.primary_device.pcie_bandwidth_bytes_per_s
                    ),
                )
            elif cut is not cand.stage_booking:
                return False
        released = cand.revoke(state, t, cut_at=boundary)
        if released is None:
            return False

        entry = cand.entry
        entry.ready_s = max(entry.ready_s, boundary)
        entry.preemptions += 1
        entry.preempted_from_s = boundary
        entry.resume = resume
        state.ready.append((self._queue_key(victim), entry))
        state.preemption_records.append(
            PreemptionRecord(
                job_id=victim.job_id,
                preempted_by=by.job_id,
                time_s=boundary,
                completed_chunks=completed,
                total_chunks=total,
                released_s=released,
                resume_stage_s=resume.resume_stage_s if resume is not None else 0.0,
            )
        )
        if state.events is not None:
            state.events.emit(
                "preempt",
                time_s=boundary,
                job_id=f"job{victim.job_id}",
                preempted_by=f"job{by.job_id}",
                completed_chunks=completed,
                total_chunks=total,
                released_s=released,
            )
        return True

    def _dispatch_resume(
        self, state: _RunState, entry: _ReadyEntry, t0: float
    ) -> bool:
        """Re-book a preempted streamed job's remaining work.

        The numeric output was computed at the original dispatch; resuming
        books only time — a factor re-stage on the placement's copy lane,
        then the remaining chunks' pipeline on its compute lane.  Returns
        ``False`` (clearing the ledger, so the caller re-dispatches from
        scratch) when the placement's slots have meanwhile failed or been
        parked.
        """
        rs = entry.resume
        assert rs is not None
        job = entry.job
        placement = rs.placement
        slots = placement.device_slots
        if any(
            s in state.failed_slots or s in state.parked_slots for s in slots
        ):
            entry.resume = None
            return False
        tag = f"job{job.job_id}"
        compute_lanes = [state.compute[s] for s in slots]
        stage = state.timeline.book_together(
            [state.copy[s] for s in slots],
            rs.resume_stage_s,
            ready_s=max(t0, entry.ready_s),
            label=f"resume-stage:{tag}",
            span=Span(tag, kernel=job.kind.value, phase="resume"),
        )
        exec_start = stage.end_s
        for lane in compute_lanes:
            exec_start = max(exec_start, lane.free_s)
        tracked: List[Booking] = list(stage.bookings)
        exec_booking: Optional[Booking] = None
        if rs.remaining_exec_s > 0.0:
            exec_booking = compute_lanes[0].book(
                rs.remaining_exec_s,
                ready_s=exec_start,
                label=f"resume:{tag}",
                span=Span(tag, kernel=job.kind.value, phase="resume"),
            )
            tracked.append(exec_booking)
        result = JobResult(
            job=job,
            status=JobStatus.COMPLETED,
            output=rs.outcome.output,
            device_slots=slots,
            execution=rs.outcome.execution,
            encode_cache_hit=entry.encode_hit,
            tuner_cache_hit=entry.tuner_hit,
            preproc_s=entry.preproc_s,
            stage_s=rs.resume_stage_s,
            exec_s=rs.outcome.exec_s,
            stage_start_s=stage.start_s,
            exec_start_s=exec_start,
            finish_s=exec_start + rs.remaining_exec_s,
            block_size=placement.block_size,
            threadlen=placement.threadlen,
            placement=placement,
            preemptions=entry.preemptions,
            preempted_s=max(0.0, exec_start - entry.preempted_from_s),
        )
        commitment = _Commitment(
            entry=entry,
            placement=placement,
            outcome=rs.outcome,
            result=result,
            bookings=tracked,
            stage_booking=stage.bookings[0] if len(stage.bookings) == 1 else None,
            exec_booking=exec_booking,
            resumed=True,
        )
        self._register(
            state,
            commitment,
            "resume",
            completed_chunks=rs.completed_chunks,
            total_chunks=rs.total_chunks,
        )
        return True
