"""Job execution: one placed job -> numeric output + simulated seconds.

This module is deliberately *pure*: given a job and a placement, the
numeric output and the simulated execution time are fully determined — no
scheduler state, no clock, no cache bookkeeping.  The scheduler calls it to
run dispatched jobs, and the property harness in ``tests/test_serving.py``
calls it directly to prove that scheduling, batching and caching never
perturb numerics: replaying a scheduled job's recorded placement through
:func:`execute_job` must reproduce its output bit for bit.

Kernel jobs run the unified kernels (one-shot, with the kernels' own
auto-fallback to the PR 1 streamed path on an over-capacity device, or
sharded across the placement's cluster); decomposition jobs run the full
CP-ALS / Tucker-HOOI drivers with the placement's device or cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from repro.algorithms.cp import UnifiedGPUEngine, cp_als
from repro.algorithms.tucker import tucker_hooi
from repro.context import ExecContext
from repro.formats.fcoo import FCOOTensor
from repro.kernels.unified.dispatch import run_unified
from repro.serve.job import Job, JobKind
from repro.serve.placement import Placement

if TYPE_CHECKING:  # pragma: no cover - import-time only
    from repro.obs.metrics import MetricsRegistry

__all__ = ["ExecutionOutcome", "execute_job"]


@dataclass
class ExecutionOutcome:
    """What executing one placed job produced.

    Attributes
    ----------
    output:
        The numeric result: the kernel output (dense matrix or semi-sparse
        tensor) for kernel jobs, the full
        :class:`~repro.algorithms.cp.CPResult` /
        :class:`~repro.algorithms.tucker.TuckerResult` for decompositions.
    exec_s:
        Simulated execution seconds (decompositions include their engine
        setup/transfer time).
    execution:
        Path taken: ``"one-shot"``, ``"streamed"``, ``"sharded"`` or
        ``"decomposition"``.
    profile:
        The kernel profile (kernel jobs only; carries the streaming /
        sharded ledgers the scheduler prices staging from).
    """

    output: Any
    exec_s: float
    execution: str
    profile: Any = None


def execute_job(
    job: Job,
    placement: Placement,
    *,
    encoding: Optional[FCOOTensor] = None,
    cache: Optional[object] = None,
    num_streams: int = 2,
    metrics: Optional["MetricsRegistry"] = None,
    nic_policy: str = "fifo",
) -> ExecutionOutcome:
    """Execute one placed job; deterministic in ``(job, placement)``.

    Parameters
    ----------
    job / placement:
        What to run and where (see :class:`~repro.serve.placement.Placer`).
    encoding:
        Pre-built F-COO encoding for kernel jobs (normally supplied by the
        scheduler from its :class:`~repro.serve.cache.PreprocCache`); built
        on the fly when absent.  The encoding never changes numerics — it
        is a function of ``(tensor, operation, mode)`` alone.
    cache:
        Optional preprocessing cache forwarded to the decomposition
        drivers, so their per-mode encodings are shared across jobs.
    num_streams:
        Stream count for the kernels' out-of-core fallback.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` threaded onto
        the :class:`~repro.context.ExecContext`, so the kernels and
        decomposition drivers publish launch/timing telemetry.  Purely
        observational — outputs and modeled seconds are bit-identical with
        or without it (the replay property holds either way).
    nic_policy:
        The serving run's NIC queue discipline, carried on the
        :class:`~repro.context.ExecContext` for downstream consumers.
        Record-only here: the kernels and drivers never reorder their own
        collectives, so outputs and modeled seconds are unchanged.
    """
    ctx = ExecContext(
        num_streams=num_streams,
        cluster=placement.cluster,
        preproc_cache=cache,
        metrics=metrics,
        nic_policy=nic_policy,
    )
    if job.kind.is_kernel:
        if encoding is None:
            encoding = FCOOTensor.from_sparse(job.tensor, job.operation, job.mode)
        result = run_unified(
            job.operation,
            encoding,
            job.factors(),
            job.mode,
            device=placement.primary_device,
            block_size=placement.block_size,
            threadlen=placement.threadlen,
            ctx=ctx,
        )
        profile = result.profile
        if getattr(profile, "sharded", None) is not None:
            execution = "sharded"
        elif getattr(profile, "streaming", None) is not None:
            execution = "streamed"
        else:
            execution = "one-shot"
        return ExecutionOutcome(
            output=result.output,
            exec_s=result.estimated_time_s,
            execution=execution,
            profile=profile,
        )

    if job.kind is JobKind.CP_ALS:
        engine = UnifiedGPUEngine(
            device=placement.primary_device,
            block_size=placement.block_size,
            threadlen=placement.threadlen,
            ctx=ctx,
        )
        result = cp_als(
            job.tensor,
            job.rank,
            engine=engine,
            max_iterations=job.iterations,
            seed=job.factor_seed,
            compute_fit=False,
        )
        return ExecutionOutcome(
            output=result,
            exec_s=result.setup_time_s + result.total_time_s,
            execution="decomposition",
        )

    result = tucker_hooi(
        job.tensor,
        job.tucker_ranks,
        device=placement.primary_device,
        max_iterations=job.iterations,
        seed=job.factor_seed,
        block_size=placement.block_size,
        threadlen=placement.threadlen,
        ctx=ctx,
    )
    return ExecutionOutcome(
        output=result,
        exec_s=result.total_time_s,
        execution="decomposition",
    )
