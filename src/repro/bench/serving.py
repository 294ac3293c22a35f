"""Multi-tenant serving over the simulated cluster (extension experiment).

The paper measures one kernel at a time; the ROADMAP's north star is a
system *serving* a stream of them.  This runner generates a seeded
synthetic multi-tenant workload (see
:class:`repro.serve.workload.WorkloadSpec`), serves it through the
:class:`repro.serve.ServingEngine` on the default heterogeneous analog
node, and reports throughput, latency percentiles, per-device utilisation
and preprocessing-cache effectiveness.  Everything is simulated time from
the deterministic cost models, so the numbers are reproducible bit for bit
and feed the CI regression gate (``repro.bench.regression``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autotune import tune_unified
from repro.context import ExecContext
from repro.gpusim.cluster import ClusterLike
from repro.gpusim.timing import OutOfDeviceMemory
from repro.kernels.unified import run_unified
from repro.serve.autoscale import AutoscalerSpec
from repro.serve.cache import SERVING_BLOCK_SIZES, SERVING_THREADLENS, PreprocCache
from repro.serve.engine import ServingEngine, ServingReport
from repro.serve.scheduler import tuner_device
from repro.serve.workload import (
    ChaosSpec,
    WorkloadSpec,
    default_multinode_serving_cluster,
    default_serving_cluster,
    generate_chaos,
    generate_workload,
)

__all__ = ["run_serving", "plan_execute_mismatches", "DEFAULT_CROSS_NODE_EVERY"]

#: Cross-node tenant cadence of the multi-node serving mode: every n-th job
#: submits the tensor that exceeds any single node's aggregate memory.
DEFAULT_CROSS_NODE_EVERY = 14


def run_serving(
    *,
    num_jobs: int = 100,
    seed: int = 0,
    policy: str = "priority",
    cluster: Optional[ClusterLike] = None,
    nodes: Optional[int] = None,
    autotune: bool = True,
    max_batch: int = 4,
    max_queue_depth: Optional[int] = None,
    cache_capacity_bytes: Optional[int] = None,
    chaos_seed: Optional[int] = None,
    fail_node: Optional[int] = None,
    recover_after_s: Optional[float] = None,
    slo_fraction: float = 0.0,
    deadline_slack: Optional[float] = None,
    autoscale: Optional[AutoscalerSpec] = None,
    adaptive: bool = False,
    nic_policy: str = "fifo",
) -> ServingReport:
    """Serve a seeded synthetic workload and return the full report.

    Parameters
    ----------
    num_jobs / seed:
        Workload size and seed (the default 100-job workload exercises
        every path: one-shot, streamed, capability-weighted sharded,
        decompositions, batching, cache hits and admission rejects).
    policy:
        ``"priority"``, ``"fifo"`` or ``"deadline"`` (earliest deadline
        first with chunk-boundary preemption of batch jobs).
    cluster:
        Serving node; defaults to the heterogeneous
        :func:`~repro.serve.workload.default_serving_cluster`.
    nodes:
        Multi-node serving mode: with ``nodes >= 2`` (and no explicit
        ``cluster``) the engine runs on
        :func:`~repro.serve.workload.default_multinode_serving_cluster`
        and the workload adds cross-node tenants every
        :data:`DEFAULT_CROSS_NODE_EVERY` jobs, so the report exercises
        node-local sharding (off the NIC) *and* NIC-spanning jobs.
    autotune:
        Reuse tuned launch parameters through the preprocessing cache.
    max_batch / max_queue_depth / cache_capacity_bytes:
        Scheduler batching bound, admission queue bound, and cache budget.
    chaos_seed / fail_node / recover_after_s:
        Seeded chaos layer: with ``chaos_seed`` set, one node-loss event is
        drawn (:func:`~repro.serve.workload.generate_chaos`) inside the
        workload's arrival window and injected into the run — the
        scheduler tears down jobs in flight on the dead node and re-admits
        them on survivors.  ``fail_node`` pins the victim node instead of
        drawing it; ``recover_after_s`` returns the node to the placement
        pool that long after the failure.  Chaos draws from its own RNG
        stream, so the job list is identical to the failure-free run.
    slo_fraction / deadline_slack:
        SLO-driven serving: ``slo_fraction`` of the jobs become latency
        tenants with a deadline (see
        :attr:`~repro.serve.workload.WorkloadSpec.latency_slo_fraction`);
        ``deadline_slack`` overrides the workload's deadline tightness.
        The SLO draws are gated on the fraction, so ``slo_fraction=0``
        (the default) keeps the workload byte-identical to earlier PRs.
    autoscale:
        Optional :class:`~repro.serve.autoscale.AutoscalerSpec` enabling
        the device-pool autoscaler.
    adaptive / nic_policy:
        Closed-loop feedback scheduling: ``adaptive`` turns on the hedged
        adaptive run (observed times feed the placer and tuner; static
        wins ties, so adaptive never loses the makespan), ``nic_policy``
        selects the NIC queue discipline (``"fifo"``, ``"fair"``,
        ``"priority"``).  Both default off, keeping earlier baselines
        byte-identical.
    """
    cross_node_every = 0
    if nodes is not None and nodes >= 2:
        if cluster is None:
            cluster = default_multinode_serving_cluster(nodes)
        cross_node_every = DEFAULT_CROSS_NODE_EVERY
    engine = ServingEngine(
        cluster,
        cache=PreprocCache(capacity_bytes=cache_capacity_bytes),
        policy=policy,
        max_batch=max_batch,
        max_queue_depth=max_queue_depth,
        autotune=autotune,
        autoscale=autoscale,
        adaptive=adaptive,
        nic_policy=nic_policy,
    )
    spec_kwargs = dict(
        num_jobs=num_jobs,
        seed=seed,
        cross_node_every=cross_node_every,
        latency_slo_fraction=slo_fraction,
    )
    if deadline_slack is not None:
        spec_kwargs["deadline_slack"] = deadline_slack
    jobs = generate_workload(WorkloadSpec(**spec_kwargs))
    chaos = None
    if chaos_seed is not None:
        num_targets = (
            nodes
            if nodes is not None and nodes >= 2
            else engine.cluster.num_devices
        )
        # Strike inside the arrival window, so jobs are still in flight.
        window_s = max((j.arrival_s for j in jobs), default=0.0) or 1e-3
        chaos = generate_chaos(
            ChaosSpec(
                seed=chaos_seed,
                num_failures=1,
                window_s=window_s,
                fail_node=fail_node,
                recover_after_s=recover_after_s,
            ),
            num_nodes=num_targets,
        )
    return engine.run(jobs, chaos=chaos)


def plan_execute_mismatches(*, num_jobs: int = 40, seed: int = 0) -> int:
    """Tuner cells whose plan-priced time differs from the executed time.

    For every distinct kernel-job shape of the seeded workload — what the
    serving tuner sweeps on the default node — the tuner's cost-only
    surface over the serving axes is compared cell by cell with running
    the job's own kernel, numerics included, at that cell's launch on the
    tuner's device.  Both sides must report the same seconds bit for bit
    (``inf`` on both for a launch that does not fit); the return value
    counts the cells where they do not.
    """
    device = tuner_device(default_serving_cluster())
    mismatches = 0
    seen = set()
    for job in generate_workload(WorkloadSpec(num_jobs=num_jobs, seed=seed)):
        if not job.kind.is_kernel or job.batch_key in seen:
            continue
        seen.add(job.batch_key)
        planned = tune_unified(
            job.tensor,
            job.operation,
            job.mode,
            rank=job.rank,
            device=device,
            block_sizes=SERVING_BLOCK_SIZES,
            threadlens=SERVING_THREADLENS,
        ).times
        factors = job.factors()
        for i, block_size in enumerate(SERVING_BLOCK_SIZES):
            for j, threadlen in enumerate(SERVING_THREADLENS):
                try:
                    executed = run_unified(
                        job.operation,
                        job.tensor,
                        factors,
                        job.mode,
                        device=device,
                        block_size=block_size,
                        threadlen=threadlen,
                        ctx=ExecContext(),
                    ).estimated_time_s
                except OutOfDeviceMemory:
                    executed = np.inf
                mismatches += int(
                    np.float64(executed).tobytes() != np.float64(planned[i, j]).tobytes()
                )
    return mismatches
