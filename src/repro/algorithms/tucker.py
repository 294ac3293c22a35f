"""Tucker decomposition via HOOI, built on the unified SpTTMc kernel.

The paper notes (Section IV-D) that the same unified approach implements the
Tucker decomposition, whose bottleneck kernel is the tensor-times-matrix
chain (TTMc, Equation 4).  HOOI (Higher-Order Orthogonal Iteration)
alternates over the modes: for mode ``n`` it forms ``Y = X ×_{m≠n} U_mᵀ``
and takes the leading ``R_n`` left singular vectors of the mode-``n``
unfolding of ``Y`` as the new factor.  The core tensor is recovered at the
end as ``G = X ×_0 U_0ᵀ ×_1 U_1ᵀ ···``.

This module is the "extension" deliverable: it exercises
:func:`repro.kernels.unified.spttmc.unified_spttmc` inside a complete
algorithm and provides the fit metric used by its tests and example.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.cp import RecoveryRecord
from repro.backends import get_backend
from repro.context import DEFAULT_CONTEXT, ExecContext
from repro.formats.fcoo import FCOOTensor
from repro.formats.mode_encoding import OperationKind
from repro.gpusim.cluster import MultiNodeClusterSpec, NodeFailure, resolve_cluster
from repro.gpusim.device import DeviceSpec, TITAN_X
from repro.gpusim.timeline import Timeline, device_compute_key
from repro.kernels.unified.sharded import ShardedTimeline, plan_node_recovery
from repro.kernels.unified.spttmc import unified_spttmc
from repro.obs.metrics import observe_decomposition
from repro.tensor.sparse import SparseTensor
from repro.util.rng import SeedLike, as_rng
from repro.util.validation import check_positive_int

__all__ = ["TuckerResult", "tucker_hooi"]


@dataclass
class TuckerResult:
    """Result of a HOOI Tucker decomposition.

    Attributes
    ----------
    core:
        Dense core tensor of shape ``ranks``.
    factors:
        One orthonormal ``(I_m, R_m)`` factor per mode.
    fits:
        Fit value after each iteration.
    iterations:
        Iterations executed.
    ttmc_time_by_mode:
        Total simulated SpTTMc seconds per mode.
    preproc_time_s:
        Host seconds of preprocessing-cache *misses* (F-COO encodes) when
        the decomposition ran with a ``preproc_cache``; 0 otherwise.  Kept
        separate from the kernel times, mirroring how the CP engine
        charges encode misses into its setup rather than its iterations.
    device_time_by_device:
        Per-device busy seconds of the whole decomposition when the TTMcs
        ran in multi-GPU mode (``None`` otherwise).
    parallel_efficiency:
        Cluster busy fraction over the sharded TTMc makespans, in
        ``(0, 1]`` (``None`` for single-GPU runs).
    makespan_s:
        Modeled completion time of the kernel work on the unified
        timeline: each sweep's SpTTMc computes book the per-device compute
        engines and their all-reduces book the cluster's link/NIC
        resources, sequentially — HOOI's SVD consumes the *fully* reduced
        unfolding, so (unlike CP-ALS's solve) there is no dense phase to
        hide a collective behind.  Equals :attr:`total_time_s` up to float
        association.
    timeline:
        The :class:`~repro.gpusim.timeline.Timeline` those bookings landed
        on (queryable; Chrome-trace exportable).
    recoveries:
        One :class:`~repro.algorithms.cp.RecoveryRecord` per node loss
        survived mid-run (empty for failure-free runs).
    recovery_overhead_s:
        Total modeled re-staging seconds across all recoveries; the
        replayed sweeps' kernel cost lands in the ordinary ledgers.
    preemptions:
        Always empty for a standalone decomposition; present so
        :class:`TuckerResult` satisfies the
        :class:`~repro.context.TimedResult` protocol.
    """

    core: np.ndarray
    factors: List[np.ndarray]
    fits: List[float]
    iterations: int
    ttmc_time_by_mode: Dict[int, float]
    device_time_by_device: Optional[Dict[int, float]] = None
    parallel_efficiency: Optional[float] = None
    preproc_time_s: float = 0.0
    makespan_s: Optional[float] = None
    timeline: Optional[Timeline] = None
    recoveries: List[RecoveryRecord] = field(default_factory=list)
    recovery_overhead_s: float = 0.0
    preemptions: List[object] = field(default_factory=list)

    @property
    def total_time_s(self) -> float:
        """Total simulated kernel time."""
        return sum(self.ttmc_time_by_mode.values())

    @property
    def final_fit(self) -> Optional[float]:
        """Fit after the last iteration (``None`` when no iterations ran)."""
        return self.fits[-1] if self.fits else None


def tucker_hooi(
    tensor: SparseTensor,
    ranks: Sequence[int],
    *,
    device: DeviceSpec = TITAN_X,
    max_iterations: int = 5,
    tolerance: float = 1e-5,
    seed: SeedLike = 0,
    block_size: int = 128,
    threadlen: int = 8,
    ctx: Optional[ExecContext] = None,
) -> TuckerResult:
    """Tucker decomposition of a sparse tensor via HOOI on the unified kernels.

    Parameters
    ----------
    tensor:
        Sparse input tensor.
    ranks:
        Target multilinear rank, one entry per mode (each at most the mode
        size).
    device, block_size, threadlen:
        Passed to the unified SpTTMc kernel.
    max_iterations / tolerance:
        HOOI sweep limit and fit-improvement stopping threshold.
    seed:
        Seed for the random orthonormal initial factors.
    ctx:
        The :class:`~repro.context.ExecContext` (``None`` means
        :data:`~repro.context.DEFAULT_CONTEXT`).  The run reads its
        ``cluster`` / ``devices`` (forwarded to every SpTTMc; the result
        then reports per-device timelines and scaling efficiency),
        ``preproc_cache``, ``chaos``, ``backend`` and ``metrics`` fields.
    """
    ctx = ctx if ctx is not None else DEFAULT_CONTEXT
    backend_impl = get_backend(ctx.backend)
    if tensor.nnz == 0:
        raise ValueError("cannot decompose an all-zero tensor")
    order = tensor.order
    ranks = [check_positive_int(r, f"ranks[{i}]") for i, r in enumerate(ranks)]
    if len(ranks) != order:
        raise ValueError(f"need one rank per mode ({order}), got {len(ranks)}")
    for m, r in enumerate(ranks):
        if r > tensor.shape[m]:
            raise ValueError(
                f"ranks[{m}]={r} exceeds the mode size {tensor.shape[m]}"
            )
    max_iterations = check_positive_int(max_iterations, "max_iterations")

    rng = as_rng(seed)
    factors: List[np.ndarray] = []
    for m in range(order):
        gaussian = rng.standard_normal((tensor.shape[m], ranks[m]))
        q, _ = np.linalg.qr(gaussian)
        factors.append(q[:, : ranks[m]])

    x_norm = tensor.norm()
    ttmc_time_by_mode: Dict[int, float] = {m: 0.0 for m in range(order)}
    fits: List[float] = []
    previous_fit = -np.inf
    iterations_run = 0
    core_unfolded = np.zeros((ranks[0], int(np.prod(ranks[1:]))), dtype=np.float64)

    device, multi = resolve_cluster(device, ctx.cluster, ctx.devices)
    timeline = ShardedTimeline(multi.num_devices if multi is not None else 1)
    # The decomposition's unified timeline: per-device compute engines plus
    # the link/NIC resources the sharded all-reduces book.  HOOI is
    # strictly sequential on it — every SVD needs the fully reduced
    # unfolding — so the makespan equals the serial ledger sum; keeping
    # the bookings anyway gives Tucker the same queryable/exportable trace
    # as CP-ALS and the serving scheduler.
    unified_timeline = Timeline()
    compute_lanes = [
        unified_timeline.resource(device_compute_key(slot), category="compute")
        for slot in range(multi.num_devices if multi is not None else 1)
    ]

    preproc_time = 0.0
    pending_failures = sorted(ctx.chaos or (), key=lambda f: (f.time_s, f.node_index))
    recoveries: List[RecoveryRecord] = []
    recovery_overhead_s = 0.0
    # survivor-local slot -> original physical slot; None while intact.
    slot_map: Optional[Tuple[int, ...]] = None

    def run_ttmc(ttmc_mode: int):
        nonlocal preproc_time
        source = tensor
        if ctx.preproc_cache is not None:
            source, _hit, cost_s = ctx.preproc_cache.encoding(
                tensor, OperationKind.SPTTMC, ttmc_mode
            )
            preproc_time += cost_s
        result = unified_spttmc(
            source,
            factors,
            ttmc_mode,
            device=device,
            block_size=block_size,
            threadlen=threadlen,
            ctx=ExecContext(cluster=multi, backend=ctx.backend),
        )
        timeline.observe(result.profile, slot_map=slot_map)
        execution = getattr(result.profile, "sharded", None)
        if execution is not None:
            execution.book(
                unified_timeline,
                ready_s=unified_timeline.makespan_s,
                label=f"spttmc:mode{ttmc_mode}",
                slot_map=slot_map,
            )
        else:
            compute_lanes[0].book(
                result.estimated_time_s, label=f"spttmc:mode{ttmc_mode}"
            )
        return result

    def pop_applicable_failure() -> Optional[NodeFailure]:
        """Consume chaos events the modeled clock has passed; return the
        first one that applies to the current topology (others are
        ignored, as in :func:`~repro.algorithms.cp.cp_als`)."""
        now = unified_timeline.makespan_s
        while pending_failures and pending_failures[0].time_s <= now:
            candidate = pending_failures.pop(0)
            if (
                isinstance(multi, MultiNodeClusterSpec)
                and 0 <= candidate.node_index < multi.num_nodes
            ):
                return candidate
        return None

    def recover(failure: NodeFailure, iteration: int, mode: int) -> None:
        """Evict the failed node, book the re-staging, record the ledger.

        The caller restores the sweep-boundary checkpoint and replays.
        """
        nonlocal multi, slot_map, recovery_overhead_s
        assert isinstance(multi, MultiNodeClusterSpec)
        # Plan per-mode: each mode's SpTTMc encoding is a distinct
        # device-resident stream whose lost shards must re-stage.  The
        # plans are computed from fresh encodings (pure host math) so the
        # preprocessing cache's hit/miss ledger is not perturbed.
        plans = [
            plan_node_recovery(
                FCOOTensor.from_sparse(tensor, OperationKind.SPTTMC, m),
                multi,
                failure.node_index,
                threadlen=threadlen,
            )
            for m in range(order)
        ]
        local_to_current = multi.surviving_slots(failure.node_index)
        previous = slot_map
        slot_map = tuple(
            previous[slot] if previous is not None else slot for slot in local_to_current
        )
        multi = multi.without_node(failure.node_index)
        restage_ready = max(unified_timeline.makespan_s, failure.time_s)
        restage_end = restage_ready
        for plan in plans:
            restage_end = plan.book(
                unified_timeline,
                ready_s=restage_end,
                label=f"restage:node{failure.node_index}",
            )
        restage_s = restage_end - restage_ready
        recovery_overhead_s += restage_s
        recoveries.append(
            RecoveryRecord(
                failure=failure,
                iteration=iteration,
                mode=mode,
                restage_s=restage_s,
                restaged_bytes=sum(p.total_restaged_bytes for p in plans),
                survivor_devices=multi.num_devices,
            )
        )

    iteration = 0
    while iteration < max_iterations:
        # Sweep-boundary checkpoint: the factors are the whole mutable
        # numeric state (HOOI draws randomness only at initialisation), so
        # replaying from here on any topology reproduces the sweep exactly.
        checkpoint_factors = [f.copy() for f in factors]
        replay = False
        for mode in range(order):
            result = run_ttmc(mode)
            ttmc_time_by_mode[mode] += result.estimated_time_s
            failure = pop_applicable_failure()
            if failure is not None:
                # The interrupted TTMc's bookings stay as wasted work.
                recover(failure, iteration, mode)
                factors = [f.copy() for f in checkpoint_factors]
                replay = True
                break
            y = result.output  # (I_mode, prod_{m != mode} R_m)
            # New factor: leading left singular vectors of Y.
            u, _s, _vt = np.linalg.svd(y, full_matrices=False)
            factors[mode] = u[:, : ranks[mode]]
        if replay:
            continue  # same sweep again, from the checkpoint

        # Core (in mode-0 unfolded form) from the final mode-0 TTMc of the
        # sweep projected onto the mode-0 factor.
        final = run_ttmc(0)
        ttmc_time_by_mode[0] += final.estimated_time_s
        failure = pop_applicable_failure()
        if failure is not None:
            recover(failure, iteration, 0)
            factors = [f.copy() for f in checkpoint_factors]
            continue
        core_unfolded = backend_impl.matmul(factors[0].T, final.output)
        core_norm = float(np.linalg.norm(core_unfolded))
        # For orthonormal factors ||X - X̂||² = ||X||² - ||G||².
        residual_sq = max(x_norm**2 - core_norm**2, 0.0)
        fit = 1.0 - float(np.sqrt(residual_sq)) / x_norm
        fits.append(fit)
        iterations_run += 1
        iteration += 1
        if abs(fit - previous_fit) < tolerance:
            break
        previous_fit = fit

    core = _fold_core(core_unfolded, ranks)
    result = TuckerResult(
        core=core,
        factors=factors,
        fits=fits,
        iterations=iterations_run,
        ttmc_time_by_mode=ttmc_time_by_mode,
        device_time_by_device=(
            dict(timeline.device_busy_s) if multi is not None else None
        ),
        parallel_efficiency=timeline.parallel_efficiency if multi is not None else None,
        preproc_time_s=preproc_time,
        makespan_s=unified_timeline.makespan_s,
        timeline=unified_timeline,
        recoveries=recoveries,
        recovery_overhead_s=recovery_overhead_s,
    )
    if ctx.metrics is not None:
        observe_decomposition(
            ctx.metrics,
            algorithm="tucker_hooi",
            iterations=iterations_run,
            makespan_s=result.makespan_s or 0.0,
            recoveries=len(recoveries),
            recovery_overhead_s=recovery_overhead_s,
        )
    return result


def _fold_core(core_unfolded: np.ndarray, ranks: Sequence[int]) -> np.ndarray:
    """Fold the mode-0 unfolded core back into a dense tensor of shape ``ranks``."""
    from repro.tensor.dense import fold_dense

    return fold_dense(core_unfolded, 0, tuple(ranks))
