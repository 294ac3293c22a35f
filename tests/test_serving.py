"""Property harness for the multi-tenant serving subsystem.

The central claim: **scheduling, batching, caching and placement move work
in time, never in value** — every job served by the
:class:`~repro.serve.ServingEngine` produces output bit-identical to
executing it alone (replaying its recorded placement through the pure
:func:`~repro.serve.execute.execute_job`), and — for single-device
one-shot placements — bit-identical to calling the unified kernel
directly, since the kernels' numerics are device-independent.  The harness
drives all three kernels over the streaming test corpus through a
heterogeneous serving cluster (cache hits, batches and duplicate tenants
included), plus focused bit-identity checks for the sharded and streamed
paths, and unit-tests the scheduler, cache, placement, workload generator,
cluster validation and the capability-weighted shard partitioner.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algorithms.cp import UnifiedGPUEngine, cp_als
from repro.algorithms.tucker import tucker_hooi
from repro.bench.regression import _serving_metrics
from repro.bench.serving import run_serving
from repro.cli import main as cli_main
from repro.context import ExecContext
from repro.formats.fcoo import FCOOTensor
from repro.formats.semisparse import SemiSparseTensor
from repro.gpusim.cluster import ClusterSpec, InterconnectSpec, PCIE3_P2P
from repro.gpusim.device import TITAN_X, scaled_device
from repro.kernels.unified import partition_shards
from repro.kernels.unified.spmttkrp import spmttkrp_footprint, unified_spmttkrp
from repro.kernels.unified.spttm import unified_spttm
from repro.kernels.unified.spttmc import unified_spttmc
from repro.serve import (
    Job,
    JobKind,
    JobStatus,
    PreprocCache,
    ServingEngine,
    WorkloadSpec,
    execute_job,
    generate_workload,
    job_geometry,
)
from repro.serve.workload import default_serving_cluster
from repro.tensor.random import random_sparse_tensor
from repro.tensor.sparse import SparseTensor
from test_streaming import (
    BLOCK_SIZE,
    CASES,
    RANK,
    THREADLEN,
    run_kernel,
    run_reference,
)

#: Job kinds of the three unified kernels, with their kernel entry points.
KERNEL_KINDS = {
    JobKind.SPTTM: unified_spttm,
    JobKind.SPMTTKRP: unified_spmttkrp,
    JobKind.SPTTMC: unified_spttmc,
}

#: The big corpus tensor used by the focused sharded/streamed tests.
BIG_CASE = "order3-power"


def hetero_cluster(big_mem: float, small_mem: float) -> ClusterSpec:
    """A 2 fast + 1 slow cluster with explicitly scaled memories (bytes)."""
    big = scaled_device(TITAN_X, big_mem / TITAN_X.global_mem_bytes, name_suffix="t-big")
    small = scaled_device(
        TITAN_X,
        small_mem / TITAN_X.global_mem_bytes,
        bandwidth_scale=0.5,
        name_suffix="t-small",
    )
    return ClusterSpec(devices=(big, big, small), interconnect=PCIE3_P2P, name="test-hetero")


def one_device_cluster(mem_bytes: float) -> ClusterSpec:
    device = scaled_device(
        TITAN_X, mem_bytes / TITAN_X.global_mem_bytes, name_suffix="t-solo"
    )
    return ClusterSpec(devices=(device,), name="test-solo")


def assert_same_output(actual, expected) -> None:
    """Bit-identical comparison across the kernels' output types."""
    if isinstance(expected, SemiSparseTensor):
        assert isinstance(actual, SemiSparseTensor)
        np.testing.assert_array_equal(actual.fiber_coords, expected.fiber_coords)
        np.testing.assert_array_equal(actual.fiber_values, expected.fiber_values)
    else:
        np.testing.assert_array_equal(actual, expected)


def reference_output(job: Job):
    return run_reference(KERNEL_KINDS[job.kind], job.tensor, job.factors(), job.mode)


def assert_close_to_reference(result_output, job: Job) -> None:
    reference = reference_output(job)
    if isinstance(result_output, SemiSparseTensor):
        assert result_output.allclose(reference, rtol=1e-5, atol=1e-6)
    else:
        np.testing.assert_allclose(result_output, reference, rtol=1e-5, atol=1e-6)


# ---------------------------------------------------------------------- #
# Tensor content keys (the cache's identity)
# ---------------------------------------------------------------------- #
class TestContentKey:
    def test_same_content_same_key(self):
        a = random_sparse_tensor((6, 7, 8), 60, seed=3)
        b = SparseTensor(np.asarray(a.indices), np.asarray(a.values), a.shape)
        assert a.content_key == b.content_key

    def test_construction_order_irrelevant(self):
        idx = np.array([[0, 1, 2], [1, 0, 1], [2, 2, 0]])
        vals = np.array([1.0, 2.0, 3.0])
        forward = SparseTensor(idx, vals, (3, 3, 3))
        backward = SparseTensor(idx[::-1], vals[::-1], (3, 3, 3))
        assert forward.content_key == backward.content_key

    def test_different_values_different_key(self):
        a = random_sparse_tensor((6, 7, 8), 60, seed=3)
        b = a.scale(2.0)
        assert a.content_key != b.content_key

    def test_different_shape_different_key(self):
        idx = np.array([[0, 0, 0]])
        vals = np.array([1.0])
        assert (
            SparseTensor(idx, vals, (2, 2, 2)).content_key
            != SparseTensor(idx, vals, (3, 2, 2)).content_key
        )


# ---------------------------------------------------------------------- #
# ClusterSpec validation + capability weights (satellite)
# ---------------------------------------------------------------------- #
class TestClusterValidation:
    def test_zero_throughput_device_rejected_at_construction(self):
        dead = replace(TITAN_X, clock_ghz=0.0)
        with pytest.raises(ValueError, match=r"devices\[1\]"):
            ClusterSpec(devices=(TITAN_X, dead))

    def test_invalid_interconnect_rejected_at_construction(self):
        with pytest.raises(ValueError, match="interconnect"):
            ClusterSpec(devices=(TITAN_X,), interconnect=InterconnectSpec("bad", 0.0, 1e-6))

    def test_duplicate_id_with_different_spec_rejected(self):
        impostor = replace(TITAN_X, num_sms=12)  # same name, different silicon
        with pytest.raises(ValueError, match="device id"):
            ClusterSpec(devices=(TITAN_X, impostor))

    def test_identical_repeated_devices_allowed(self):
        cluster = ClusterSpec(devices=(TITAN_X, TITAN_X, TITAN_X))
        assert cluster.is_homogeneous
        assert cluster.max_device_memory_bytes == TITAN_X.global_mem_bytes

    def test_capability_weights_homogeneous_uniform(self):
        weights = ClusterSpec.homogeneous(TITAN_X, 4).capability_weights()
        np.testing.assert_allclose(weights, [0.25] * 4)

    def test_capability_weights_follow_bandwidth(self):
        half = scaled_device(TITAN_X, 1.0, bandwidth_scale=0.5, name_suffix="half")
        cluster = ClusterSpec(devices=(TITAN_X, half))
        w_full, w_half = cluster.capability_weights()
        assert w_full == pytest.approx(2.0 * w_half)
        assert w_full + w_half == pytest.approx(1.0)
        with pytest.raises(ValueError):
            cluster.capability_weights(flops_per_byte=0.0)


# ---------------------------------------------------------------------- #
# Capability-weighted shard partitioner (satellite)
# ---------------------------------------------------------------------- #
class TestWeightedPartition:
    def _fcoo(self, name=BIG_CASE):
        return FCOOTensor.from_sparse(CASES[name](), "spmttkrp", 0)

    def test_even_split_unchanged_without_weights(self):
        fcoo = self._fcoo()
        even = partition_shards(fcoo, 4, threadlen=THREADLEN)
        sizes = [s.nnz for s in even]
        assert max(sizes) - min(sizes[:-1] or sizes) <= THREADLEN
        assert sum(sizes) == fcoo.nnz

    def test_weighted_sizes_proportional(self):
        fcoo = self._fcoo()
        shards = partition_shards(fcoo, 3, threadlen=THREADLEN, weights=(2.0, 1.0, 1.0))
        sizes = [s.nnz for s in shards]
        assert len(shards) == 3
        assert sum(sizes) == fcoo.nnz
        # The double-weight shard gets twice the work, up to alignment.
        assert abs(sizes[0] - 2 * sizes[1]) <= 2 * THREADLEN
        assert abs(sizes[1] - sizes[2]) <= 2 * THREADLEN
        for shard in shards:
            assert shard.start % THREADLEN == 0

    def test_weighted_coverage_is_contiguous(self):
        fcoo = self._fcoo()
        shards = partition_shards(
            fcoo, 4, threadlen=THREADLEN, weights=(3.0, 1.0, 2.0, 2.0)
        )
        assert shards[0].start == 0
        assert shards[-1].stop == fcoo.nnz
        for prev, nxt in zip(shards, shards[1:]):
            assert prev.stop == nxt.start

    def test_short_stream_keeps_slot_alignment_with_empties(self):
        fcoo = FCOOTensor.from_sparse(CASES["nnz-below-threadlen"](), "spmttkrp", 0)
        shards = partition_shards(
            fcoo, 4, threadlen=THREADLEN, weights=(1.0, 1.0, 1.0, 1.0)
        )
        # Exactly num_shards entries come back, empties as placeholders.
        assert len(shards) == 4
        assert sum(s.nnz for s in shards) == fcoo.nnz
        assert sum(1 for s in shards if s.nnz == 0) == 3

    def test_weight_validation(self):
        fcoo = self._fcoo()
        with pytest.raises(ValueError):
            partition_shards(fcoo, 2, threadlen=THREADLEN, weights=(1.0,))
        with pytest.raises(ValueError):
            partition_shards(fcoo, 2, threadlen=THREADLEN, weights=(1.0, -1.0))
        with pytest.raises(ValueError):
            partition_shards(fcoo, 2, threadlen=THREADLEN, weights=(1.0, float("nan")))

    @pytest.mark.parametrize("kind", list(KERNEL_KINDS))
    def test_heterogeneous_sharded_matches_one_shot(self, kind):
        """Weighted shards on a mixed cluster reproduce the one-shot result."""
        tensor = CASES[BIG_CASE]()
        job = Job(job_id=0, tenant="t", kind=kind, tensor=tensor, mode=0, rank=RANK)
        factors = job.factors()
        cluster = hetero_cluster(big_mem=1 << 30, small_mem=1 << 29)
        kernel = KERNEL_KINDS[kind]
        sharded = run_kernel(kernel, tensor, factors, 0, ctx=ExecContext(cluster=cluster))
        one_shot = run_kernel(kernel, tensor, factors, 0)
        execution = sharded.profile.sharded
        assert execution is not None
        # The slow member (slot 2) gets the smallest shard.
        nnz_by_slot = {led.index: led.nnz for led in execution.shards}
        assert nnz_by_slot[2] <= nnz_by_slot[0]
        assert nnz_by_slot[2] <= nnz_by_slot[1]
        if isinstance(one_shot.output, SemiSparseTensor):
            assert sharded.output.allclose(one_shot.output)
        else:
            np.testing.assert_allclose(
                sharded.output, one_shot.output, rtol=1e-9, atol=1e-12
            )
        assert_close_to_reference(sharded.output, job)


# ---------------------------------------------------------------------- #
# Preprocessing cache
# ---------------------------------------------------------------------- #
class TestPreprocCache:
    def test_hit_after_miss_and_free_hits(self):
        cache = PreprocCache()
        tensor = CASES["order3-uniform"]()
        enc1, hit1, cost1 = cache.encoding(tensor, "spmttkrp", 0)
        enc2, hit2, cost2 = cache.encoding(tensor, "spmttkrp", 0)
        assert (hit1, hit2) == (False, True)
        assert cost1 > 0.0 and cost2 == 0.0
        assert enc1 is enc2
        assert cache.stats.encode_hits == 1 and cache.stats.encode_misses == 1

    def test_key_includes_operation_and_mode(self):
        cache = PreprocCache()
        tensor = CASES["order3-uniform"]()
        cache.encoding(tensor, "spmttkrp", 0)
        _, hit_mode, _ = cache.encoding(tensor, "spmttkrp", 1)
        _, hit_op, _ = cache.encoding(tensor, "spttm", 0)
        assert not hit_mode and not hit_op

    def test_shared_across_equal_content(self):
        cache = PreprocCache()
        a = random_sparse_tensor((8, 9, 10), 100, seed=1)
        b = SparseTensor(np.asarray(a.indices), np.asarray(a.values), a.shape)
        cache.encoding(a, "spmttkrp", 0)
        _, hit, _ = cache.encoding(b, "spmttkrp", 0)
        assert hit  # two tenants, same upload, one entry

    def test_lru_eviction_under_capacity(self):
        tensors = [random_sparse_tensor((8, 9, 10), 120, seed=s) for s in range(4)]
        one_entry = FCOOTensor.from_sparse(tensors[0], "spmttkrp", 0).storage_bytes()
        cache = PreprocCache(capacity_bytes=int(2.5 * one_entry))
        for t in tensors:
            cache.encoding(t, "spmttkrp", 0)
        assert cache.stats.evictions > 0
        assert cache.current_bytes <= int(2.5 * one_entry)
        # The most recent entry survived; the oldest was evicted.
        _, hit_new, _ = cache.encoding(tensors[-1], "spmttkrp", 0)
        _, hit_old, _ = cache.encoding(tensors[0], "spmttkrp", 0)
        assert hit_new and not hit_old

    def test_tuner_config_reuse(self):
        cache = PreprocCache()
        tensor = CASES["order3-uniform"]()
        cfg1, hit1, cost1 = cache.tuner_config(tensor, "spmttkrp", 0, RANK)
        cfg2, hit2, cost2 = cache.tuner_config(tensor, "spmttkrp", 0, RANK)
        assert (hit1, hit2) == (False, True)
        assert cost1 > 0.0 and cost2 == 0.0
        assert cfg1 == cfg2
        block_size, threadlen = cfg1
        assert block_size > 0 and threadlen > 0


# ---------------------------------------------------------------------- #
# Geometry + placement
# ---------------------------------------------------------------------- #
class TestPlacement:
    def test_geometry_matches_kernel_footprint(self):
        tensor = CASES[BIG_CASE]()
        job = Job(job_id=0, tenant="t", kind=JobKind.SPMTTKRP, tensor=tensor, rank=RANK)
        geometry = job_geometry(job, threadlen=THREADLEN)
        fcoo = FCOOTensor.from_sparse(tensor, "spmttkrp", 0)
        footprint, resident = spmttkrp_footprint(
            fcoo, RANK, block_size=BLOCK_SIZE, threadlen=THREADLEN
        )
        assert geometry.footprint_bytes == pytest.approx(footprint, rel=0.01)
        assert geometry.resident_bytes == pytest.approx(resident, rel=0.01)

    def test_admission_rejects_oversized_dense_operands(self):
        indices = np.stack(
            [np.arange(100) * 999, np.arange(100) % 5, np.arange(100) % 7], axis=1
        )
        giant = SparseTensor(indices, np.ones(100), (100_000, 5, 7))
        job = Job(job_id=0, tenant="t", kind=JobKind.SPMTTKRP, tensor=giant, rank=16)
        engine = ServingEngine(hetero_cluster(16_000, 8_000), threadlen=THREADLEN)
        report = engine.run([job])
        (result,) = report.results
        assert result.status is JobStatus.REJECTED
        assert "resident operands" in result.reject_reason

    def test_fast_device_preferred_when_idle(self):
        engine = ServingEngine(hetero_cluster(1 << 30, 1 << 29), threadlen=THREADLEN)
        job = Job(
            job_id=0,
            tenant="t",
            kind=JobKind.SPMTTKRP,
            tensor=CASES["order3-uniform"](),
            rank=RANK,
        )
        geometry = job_geometry(job, threadlen=THREADLEN)
        placement = engine.scheduler.placer.place(job, geometry, [0.0, 0.0, 0.0], 0.0)
        assert placement.device_slots == (0,)
        # With slot 0 busy far into the future, slot 1 wins.
        placement = engine.scheduler.placer.place(job, geometry, [1.0, 0.0, 0.0], 0.0)
        assert placement.device_slots == (1,)

    def test_oversized_job_sharded_across_cluster(self):
        cluster = hetero_cluster(6_000, 3_500)
        engine = ServingEngine(cluster, threadlen=THREADLEN, block_size=BLOCK_SIZE)
        job = Job(
            job_id=0,
            tenant="t",
            kind=JobKind.SPMTTKRP,
            tensor=CASES[BIG_CASE](),
            rank=RANK,
        )
        report = engine.run([job])
        (result,) = report.results
        assert result.completed and result.execution == "sharded"
        assert result.device_slots == (0, 1, 2)


# ---------------------------------------------------------------------- #
# Scheduler behaviour
# ---------------------------------------------------------------------- #
class TestScheduler:
    def _identical_jobs(self, n, tensor, priorities=None, arrival=0.0):
        priorities = priorities or [1] * n
        return [
            Job(
                job_id=i,
                tenant=f"t{i}",
                kind=JobKind.SPMTTKRP,
                tensor=tensor,
                mode=0,
                rank=RANK,
                priority=priorities[i],
                arrival_s=arrival,
                factor_seed=i,
            )
            for i in range(n)
        ]

    def test_deterministic_schedule(self):
        jobs = generate_workload(WorkloadSpec(num_jobs=25, seed=7))
        first = ServingEngine(autotune=True).run(jobs)
        second = ServingEngine(autotune=True).run(
            generate_workload(WorkloadSpec(num_jobs=25, seed=7))
        )
        np.testing.assert_array_equal(first.latencies_s, second.latencies_s)
        assert first.makespan_s == second.makespan_s
        assert [r.device_slots for r in first.results] == [
            r.device_slots for r in second.results
        ]

    def test_priority_overtakes_fifo_order(self):
        tensor = CASES["order3-uniform"]()
        cluster = one_device_cluster(1 << 30)
        jobs = self._identical_jobs(5, tensor, priorities=[1, 1, 1, 1, 0])
        by_priority = ServingEngine(cluster, policy="priority", max_batch=1).run(jobs)
        by_fifo = ServingEngine(cluster, policy="fifo", max_batch=1).run(jobs)
        pri = {r.job.job_id: r for r in by_priority.results}
        fifo = {r.job.job_id: r for r in by_fifo.results}
        # Under priority, the urgent job (id 4) runs before the batch-class
        # job 1; under FIFO it runs last.
        assert pri[4].exec_start_s < pri[1].exec_start_s
        assert fifo[4].exec_start_s > fifo[1].exec_start_s

    def test_batching_shares_one_staging(self):
        tensor = CASES["order3-uniform"]()
        cluster = one_device_cluster(1 << 30)
        jobs = self._identical_jobs(4, tensor)
        report = ServingEngine(cluster, max_batch=4).run(jobs)
        batched = [r for r in report.results if r.batch_id is not None]
        # All four become stage-ready together when the shared encoding's
        # build completes (the hits wait for the miss's build), so they
        # ride one batch.
        assert len(batched) == 4
        leaders = [r for r in batched if r.batch_leader]
        assert len(leaders) == 1
        (leader,) = leaders
        for mate in batched:
            if not mate.batch_leader:
                # Mates reuse the staged encoding: only dense operands move.
                assert mate.stage_s < leader.stage_s
        # Batch members execute back to back on the one device.
        starts = sorted(r.exec_start_s for r in batched)
        assert all(b >= a for a, b in zip(starts, starts[1:]))

    def test_decomposition_never_rides_a_kernel_batch(self):
        # A CP job shares the kernel's batch_key (its preprocessing is the
        # SpMTTKRP encoding) but must keep its own placement and never
        # batch with kernel invocations.
        tensor = CASES["order3-uniform"]()
        kernel_jobs = self._identical_jobs(3, tensor)
        cp_job = Job(
            job_id=10,
            tenant="cp",
            kind=JobKind.CP_ALS,
            tensor=tensor,
            rank=RANK,
            iterations=1,
        )
        report = ServingEngine(one_device_cluster(1 << 30), max_batch=4).run(
            kernel_jobs + [cp_job]
        )
        by_id = {r.job.job_id: r for r in report.results}
        assert by_id[10].batch_id is None
        assert by_id[10].execution == "decomposition"

    def test_report_cache_stats_are_a_snapshot(self):
        tensor = CASES["order3-uniform"]()
        engine = ServingEngine(one_device_cluster(1 << 30))
        first = engine.run(self._identical_jobs(2, tensor))
        misses_after_first = first.cache_stats.encode_misses
        engine.run(
            [
                Job(
                    job_id=99,
                    tenant="t",
                    kind=JobKind.SPMTTKRP,
                    tensor=CASES["order3-power"](),
                    rank=RANK,
                )
            ]
        )
        # The second run's misses must not leak into the first report.
        assert first.cache_stats.encode_misses == misses_after_first

    def test_cache_hit_waits_for_encoding_build(self):
        # A hit is free, but the encoding it reuses must physically exist:
        # a job arriving just behind the miss that builds the entry cannot
        # stage before that build completes in simulated time.
        from repro.serve.cache import ENCODE_SECONDS_PER_NNZ

        tensor = CASES["order3-power"]()
        build_s = tensor.nnz * ENCODE_SECONDS_PER_NNZ
        jobs = [
            Job(job_id=0, tenant="a", kind=JobKind.SPMTTKRP, tensor=tensor, rank=RANK),
            Job(
                job_id=1,
                tenant="b",
                kind=JobKind.SPMTTKRP,
                tensor=tensor,
                rank=RANK,
                arrival_s=build_s / 10.0,
            ),
        ]
        report = ServingEngine(one_device_cluster(1 << 30), max_batch=1).run(jobs)
        by_id = {r.job.job_id: r for r in report.results}
        assert by_id[1].encode_cache_hit
        assert by_id[1].stage_start_s >= build_s - 1e-12

    def test_tuner_hit_waits_for_sweep_build(self):
        # Same asymmetry guard for the tuner cache: a hit cannot make a
        # job stage-ready before the sweep that built the config finishes.
        tensor = CASES["order3-power"]()
        jobs = [
            Job(job_id=0, tenant="a", kind=JobKind.SPMTTKRP, tensor=tensor, rank=RANK),
            Job(
                job_id=1,
                tenant="b",
                kind=JobKind.SPMTTKRP,
                tensor=tensor,
                rank=RANK,
                arrival_s=1e-9,
            ),
        ]
        report = ServingEngine(
            one_device_cluster(1 << 30), max_batch=1, autotune=True
        ).run(jobs)
        by_id = {r.job.job_id: r for r in report.results}
        assert by_id[1].tuner_cache_hit
        # Job 0's preproc is the encode + sweep; job 1 cannot stage earlier
        # than that build completes.
        assert by_id[1].stage_start_s >= by_id[0].job.arrival_s + by_id[0].preproc_s - 1e-12

    def test_batching_disabled_with_max_batch_one(self):
        tensor = CASES["order3-uniform"]()
        jobs = self._identical_jobs(4, tensor)
        report = ServingEngine(one_device_cluster(1 << 30), max_batch=1).run(jobs)
        assert all(r.batch_id is None for r in report.results)

    def test_queue_depth_sheds_load(self):
        tensor = CASES["order3-uniform"]()
        jobs = self._identical_jobs(6, tensor)
        report = ServingEngine(
            one_device_cluster(1 << 30), max_queue_depth=2, max_batch=1
        ).run(jobs)
        shed = [r for r in report.results if not r.completed]
        assert len(shed) == 4
        assert all("queue full" in r.reject_reason for r in shed)
        assert sum(r.completed for r in report.results) == 2

    def test_execution_capacity_failure_rejects_job_not_run(self, monkeypatch):
        # The admission estimate is first-order; if the kernel itself runs
        # out of device memory, that one job is rejected and the rest of
        # the workload still completes.
        import repro.serve.scheduler as scheduler_module
        from repro.gpusim.timing import OutOfDeviceMemory

        tensor = CASES["order3-uniform"]()
        jobs = self._identical_jobs(3, tensor)
        real_execute = scheduler_module.execute_job

        def flaky_execute(job, placement, **kwargs):
            if job.job_id == 1:
                raise OutOfDeviceMemory(1e9, 1e6, what="test kernel")
            return real_execute(job, placement, **kwargs)

        monkeypatch.setattr(scheduler_module, "execute_job", flaky_execute)
        report = ServingEngine(one_device_cluster(1 << 30), max_batch=1).run(jobs)
        by_id = {r.job.job_id: r for r in report.results}
        assert not by_id[1].completed
        assert "rejected at execution" in by_id[1].reject_reason
        assert by_id[0].completed and by_id[2].completed

    def test_unique_job_ids_required(self):
        tensor = CASES["order3-uniform"]()
        jobs = self._identical_jobs(2, tensor)
        clash = [jobs[0], replace(jobs[1], job_id=jobs[0].job_id)]
        with pytest.raises(ValueError, match="unique"):
            ServingEngine(one_device_cluster(1 << 30)).run(clash)

    def test_report_invariants(self):
        report = run_serving(num_jobs=40, seed=0)
        assert len(report.results) == 40
        assert report.makespan_s >= max(r.exec_s for r in report.completed)
        assert report.p99_latency_s >= report.p50_latency_s > 0.0
        for r in report.completed:
            assert r.finish_s >= r.exec_start_s >= r.stage_start_s >= r.job.arrival_s
            assert r.latency_s > 0.0
        for utilization in report.device_utilization.values():
            assert 0.0 <= utilization <= 1.0
        assert 0.0 < report.overall_utilization <= 1.0
        text = report.render()
        for needle in ("throughput", "p50", "p99", "utilization", "cache"):
            assert needle in text


# ---------------------------------------------------------------------- #
# The central property: serving never changes numerics
# ---------------------------------------------------------------------- #
class TestServingBitIdentity:
    def _corpus_jobs(self):
        jobs = []
        job_id = 0
        arrival = 0.0
        for name, build in CASES.items():
            tensor = build()
            for kind in KERNEL_KINDS:
                for copy in range(2):  # duplicate tenant submissions
                    arrival += 1e-6
                    jobs.append(
                        Job(
                            job_id=job_id,
                            tenant=f"tenant-{copy}",
                            kind=kind,
                            tensor=tensor,
                            mode=0,
                            rank=RANK,
                            priority=job_id % 2,
                            arrival_s=arrival,
                            factor_seed=17,  # shared: duplicates must agree
                        )
                    )
                    job_id += 1
        return jobs

    def test_scheduled_equals_sequential_for_all_kernels(self):
        jobs = self._corpus_jobs()
        engine = ServingEngine(
            default_serving_cluster(),
            threadlen=THREADLEN,
            block_size=BLOCK_SIZE,
            max_batch=4,
        )
        report = engine.run(jobs)
        assert all(r.completed for r in report.results)
        assert report.cache_stats.encode_hits > 0  # duplicates hit

        outputs = {}
        for result in report.results:
            job = result.job
            # 1. Replaying the recorded placement alone reproduces the
            #    scheduled output bit for bit (cache, batching and queueing
            #    never touched the numerics).
            replay = execute_job(job, result.placement)
            assert_same_output(result.output, replay.output)
            # 2. Single-device one-shot numerics are device-independent:
            #    the plain kernel on the default device must agree exactly.
            if result.execution == "one-shot":
                direct = run_kernel(
                    KERNEL_KINDS[job.kind], job.tensor, job.factors(), job.mode
                )
                assert_same_output(result.output, direct.output)
            # 3. And everything stays numerically faithful to the oracle.
            if job.tensor.nnz:
                assert_close_to_reference(result.output, job)
            outputs.setdefault(
                (job.tensor.content_key, job.kind.value, job.rank), []
            ).append(result.output)
        # 4. Duplicate submissions (cache-hit path) agree bit for bit.
        for twins in outputs.values():
            for other in twins[1:]:
                assert_same_output(twins[0], other)

    def test_sharded_job_bit_identity(self):
        tensor = CASES[BIG_CASE]()
        cluster = hetero_cluster(6_000, 3_500)
        engine = ServingEngine(cluster, threadlen=THREADLEN, block_size=BLOCK_SIZE)
        job = Job(
            job_id=0, tenant="t", kind=JobKind.SPMTTKRP, tensor=tensor, rank=RANK
        )
        (result,) = engine.run([job]).results
        assert result.execution == "sharded"
        replay = execute_job(job, result.placement)
        assert_same_output(result.output, replay.output)
        # The recorded placement is the whole cluster, so the direct
        # cluster call reproduces it exactly too.
        direct = run_kernel(
            unified_spmttkrp, tensor, job.factors(), 0, ctx=ExecContext(cluster=cluster)
        )
        assert_same_output(result.output, direct.output)
        assert_close_to_reference(result.output, job)

    def test_shard_streamed_fallback_bit_identity(self):
        tensor = CASES[BIG_CASE]()
        cluster = hetero_cluster(3_000, 2_200)
        engine = ServingEngine(cluster, threadlen=THREADLEN, block_size=BLOCK_SIZE)
        job = Job(
            job_id=0, tenant="t", kind=JobKind.SPMTTKRP, tensor=tensor, rank=RANK
        )
        (result,) = engine.run([job]).results
        assert result.execution == "sharded"
        profile = execute_job(job, result.placement).profile
        assert profile.sharded.has_streaming_shards
        replay = execute_job(job, result.placement)
        assert_same_output(result.output, replay.output)
        assert_close_to_reference(result.output, job)

    def test_streamed_single_device_bit_identity(self):
        tensor = CASES[BIG_CASE]()
        cluster = one_device_cluster(5_000)
        engine = ServingEngine(cluster, threadlen=THREADLEN, block_size=BLOCK_SIZE)
        job = Job(
            job_id=0, tenant="t", kind=JobKind.SPMTTKRP, tensor=tensor, rank=RANK
        )
        (result,) = engine.run([job]).results
        assert result.execution == "streamed"
        replay = execute_job(job, result.placement)
        assert_same_output(result.output, replay.output)
        direct = run_kernel(
            unified_spmttkrp,
            tensor,
            job.factors(),
            0,
            device=cluster.devices[0],
        )
        assert direct.profile.streaming is not None
        assert_same_output(result.output, direct.output)
        assert_close_to_reference(result.output, job)


# ---------------------------------------------------------------------- #
# Decomposition jobs + cache wiring in the drivers
# ---------------------------------------------------------------------- #
class TestDecompositionJobs:
    def test_cp_job_matches_direct_cp_als(self):
        tensor = CASES["order3-uniform"]()
        job = Job(
            job_id=0,
            tenant="t",
            kind=JobKind.CP_ALS,
            tensor=tensor,
            rank=RANK,
            iterations=2,
            factor_seed=5,
        )
        engine = ServingEngine(
            default_serving_cluster(), threadlen=THREADLEN, block_size=BLOCK_SIZE
        )
        (result,) = engine.run([job]).results
        assert result.completed and result.execution == "decomposition"
        direct = cp_als(
            tensor,
            RANK,
            engine=UnifiedGPUEngine(
                device=result.placement.device,
                block_size=BLOCK_SIZE,
                threadlen=THREADLEN,
            ),
            max_iterations=2,
            seed=5,
            compute_fit=False,
        )
        for served, reference in zip(result.output.factors, direct.factors):
            np.testing.assert_array_equal(served, reference)
        np.testing.assert_array_equal(result.output.weights, direct.weights)

    def test_tucker_job_matches_direct_hooi(self):
        tensor = CASES["order3-uniform"]()
        job = Job(
            job_id=0,
            tenant="t",
            kind=JobKind.TUCKER,
            tensor=tensor,
            rank=3,
            iterations=2,
            factor_seed=9,
        )
        engine = ServingEngine(
            default_serving_cluster(), threadlen=THREADLEN, block_size=BLOCK_SIZE
        )
        (result,) = engine.run([job]).results
        assert result.completed
        direct = tucker_hooi(
            tensor,
            job.tucker_ranks,
            device=result.placement.device,
            max_iterations=2,
            seed=9,
            block_size=BLOCK_SIZE,
            threadlen=THREADLEN,
        )
        np.testing.assert_array_equal(result.output.core, direct.core)
        for served, reference in zip(result.output.factors, direct.factors):
            np.testing.assert_array_equal(served, reference)

    def test_unified_engine_reuses_cache_across_runs(self):
        tensor = CASES["order3-uniform"]()
        cache = PreprocCache()
        cached_engine = UnifiedGPUEngine(
            block_size=BLOCK_SIZE, threadlen=THREADLEN, ctx=ExecContext(preproc_cache=cache)
        )
        first = cp_als(tensor, RANK, engine=cached_engine, max_iterations=2, seed=1)
        assert cache.stats.encode_misses == tensor.order
        second = cp_als(tensor, RANK, engine=cached_engine, max_iterations=2, seed=1)
        assert cache.stats.encode_hits >= tensor.order
        # The cached run charges no host encode the second time around...
        assert second.setup_time_s < first.setup_time_s
        # ...and the numerics are untouched by the cache.
        plain = cp_als(
            tensor,
            RANK,
            engine=UnifiedGPUEngine(block_size=BLOCK_SIZE, threadlen=THREADLEN),
            max_iterations=2,
            seed=1,
        )
        for cached_f, plain_f in zip(second.factors, plain.factors):
            np.testing.assert_array_equal(cached_f, plain_f)

    def test_tucker_cache_hits_across_sweeps(self):
        tensor = CASES["order3-uniform"]()
        cache = PreprocCache()
        cached = tucker_hooi(
            tensor,
            (3, 3, 3),
            max_iterations=2,
            seed=2,
            block_size=BLOCK_SIZE,
            threadlen=THREADLEN,
            ctx=ExecContext(preproc_cache=cache),
        )
        # One miss per mode, then every later sweep hits.
        assert cache.stats.encode_misses == tensor.order
        assert cache.stats.encode_hits > 0
        plain = tucker_hooi(
            tensor,
            (3, 3, 3),
            max_iterations=2,
            seed=2,
            block_size=BLOCK_SIZE,
            threadlen=THREADLEN,
        )
        np.testing.assert_array_equal(cached.core, plain.core)


# ---------------------------------------------------------------------- #
# Workload generator, bench runner, regression metrics, CLI
# ---------------------------------------------------------------------- #
class TestWorkloadAndSurfaces:
    def test_workload_deterministic_and_sorted(self):
        a = generate_workload(WorkloadSpec(num_jobs=30, seed=3))
        b = generate_workload(WorkloadSpec(num_jobs=30, seed=3))
        assert len(a) == 30
        assert [j.arrival_s for j in a] == [j.arrival_s for j in b]
        assert [j.tensor.content_key for j in a] == [j.tensor.content_key for j in b]
        arrivals = [j.arrival_s for j in a]
        assert arrivals == sorted(arrivals)
        kinds = {j.kind for j in a}
        assert JobKind.SPMTTKRP in kinds and len(kinds) >= 3

    def test_workload_includes_whale_and_giant(self):
        spec = WorkloadSpec(num_jobs=40, seed=0)
        jobs = generate_workload(spec)
        report = ServingEngine(autotune=False).run(jobs)
        counts = report.execution_counts()
        assert counts.get("sharded", 0) > 0  # the whale sharded
        assert len(report.rejected) > 0  # the giant was refused

    def test_run_serving_full_paths(self):
        report = run_serving(num_jobs=100, seed=0)
        counts = report.execution_counts()
        assert counts.get("one-shot", 0) > 0
        assert counts.get("sharded", 0) > 0
        assert counts.get("decomposition", 0) > 0
        assert report.cache_stats.encode_hit_rate > 0.5
        # Pin the deterministic completed/rejected split of the seed-0
        # workload: a placement or admission regression that silently
        # refuses traffic would *improve* every latency metric, so the
        # counts themselves are the guard (update deliberately alongside
        # intentional scheduler changes, like the bench baselines).
        assert len(report.completed) == 95
        assert len(report.rejected) == 5

    def test_regression_serving_metrics(self):
        metrics = _serving_metrics()
        assert set(metrics) == {
            "serve/p50_latency",
            "serve/p99_latency",
            "serve/makespan",
            "serve/seconds_per_job",
            "serve/mean_queue_wait",
            "serve/rejected_jobs_count",
            "serve/plan_execute_mismatch_count",
        }
        assert metrics["serve/plan_execute_mismatch_count"] == 0.0
        assert all(v >= 0.0 for v in metrics.values())
        assert metrics["serve/p99_latency"] >= metrics["serve/p50_latency"]

    def test_count_metrics_fail_on_any_increase(self):
        from repro.bench.regression import compare_metrics

        regressions, _ = compare_metrics(
            {"serve/rejected_jobs_count": 5.0}, {"serve/rejected_jobs_count": 6.0}
        )
        assert regressions  # +1 rejection fails even though 6/5 < 1.2
        regressions, _ = compare_metrics(
            {"serve/rejected_jobs_count": 5.0}, {"serve/rejected_jobs_count": 4.0}
        )
        assert not regressions  # fewer rejections is an improvement

    def test_tucker_admission_uses_clamped_ranks(self):
        # The real SpTTMc inside tucker_hooi runs with per-mode ranks
        # clamped to the shape; admission must size it the same way, not
        # with rank**(order-1).
        tensor = random_sparse_tensor((3000, 4, 4), 1500, seed=6)
        job = Job(
            job_id=0,
            tenant="t",
            kind=JobKind.TUCKER,
            tensor=tensor,
            rank=16,
            iterations=1,
        )
        report = ServingEngine(default_serving_cluster()).run([job])
        (result,) = report.results
        assert result.completed, result.reject_reason

    def test_cache_stats_are_per_run(self):
        tensor = CASES["order3-uniform"]()
        engine = ServingEngine(one_device_cluster(1 << 30), max_batch=1)
        job = Job(job_id=0, tenant="t", kind=JobKind.SPMTTKRP, tensor=tensor, rank=RANK)
        cold = engine.run([job])
        warm = engine.run([replace(job, job_id=1)])
        assert cold.cache_stats.encode_misses == 1
        # The warm run reports its own perfect hit rate, not the average.
        assert warm.cache_stats.encode_misses == 0
        assert warm.cache_stats.encode_hit_rate == 1.0

    def test_cli_serve(self, capsys):
        assert cli_main(["serve", "--jobs", "12"]) == 0
        out = capsys.readouterr().out
        assert "Serving report" in out and "throughput" in out

    def test_cli_serve_fifo_policy(self, capsys):
        assert cli_main(["serve", "--jobs", "8", "--policy", "fifo"]) == 0
        assert "policy=fifo" in capsys.readouterr().out


# ---------------------------------------------------------------------- #
# Hypothesis sweep (the nightly CI profile raises max_examples)
# ---------------------------------------------------------------------- #


class TestServingHypothesis:
    """Arbitrary small workloads: serving is deterministic and replayable.

    For any seeded workload, a serving run is (a) reproducible — a fresh
    engine on the same jobs yields the identical schedule — and (b) honest
    about numerics — replaying every completed job's recorded placement
    through the pure ``execute_job`` reproduces its output bit for bit.
    """

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        num_jobs=st.integers(min_value=2, max_value=8),
        policy=st.sampled_from(["priority", "fifo"]),
    )
    def test_deterministic_and_replayable(self, seed, num_jobs, policy):
        spec = WorkloadSpec(num_jobs=num_jobs, seed=seed, giant_every=5)
        jobs = generate_workload(spec)
        first = ServingEngine(default_serving_cluster(), policy=policy).run(jobs)
        second = ServingEngine(default_serving_cluster(), policy=policy).run(jobs)
        assert [r.status for r in first.results] == [r.status for r in second.results]
        for a, b in zip(first.results, second.results):
            assert a.finish_s == b.finish_s
            assert a.device_slots == b.device_slots
            if a.completed and a.job.kind.is_kernel:
                assert_same_output(a.output, b.output)
                replay = execute_job(a.job, a.placement)
                assert_same_output(a.output, replay.output)
