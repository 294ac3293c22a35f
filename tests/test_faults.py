"""Property harness for mid-run node-loss fault tolerance.

The central claim: **a run that loses a node mid-flight produces
bit-identical numerics to its failure-free twin**, at a positive modeled
recovery cost.  The decomposition drivers checkpoint their factors at
iteration boundaries, evict the dead node's shards, re-partition over the
survivors, replay the interrupted sweep from the checkpoint and charge the
re-staging on the shared timeline; the serving scheduler tears down jobs
in flight on the dead node and re-admits them on survivors.  Both rest on
the sharded kernels' canonical-reduction invariant (``test_sharded.py``):
shard topology only ever moves *time*, never bits.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.cp import RecoveryRecord, UnifiedGPUEngine, cp_als
from repro.algorithms.tucker import tucker_hooi
from repro.context import ExecContext
from repro.gpusim.cluster import (
    ETHERNET_10G,
    ClusterSpec,
    MultiNodeClusterSpec,
    NodeFailure,
)
from repro.gpusim.device import TITAN_X
from repro.serve.engine import ServingEngine
from repro.serve.job import JobStatus
from repro.serve.scheduler import Scheduler
from repro.serve.workload import (
    ChaosSpec,
    WorkloadSpec,
    generate_chaos,
    generate_workload,
)
from repro.tensor.random import random_sparse_tensor


def two_nodes(devices_per_node: int = 2) -> MultiNodeClusterSpec:
    return MultiNodeClusterSpec.homogeneous(
        num_nodes=2, devices_per_node=devices_per_node, nic=ETHERNET_10G
    )


TENSOR = random_sparse_tensor((120, 40, 30), 3_000, seed=11)


def run_cp(chaos=None, *, max_iterations=3, cluster=None):
    return cp_als(
        TENSOR,
        6,
        engine=UnifiedGPUEngine(
            ctx=ExecContext(cluster=cluster if cluster is not None else two_nodes())
        ),
        max_iterations=max_iterations,
        compute_fit=True,
        ctx=ExecContext(chaos=chaos),
    )


class TestNodeFailureSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            NodeFailure(time_s=-1.0, node_index=0)
        with pytest.raises(ValueError):
            NodeFailure(time_s=0.0, node_index=-1)
        with pytest.raises(ValueError):
            NodeFailure(time_s=2.0, node_index=0, recover_s=1.0)
        NodeFailure(time_s=2.0, node_index=0, recover_s=3.0)

    def test_chaos_spec_validation(self):
        with pytest.raises(ValueError):
            ChaosSpec(num_failures=0)
        with pytest.raises(ValueError):
            ChaosSpec(window_s=0.0)
        with pytest.raises(ValueError):
            ChaosSpec(recover_after_s=-1.0)
        with pytest.raises(ValueError):
            generate_chaos(ChaosSpec(fail_node=5), num_nodes=2)

    def test_generate_chaos_deterministic_and_sorted(self):
        spec = ChaosSpec(seed=7, num_failures=4, window_s=1e-3)
        first = generate_chaos(spec, num_nodes=3)
        second = generate_chaos(spec, num_nodes=3)
        assert first == second
        assert len(first) == 4
        times = [e.time_s for e in first]
        assert times == sorted(times)
        assert all(0.0 <= e.time_s <= 1e-3 for e in first)
        assert all(0 <= e.node_index < 3 for e in first)

    def test_generate_chaos_pinned_node_and_recovery(self):
        spec = ChaosSpec(seed=0, num_failures=2, fail_node=1, recover_after_s=1e-4)
        events = generate_chaos(spec, num_nodes=4)
        assert all(e.node_index == 1 for e in events)
        assert all(e.recover_s == pytest.approx(e.time_s + 1e-4) for e in events)

    def test_chaos_stream_independent_of_workload(self):
        jobs = generate_workload(WorkloadSpec(num_jobs=10, seed=3))
        generate_chaos(ChaosSpec(seed=3), num_nodes=2)
        again = generate_workload(WorkloadSpec(num_jobs=10, seed=3))
        assert [j.job_id for j in jobs] == [j.job_id for j in again]
        assert [j.arrival_s for j in jobs] == [j.arrival_s for j in again]
        assert [j.tensor.content_key for j in jobs] == [
            j.tensor.content_key for j in again
        ]


class TestCPRecovery:
    def test_bit_identical_factors_after_node_loss(self):
        clean = run_cp()
        failure = NodeFailure(time_s=clean.makespan_s * 0.4, node_index=0)
        faulty = run_cp(chaos=[failure])
        for a, b in zip(clean.factors, faulty.factors):
            assert np.array_equal(a, b)
        assert np.array_equal(clean.weights, faulty.weights)
        assert clean.fits == faulty.fits
        assert clean.iterations == faulty.iterations

    def test_recovery_cost_is_positive_and_recorded(self):
        clean = run_cp()
        failure = NodeFailure(time_s=clean.makespan_s * 0.4, node_index=1)
        faulty = run_cp(chaos=[failure])
        assert len(faulty.recoveries) == 1
        record = faulty.recoveries[0]
        assert isinstance(record, RecoveryRecord)
        assert record.failure == failure
        assert record.restage_s > 0.0
        assert record.restaged_bytes > 0.0
        assert record.survivor_devices == 2
        assert faulty.recovery_overhead_s == pytest.approx(record.restage_s)
        # The restage bookings land on the shared timeline as copy work.
        restage = [
            e for e in faulty.timeline.events if e.label.startswith("restage:")
        ]
        assert restage and all(e.duration_s > 0.0 for e in restage)

    def test_timeline_stays_feasible_after_recovery(self):
        clean = run_cp()
        failure = NodeFailure(time_s=clean.makespan_s * 0.3, node_index=0)
        faulty = run_cp(chaos=[failure])
        assert faulty.timeline.violations() == {}

    def test_clean_run_unaffected_by_chaos_plumbing(self):
        baseline = run_cp(chaos=None)
        empty = run_cp(chaos=[])
        for a, b in zip(baseline.factors, empty.factors):
            assert np.array_equal(a, b)
        assert baseline.makespan_s == empty.makespan_s
        assert empty.recoveries == []
        assert empty.recovery_overhead_s == 0.0

    def test_inapplicable_failures_ignored(self):
        clean = run_cp()
        # Node index out of range, and a failure after the run completes.
        chaos = [
            NodeFailure(time_s=clean.makespan_s * 0.5, node_index=99),
            NodeFailure(time_s=clean.makespan_s * 10.0, node_index=0),
        ]
        faulty = run_cp(chaos=chaos)
        assert faulty.recoveries == []
        for a, b in zip(clean.factors, faulty.factors):
            assert np.array_equal(a, b)

    def test_single_node_cluster_ignores_chaos(self):
        cluster = ClusterSpec.homogeneous(TITAN_X, 2)
        clean = run_cp(cluster=cluster)
        faulty = run_cp(
            chaos=[NodeFailure(time_s=clean.makespan_s * 0.5, node_index=0)],
            cluster=cluster,
        )
        assert faulty.recoveries == []
        for a, b in zip(clean.factors, faulty.factors):
            assert np.array_equal(a, b)

    def test_evict_node_requires_multinode(self):
        engine = UnifiedGPUEngine(ctx=ExecContext(cluster=ClusterSpec.homogeneous(TITAN_X, 2)))
        engine.prepare(TENSOR, 4)
        with pytest.raises(RuntimeError):
            engine.evict_node(0)

    @settings(deadline=None, max_examples=8)
    @given(
        frac=st.floats(min_value=0.05, max_value=0.95),
        node=st.integers(min_value=0, max_value=1),
    )
    def test_identity_over_failure_instants(self, frac, node):
        clean = run_cp(max_iterations=2)
        faulty = run_cp(
            chaos=[NodeFailure(time_s=clean.makespan_s * frac, node_index=node)],
            max_iterations=2,
        )
        for a, b in zip(clean.factors, faulty.factors):
            assert np.array_equal(a, b)
        assert np.array_equal(clean.weights, faulty.weights)


class TestTuckerRecovery:
    def test_bit_identical_after_node_loss(self):
        clean = tucker_hooi(
            TENSOR, (5, 5, 5), max_iterations=2, ctx=ExecContext(cluster=two_nodes())
        )
        failure = NodeFailure(time_s=clean.makespan_s * 0.4, node_index=0)
        faulty = tucker_hooi(
            TENSOR,
            (5, 5, 5),
            max_iterations=2,
            ctx=ExecContext(cluster=two_nodes(), chaos=[failure]),
        )
        for a, b in zip(clean.factors, faulty.factors):
            assert np.array_equal(a, b)
        assert np.array_equal(clean.core, faulty.core)
        assert clean.fits == faulty.fits
        assert len(faulty.recoveries) == 1
        assert faulty.recovery_overhead_s > 0.0

    def test_preproc_cache_ledger_not_perturbed(self):
        from repro.serve.cache import PreprocCache

        def run(chaos, cache):
            return tucker_hooi(
                TENSOR,
                (5, 5, 5),
                max_iterations=2,
                ctx=ExecContext(cluster=two_nodes(), preproc_cache=cache, chaos=chaos),
            )

        clean_cache = PreprocCache()
        run(None, clean_cache)
        clean = tucker_hooi(
            TENSOR, (5, 5, 5), max_iterations=2, ctx=ExecContext(cluster=two_nodes())
        )
        chaos_cache = PreprocCache()
        run(
            [NodeFailure(time_s=clean.makespan_s * 0.4, node_index=0)],
            chaos_cache,
        )
        # Recovery plans re-encode from scratch *outside* the cache, so no
        # phantom misses appear; the replayed sweep's per-mode lookups are
        # real work and surface as extra hits.
        assert clean_cache.stats.encode_misses == chaos_cache.stats.encode_misses
        assert chaos_cache.stats.encode_hits >= clean_cache.stats.encode_hits
        assert chaos_cache.stats.evictions == clean_cache.stats.evictions


class TestServingChaos:
    CLUSTER_NODES = 2

    def _jobs(self, n=14, seed=7):
        return generate_workload(WorkloadSpec(num_jobs=n, seed=seed))

    def _run(self, chaos=None, **kwargs):
        engine = ServingEngine(two_nodes(), **kwargs)
        return engine.run(self._jobs(), chaos=chaos)

    def _mid_run_failure(self, node=0):
        clean = self._run()
        return clean, NodeFailure(
            time_s=clean.makespan_s * 0.25, node_index=node
        )

    def test_requeued_jobs_complete_on_survivors(self):
        clean, failure = self._mid_run_failure(node=0)
        report = self._run(chaos=[failure])
        assert report.failures == [failure]
        dead = set(two_nodes().node_slots(0))
        requeued = [r for r in report.results if r.requeues]
        assert report.requeued_jobs == sum(r.requeues for r in requeued)
        for r in report.results:
            if r.completed and r.exec_start_s > failure.time_s:
                assert not (set(r.device_slots) & dead)
        # A node loss delays work; it never loses it.
        assert len(report.completed) == len(clean.completed)

    def test_outputs_bit_identical_under_chaos(self):
        clean, failure = self._mid_run_failure(node=0)
        report = self._run(chaos=[failure])
        by_id = {r.job.job_id: r for r in clean.results}
        for r in report.results:
            twin = by_id[r.job.job_id]
            assert r.status == twin.status
            if not r.completed:
                continue
            if isinstance(r.output, np.ndarray):
                assert np.array_equal(r.output, twin.output)
            elif hasattr(r.output, "factors"):
                for a, b in zip(r.output.factors, twin.output.factors):
                    assert np.array_equal(a, b)

    def test_recovered_node_accepts_new_placements(self):
        clean = self._run()
        failure = NodeFailure(
            time_s=clean.makespan_s * 0.1,
            node_index=0,
            recover_s=clean.makespan_s * 0.3,
        )
        report = self._run(chaos=[failure])
        slots_after_recovery = set()
        for r in report.completed:
            if r.exec_start_s > failure.recover_s:
                slots_after_recovery.update(r.device_slots)
        # Not guaranteed for every workload, but for this seeded one node
        # 0 hosts work again after recovering; assert the mechanism.
        assert len(report.completed) == len(clean.completed)
        dead = set(two_nodes().node_slots(0))
        for r in report.completed:
            start = r.exec_start_s
            if failure.time_s < start <= failure.recover_s:
                assert not (set(r.device_slots) & dead)

    def test_chaos_without_victims_is_noop_on_results(self):
        clean = self._run()
        late = NodeFailure(time_s=clean.makespan_s * 2.0, node_index=1)
        report = self._run(chaos=[late])
        assert report.requeued_jobs == 0
        assert len(report.completed) == len(clean.completed)
        for r, twin in zip(report.results, clean.results):
            assert r.finish_s == twin.finish_s

    def test_timeline_violations_empty_under_chaos(self):
        clean, failure = self._mid_run_failure(node=1)
        report = self._run(chaos=[failure])
        assert report.timeline.violations() == {}

    def test_render_mentions_faults(self):
        clean, failure = self._mid_run_failure(node=0)
        report = self._run(chaos=[failure])
        text = report.render()
        assert "node losses" in text
        assert "re-queues" in text

    def test_scheduler_outcome_counters(self):
        jobs = self._jobs()
        scheduler = Scheduler(two_nodes())
        clean = scheduler.run(jobs)
        failure = NodeFailure(time_s=clean.makespan_s * 0.25, node_index=0)
        outcome = Scheduler(two_nodes()).run(jobs, chaos=[failure])
        assert outcome.failures == [failure]
        assert outcome.requeued_jobs == sum(r.requeues for r in outcome.results)
        completed = [r for r in outcome.results if r.status is JobStatus.COMPLETED]
        assert len(completed) == sum(1 for r in clean.results if r.completed)


class TestEmptyAndOversizeEdges:
    def test_empty_workload_report_well_defined(self):
        report = ServingEngine(two_nodes()).run([])
        assert report.results == []
        assert report.makespan_s == 0.0
        assert report.throughput_jobs_per_s == 0.0
        assert report.p50_latency_s == 0.0
        assert report.p99_latency_s == 0.0
        assert report.mean_queue_wait_s == 0.0
        assert report.overall_utilization == 0.0
        assert all(u == 0.0 for u in report.device_utilization.values())
        text = report.render()
        assert "0 submitted" in text

    def test_zero_job_workload_spec(self):
        jobs = generate_workload(WorkloadSpec(num_jobs=0, seed=0))
        assert jobs == []
        report = ServingEngine(two_nodes()).run_workload(
            WorkloadSpec(num_jobs=0, seed=0)
        )
        assert report.makespan_s == 0.0

    def test_fully_shed_workload_report(self):
        from repro.serve.job import Job
        from repro.serve.workload import default_serving_cluster

        # Every job's resident operands exceed the largest serving device,
        # so admission control rejects the entire workload.
        big = random_sparse_tensor((4_000, 3_000, 100), 4_000, seed=2)
        jobs = [
            Job(job_id=i, tenant="t", kind="spmttkrp", tensor=big, rank=64)
            for i in range(3)
        ]
        report = ServingEngine(default_serving_cluster()).run(jobs)
        assert report.completed == []
        assert len(report.rejected) == len(jobs)
        assert report.makespan_s == 0.0
        assert report.throughput_jobs_per_s == 0.0
        assert report.p50_latency_s == 0.0
        assert report.mean_queue_wait_s == 0.0
        assert report.overall_utilization == 0.0
        text = report.render()
        assert "0 completed" in text
        assert "3 rejected" in text

    def test_oversized_encoding_not_cached(self):
        from repro.formats.mode_encoding import OperationKind
        from repro.serve.cache import PreprocCache

        cache = PreprocCache(capacity_bytes=1)
        tensor = random_sparse_tensor((30, 20, 10), 500, seed=0)
        encoding, hit, cost = cache.encoding(tensor, OperationKind.SPMTTKRP, 0)
        assert encoding is not None
        assert not hit
        assert cost > 0.0
        # The oversized entry must not be admitted (it would evict the
        # whole cache), but the caller still gets the encoding.
        assert cache.current_bytes == 0
        again, hit2, cost2 = cache.encoding(tensor, OperationKind.SPMTTKRP, 0)
        assert not hit2  # genuinely uncached, so a recompute
        assert again is not None


class TestFaultsBenchSuite:
    def test_faults_metrics_gate(self):
        from repro.bench.regression import _faults_metrics

        metrics = _faults_metrics()
        assert metrics["faults/identity_violation_count"] == 0.0
        assert metrics["faults/recovery_cost_missing_count"] == 0.0
        assert metrics["faults/serve_lost_jobs_count"] == 0.0
        assert metrics["faults/serve_requeued_jobs"] > 0.0
        assert metrics["faults/cp_restage"] > 0.0
        assert metrics["faults/tucker_restage"] > 0.0
