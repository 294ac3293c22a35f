"""Property harness for the unified simulated-time resource engine.

The three pillars the refactor must hold (ISSUE 5):

(a) **closed-form equivalence on idle resources** — the streaming pipeline,
    the sharded kernels and the serving scheduler, re-expressed as timeline
    bookings, reproduce the pre-refactor recurrences/closed forms (bit for
    bit where the arithmetic is identical, to float association otherwise);
(b) **NIC congestion** — concurrent cross-node collectives on a shared
    timeline never finish earlier than the idle-NIC model and degenerate to
    it exactly with a single job;
(c) **intra-kernel overlap** — ``cp_als(..., overlap_modes=True)`` never
    exceeds the sequential modeled makespan and leaves every factor
    bit-identical.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.algorithms.cp import CPResult, UnifiedGPUEngine, cp_als
from repro.algorithms.tucker import tucker_hooi
from repro.context import ExecContext
from repro.formats.fcoo import FCOOTensor
from repro.formats.mode_encoding import OperationKind
from repro.gpusim.cluster import (
    ETHERNET_10G,
    ClusterSpec,
    MultiNodeClusterSpec,
    NodeSpec,
    PCIE3_P2P,
)
from repro.gpusim.device import TITAN_X, scaled_device
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
from repro.kernels.unified.spmttkrp import unified_spmttkrp
from repro.tensor.random import random_factors, random_sparse_tensor

# ---------------------------------------------------------------------- #
# Strategies
# ---------------------------------------------------------------------- #
_seconds = st.floats(
    min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False
)
_chunk_timings = st.lists(
    st.tuples(_seconds, _seconds).map(lambda p: ChunkTiming(*p)),
    min_size=0,
    max_size=12,
)


# ---------------------------------------------------------------------- #
# Engine units: Resource / Timeline / SimClock
# ---------------------------------------------------------------------- #
class TestEngine:
    def test_serial_resource_bookkeeping(self):
        timeline = Timeline()
        lane = timeline.resource("dev0.compute", category="compute")
        first = lane.book(2.0, label="a")
        second = lane.book(1.0, ready_s=1.0, label="b")  # queues behind `a`
        assert (first.start_s, first.end_s) == (0.0, 2.0)
        assert (second.start_s, second.end_s) == (2.0, 3.0)
        assert lane.free_s == 3.0
        assert lane.busy_s == 3.0
        assert timeline.makespan_s == 3.0
        assert [e.label for e in timeline.events] == ["a", "b"]

    def test_dependency_gate(self):
        timeline = Timeline()
        lane = timeline.resource("r")
        booking = lane.book(1.0, ready_s=5.0)
        assert booking.start_s == 5.0 and booking.end_s == 6.0

    def test_non_busy_reservation(self):
        timeline = Timeline()
        lane = timeline.resource("r")
        lane.book(2.0, busy=False, label="hold")
        assert lane.free_s == 2.0
        assert lane.busy_s == 0.0
        assert timeline.utilization("r") == 0.0

    def test_invalid_bookings_rejected(self):
        timeline = Timeline()
        lane = timeline.resource("r")
        with pytest.raises(ValueError, match="duration"):
            lane.book(-1.0)
        with pytest.raises(ValueError, match="ready_s"):
            lane.book(1.0, ready_s=-2.0)
        with pytest.raises(ValueError, match="duration"):
            lane.book(float("nan"))

    def test_gang_booking_waits_for_slowest_member(self):
        timeline = Timeline()
        a = timeline.resource("a")
        b = timeline.resource("b")
        a.book(3.0)
        gang = timeline.book_together([a, b], 2.0, ready_s=1.0, label="coll")
        assert isinstance(gang, GangBooking)
        assert gang.start_s == 3.0 and gang.end_s == 5.0
        assert a.free_s == b.free_s == 5.0
        with pytest.raises(ValueError, match="at least one"):
            timeline.book_together([], 1.0)

    def test_foreign_resource_rejected(self):
        timeline = Timeline()
        other = Timeline().resource("r")
        with pytest.raises(ValueError, match="different timeline"):
            timeline.book(other, 1.0)

    def test_queries_and_utilization(self):
        timeline = Timeline()
        timeline.book("x", 1.0, label="one")
        timeline.book("y", 3.0, label="two")
        assert timeline.busy_s("x") == 1.0
        assert timeline.busy_s("missing") == 0.0
        assert timeline.free_s("y") == 3.0
        assert timeline.utilization("x") == pytest.approx(1.0 / 3.0)
        assert timeline.utilizations() == {
            "x": pytest.approx(1.0 / 3.0),
            "y": 1.0,
        }
        assert timeline.has_resource("x") and not timeline.has_resource("z")
        assert [e.label for e in timeline.events_for(resource="y")] == ["two"]
        assert isinstance(timeline.events[0], Booking)
        assert isinstance(timeline.resources[0], Resource)

    def test_utilization_unclamped_and_violations(self):
        timeline = Timeline()
        lane = timeline.resource("r")
        lane.book(2.0)
        assert timeline.utilization("r") == 1.0
        assert timeline.violations() == {}
        # Simulate the accounting bug the clamp used to mask: busy seconds
        # double-counted beyond the booked span must now be visible...
        lane.busy_s += 5.0
        assert timeline.utilization("r") == pytest.approx(3.5)
        # ...and flagged by the violations query.
        violations = timeline.violations()
        assert set(violations) == {"r"}
        assert violations["r"] == pytest.approx(5.0)
        # explicit span override works the same way
        assert timeline.violations(makespan_s=10.0) == {}

    def test_real_runs_book_without_violations(self):
        from repro.bench.serving import run_serving

        report = run_serving(num_jobs=20, seed=0, nodes=2)
        assert report.timeline is not None
        assert report.timeline.violations() == {}

    def test_sim_clock_monotone(self):
        clock = SimClock()
        assert clock.advance_to(2.0) == 2.0
        assert clock.advance_to(1.0) == 2.0  # never backwards
        assert clock.now_s == 2.0
        with pytest.raises(ValueError):
            SimClock(-1.0)
        with pytest.raises(ValueError):
            clock.advance_to(float("inf"))

    def test_chrome_trace_schema(self, tmp_path):
        timeline = Timeline()
        timeline.book("dev0.compute", 1.5, label="kernel")
        timeline.book("nic:node0", 0.5, ready_s=1.5, label="allreduce")
        trace = timeline.chrome_trace()
        assert trace["displayTimeUnit"] == "ms"
        phases = {e["ph"] for e in trace["traceEvents"]}
        assert phases == {"M", "X"}
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert complete[0]["name"] == "kernel"
        assert complete[0]["ts"] == 0.0 and complete[0]["dur"] == 1.5e6
        path = tmp_path / "trace.json"
        timeline.write_chrome_trace(str(path))
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(trace))


# ---------------------------------------------------------------------- #
# Import surface
# ---------------------------------------------------------------------- #
class TestImportCompat:
    def test_scheduler_surface_unchanged(self):
        from repro.serve.scheduler import DeviceTimeline, ScheduleOutcome, Scheduler

        assert {"slot", "device", "copy_free_s", "compute_free_s", "busy_s", "jobs"} <= {
            f for f in DeviceTimeline.__dataclass_fields__
        }
        assert hasattr(Scheduler, "run")
        assert "timeline" in ScheduleOutcome.__dataclass_fields__

    def test_package_level_exports(self):
        import repro.gpusim as gpusim

        for name in (
            "Timeline",
            "SimClock",
            "Resource",
            "Booking",
            "GangBooking",
            "schedule_chunks",
            "ChunkTiming",
            "device_copy_key",
            "device_compute_key",
        ):
            assert hasattr(gpusim, name)
        assert device_copy_key(3) == "dev3.copy"
        assert device_compute_key(0) == "dev0.compute"


# ---------------------------------------------------------------------- #
# (a) closed-form equivalence: streaming
# ---------------------------------------------------------------------- #
def _reference_recurrence(timings, num_streams):
    """The pre-refactor two-resource recurrence, verbatim."""
    transfer_ends, compute_ends = [], []
    for i, timing in enumerate(timings):
        copy_free = transfer_ends[i - 1] if i >= 1 else 0.0
        buffer_free = compute_ends[i - num_streams] if i >= num_streams else 0.0
        transfer_end = max(copy_free, buffer_free) + timing.transfer_s
        compute_free = compute_ends[i - 1] if i >= 1 else 0.0
        compute_end = max(transfer_end, compute_free) + timing.compute_s
        transfer_ends.append(transfer_end)
        compute_ends.append(compute_end)
    return transfer_ends, compute_ends


class TestStreamingClosedForm:
    @given(timings=_chunk_timings, num_streams=st.integers(1, 5))
    def test_schedule_matches_pre_refactor_recurrence_bitwise(
        self, timings, num_streams
    ):
        schedule = schedule_chunks(timings, num_streams)
        transfer_ends, compute_ends = _reference_recurrence(timings, num_streams)
        assert list(schedule.transfer_ends) == transfer_ends
        assert list(schedule.compute_ends) == compute_ends

    @given(timings=_chunk_timings, num_streams=st.integers(1, 5))
    def test_schedule_books_copy_and_compute_resources(self, timings, num_streams):
        schedule = schedule_chunks(timings, num_streams)
        timeline = schedule.timeline
        assert timeline is not None
        assert timeline.busy_s(device_copy_key(0)) == pytest.approx(
            schedule.transfer_time_s
        )
        assert timeline.busy_s(device_compute_key(0)) == pytest.approx(
            schedule.compute_time_s
        )
        assert timeline.makespan_s == schedule.total_time_s

    def test_pipeline_time_and_shared_timeline(self):
        assert pipeline_time([1.0, 1.0], [2.0, 2.0], 2) == 5.0
        shared = Timeline()
        schedule_chunks([ChunkTiming(1.0, 2.0)], 2, timeline=shared, device_slot=1)
        assert shared.busy_s(device_compute_key(1)) == 2.0
        assert isinstance(
            schedule_chunks([], 1), StreamSchedule
        )  # empty stream is fine

    def test_streamed_kernel_profile_carries_timeline(self):
        tensor = random_sparse_tensor((24, 20, 16), 3_000, seed=5)
        factors = [np.asarray(f) for f in random_factors(tensor.shape, 4, seed=1)]
        fcoo = FCOOTensor.from_sparse(tensor, OperationKind.SPMTTKRP, 0)
        result = unified_spmttkrp(
            fcoo, factors, 0, ctx=ExecContext(streamed=True, num_streams=2, chunk_nnz=512)
        )
        streaming = result.profile.streaming
        assert streaming is not None
        assert streaming.timeline is not None
        assert streaming.timeline.makespan_s == result.estimated_time_s


# ---------------------------------------------------------------------- #
# (a) closed-form equivalence: sharded kernels and serving
# ---------------------------------------------------------------------- #
class TestShardedAndServingClosedForm:
    @given(num_devices=st.integers(2, 4), seed=st.integers(0, 4))
    def test_sharded_booking_matches_closed_form_on_idle_timeline(
        self, num_devices, seed
    ):
        tensor = random_sparse_tensor((20, 18, 16), 2_500, seed=seed)
        factors = [np.asarray(f) for f in random_factors(tensor.shape, 4, seed=seed)]
        fcoo = FCOOTensor.from_sparse(tensor, OperationKind.SPMTTKRP, 0)
        cluster = ClusterSpec.homogeneous(TITAN_X, num_devices)
        result = unified_spmttkrp(fcoo, factors, 0, ctx=ExecContext(cluster=cluster))
        execution = result.profile.sharded
        timeline = Timeline()
        start, end = execution.book(timeline)
        assert start == 0.0
        assert end == pytest.approx(execution.total_time_s, rel=1e-12)
        # the collective rode the cluster's link resource
        if execution.reduction_time_s > 0.0:
            assert timeline.busy_s(cluster.link_resource_key()) == pytest.approx(
                execution.reduction_time_s
            )

    def test_serving_uncontended_finish_matches_closed_form(self):
        from repro.bench.serving import run_serving

        report = run_serving(num_jobs=30, seed=0)
        assert report.completed
        for r in report.completed:
            # finish == exec_start + exec_s is exactly the pre-refactor
            # two-horizon recurrence; on the default single-node cluster no
            # collective ever queues, so it must hold bit for bit.
            assert r.finish_s == r.exec_start_s + r.exec_s

    def test_multinode_serving_finish_never_below_closed_form(self):
        from repro.bench.serving import run_serving

        report = run_serving(num_jobs=30, seed=0, nodes=2)
        assert report.completed
        for r in report.completed:
            assert r.finish_s >= r.exec_start_s + r.exec_s - 1e-18
        assert report.timeline is not None
        # cross-node sharded jobs booked the NIC tier
        if report.cross_node_jobs:
            assert any(e.category == "nic" for e in report.timeline.events)

    def test_sharded_decomposition_job_books_collectives(self):
        from repro.serve.engine import ServingEngine
        from repro.serve.job import Job, JobKind
        from repro.serve.workload import default_multinode_serving_cluster

        tensor = random_sparse_tensor(
            (240, 280, 200), 130_000, seed=9, distribution="power", concentration=1.1
        )
        engine = ServingEngine(default_multinode_serving_cluster(2))
        job = Job(job_id=0, tenant="t", kind=JobKind.CP_ALS, tensor=tensor, rank=8)
        report = engine.run([job])
        (result,) = report.results
        assert result.completed and result.execution == "decomposition"
        assert result.placement is not None and result.placement.crosses_nic
        # the decomposition's aggregate collective seconds rode the NIC tier
        labels = {
            e.label for e in report.timeline.events_for(category="nic", busy_only=True)
        }
        assert "collectives:job0" in labels
        # uncontended: the idle closed form holds bit for bit
        assert result.finish_s == result.exec_start_s + result.exec_s

    def test_report_utilization_derived_from_timeline(self):
        from repro.bench.serving import run_serving

        report = run_serving(num_jobs=25, seed=0)
        timeline = report.timeline
        assert timeline is not None
        makespan = report.makespan_s
        for slot, utilization in report.device_utilization.items():
            busy = timeline.busy_s(device_compute_key(slot))
            assert utilization == pytest.approx(min(1.0, busy / makespan))
            assert 0.0 <= utilization <= 1.0
        # the DeviceTimeline views carry the same per-resource busy numbers
        for view in report.timelines:
            assert view.busy_s == timeline.busy_s(device_compute_key(view.slot))
            assert view.copy_free_s == timeline.free_s(device_copy_key(view.slot))


# ---------------------------------------------------------------------- #
# (b) shared-NIC congestion
# ---------------------------------------------------------------------- #
_payloads = st.floats(min_value=1.0, max_value=1e9, allow_nan=False, allow_infinity=False)


class TestNicCongestion:
    @given(nbytes=_payloads, num_nodes=st.integers(2, 4))
    def test_single_collective_degenerates_to_idle_model(self, nbytes, num_nodes):
        cluster = MultiNodeClusterSpec.homogeneous(
            num_nodes=num_nodes, devices_per_node=2, nic=ETHERNET_10G
        )
        timeline = Timeline()
        booking = cluster.book_allreduce(timeline, nbytes, ready_s=1.0)
        assert booking.start_s == 1.0
        assert booking.end_s == 1.0 + cluster.allreduce_time(nbytes)

    @given(
        payload_list=st.lists(_payloads, min_size=2, max_size=5),
        num_nodes=st.integers(2, 3),
    )
    def test_concurrent_collectives_never_beat_idle_model(self, payload_list, num_nodes):
        cluster = MultiNodeClusterSpec.homogeneous(
            num_nodes=num_nodes, devices_per_node=2, nic=ETHERNET_10G
        )
        timeline = Timeline()
        clock = 0.0
        for i, nbytes in enumerate(payload_list):
            idle = cluster.allreduce_time(nbytes)
            booking = cluster.book_allreduce(timeline, nbytes, label=f"job{i}")
            # never earlier than the idle-NIC model...
            assert booking.end_s >= idle
            # ...and exactly serialised behind the previous collectives.
            assert booking.start_s == clock
            assert booking.end_s == clock + idle
            clock = booking.end_s

    def test_node_local_and_cluster_wide_collectives_share_link_resources(self):
        cluster = MultiNodeClusterSpec.homogeneous(num_nodes=2, devices_per_node=2)
        timeline = Timeline()
        node0 = cluster.nodes[0].as_cluster()
        local = node0.book_allreduce(timeline, 1 << 20)
        wide = cluster.book_allreduce(timeline, 1 << 20)
        # the cluster-wide collective had to wait for node 0's link
        assert wide.start_s == local.end_s
        keys = {b.resource for b in wide.bookings}
        assert node0.link_resource_key() in keys
        assert cluster.nic_resource_key(0) in keys and cluster.nic_resource_key(1) in keys

    def test_single_node_cluster_books_no_nic(self):
        node = NodeSpec.homogeneous(TITAN_X, 2, interconnect=PCIE3_P2P)
        cluster = MultiNodeClusterSpec(nodes=(node,))
        timeline = Timeline()
        cluster.book_allreduce(timeline, 1 << 20)
        assert not any(e.category == "nic" for e in timeline.events)

    def test_other_collective_bookings(self):
        cluster = ClusterSpec.homogeneous(TITAN_X, 3)
        timeline = Timeline()
        g = cluster.book_gather(timeline, [0.0, 1e6, 1e6])
        assert g.end_s == cluster.gather_time([0.0, 1e6, 1e6])
        n = cluster.book_neighbor_exchange(timeline, [1e6], ready_s=g.end_s)
        assert n.end_s == g.end_s + cluster.neighbor_exchange_time([1e6])
        b = cluster.book_broadcast(timeline, 1e6)
        assert b.start_s == n.end_s  # serialised on the shared link
        multi = MultiNodeClusterSpec.homogeneous(num_nodes=2, devices_per_node=2)
        assert (
            multi.book_broadcast(Timeline(), 1e6).end_s == multi.broadcast_time(1e6)
        )
        assert (
            multi.book_gather(Timeline(), [1e6] * 4).end_s
            == multi.gather_time([1e6] * 4)
        )
        assert (
            multi.book_neighbor_exchange(
                Timeline(), [1e6], slots=[2], sources=[1]
            ).end_s
            == multi.neighbor_exchange_time([1e6], slots=[2], sources=[1])
        )


# ---------------------------------------------------------------------- #
# (c) intra-kernel overlap for CP-ALS
# ---------------------------------------------------------------------- #
def _overlap_cluster(num_nodes=2, devices_per_node=2):
    return MultiNodeClusterSpec.homogeneous(
        num_nodes=num_nodes, devices_per_node=2, nic=ETHERNET_10G
    )


class TestOverlapModes:
    @given(
        seed=st.integers(0, 3),
        rank=st.sampled_from([4, 8]),
        num_nodes=st.integers(2, 3),
        iterations=st.integers(1, 2),
    )
    def test_overlap_never_exceeds_sequential_and_factors_bit_identical(
        self, seed, rank, num_nodes, iterations
    ):
        tensor = random_sparse_tensor((600, 24, 20), 2_000, seed=seed)
        kwargs = dict(max_iterations=iterations, compute_fit=False, seed=seed)
        sequential = cp_als(
            tensor,
            rank,
            engine=UnifiedGPUEngine(ctx=ExecContext(cluster=_overlap_cluster(num_nodes))),
            **kwargs,
        )
        overlapped = cp_als(
            tensor,
            rank,
            engine=UnifiedGPUEngine(ctx=ExecContext(cluster=_overlap_cluster(num_nodes))),
            ctx=ExecContext(overlap_modes=True),
            **kwargs,
        )
        assert overlapped.makespan_s <= sequential.makespan_s
        assert overlapped.overlap_modes and not sequential.overlap_modes
        for a, b in zip(sequential.factors, overlapped.factors):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(sequential.weights, overlapped.weights)
        assert overlapped.total_time_s == sequential.total_time_s

    def test_sequential_makespan_matches_serial_ledger_sum(self):
        tensor = random_sparse_tensor((64, 24, 20), 2_000, seed=1)
        result = cp_als(
            tensor,
            4,
            engine=UnifiedGPUEngine(ctx=ExecContext(cluster=_overlap_cluster())),
            max_iterations=2,
            compute_fit=False,
        )
        assert result.makespan_s == pytest.approx(result.total_time_s, rel=1e-12)
        assert result.timeline is not None
        assert any(e.category in ("link", "nic") for e in result.timeline.events)

    def test_overlap_saves_time_when_collective_is_hidable(self):
        tensor = random_sparse_tensor((60_000, 60, 50), 12_000, seed=3)
        kwargs = dict(max_iterations=1, compute_fit=False)
        sequential = cp_als(
            tensor,
            16,
            engine=UnifiedGPUEngine(ctx=ExecContext(cluster=_overlap_cluster())),
            **kwargs,
        )
        overlapped = cp_als(
            tensor,
            16,
            engine=UnifiedGPUEngine(ctx=ExecContext(cluster=_overlap_cluster())),
            ctx=ExecContext(overlap_modes=True),
            **kwargs,
        )
        assert overlapped.makespan_s < sequential.makespan_s
        assert overlapped.overlap_saved_s > 0.0

    def test_single_device_overlap_is_a_noop(self):
        tensor = random_sparse_tensor((32, 24, 20), 1_500, seed=2)
        kwargs = dict(max_iterations=2, compute_fit=False)
        plain = cp_als(tensor, 4, **kwargs)
        overlapped = cp_als(tensor, 4, ctx=ExecContext(overlap_modes=True), **kwargs)
        assert overlapped.makespan_s == plain.makespan_s
        assert plain.makespan_s == pytest.approx(plain.total_time_s, rel=1e-12)
        for a, b in zip(plain.factors, overlapped.factors):
            np.testing.assert_array_equal(a, b)

    def test_cp_result_shape(self):
        tensor = random_sparse_tensor((32, 24, 20), 1_500, seed=2)
        result = cp_als(tensor, 4, max_iterations=1, compute_fit=False)
        assert isinstance(result, CPResult)
        assert result.timeline is not None
        assert result.overlap_saved_s >= 0.0

    def test_tucker_books_unified_timeline(self):
        tensor = random_sparse_tensor((30, 24, 20), 1_500, seed=4)
        cluster = ClusterSpec.homogeneous(scaled_device(TITAN_X, 1.0), 2)
        result = tucker_hooi(tensor, (3, 3, 3), max_iterations=1, ctx=ExecContext(cluster=cluster))
        assert result.timeline is not None
        assert result.makespan_s == pytest.approx(result.total_time_s, rel=1e-12)
        busy = sum(
            result.timeline.busy_s(device_compute_key(i)) for i in range(2)
        )
        assert busy > 0.0


# ---------------------------------------------------------------------- #
# CLI --trace and the regression suite
# ---------------------------------------------------------------------- #
class TestTraceSurfaces:
    def test_serve_trace_export(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "serve-trace.json"
        assert main(["serve", "--jobs", "8", "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "timeline trace written" in out
        trace = json.loads(path.read_text())
        assert trace["traceEvents"]
        names = {e["args"]["name"] for e in trace["traceEvents"] if e["ph"] == "M"}
        assert device_copy_key(0) in names and device_compute_key(0) in names

    def test_scaling_trace_export(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "scaling-trace.json"
        assert main(["scaling", "--rank", "8", "--trace", str(path)]) == 0
        assert "timeline trace written" in capsys.readouterr().out
        trace = json.loads(path.read_text())
        labels = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert any(label.startswith("spmttkrp") for label in labels)

    def test_multinode_scaling_trace_matches_requested_topology(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        path = tmp_path / "nodes-trace.json"
        assert main(["scaling", "--nodes", "2", "--trace", str(path)]) == 0
        capsys.readouterr()
        trace = json.loads(path.read_text())
        threads = {e["args"]["name"] for e in trace["traceEvents"] if e["ph"] == "M"}
        assert any(name.startswith("nic:") for name in threads)

    def test_trace_requires_exactly_one_consumer(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "trace.json"
        with pytest.raises(SystemExit):
            main(["fig8", "--trace", str(path)])  # no timeline to export
        with pytest.raises(SystemExit):
            main(["serve", "scaling", "--trace", str(path)])  # ambiguous
        assert not path.exists()
        capsys.readouterr()

    def test_regression_timeline_metrics(self):
        from repro.bench.regression import _timeline_metrics

        metrics = _timeline_metrics()
        assert set(metrics) == {
            "timeline/congestion_slowdown_ratio",
            "timeline/contended_lt_idle_count",
            "timeline/overlap_makespan",
            "timeline/overlap_time_ratio",
            "timeline/overlap_gt_sequential_count",
            "timeline/overlap_lost_count",
        }
        assert metrics["timeline/contended_lt_idle_count"] == 0.0
        assert metrics["timeline/overlap_gt_sequential_count"] == 0.0
        assert metrics["timeline/overlap_lost_count"] == 0.0
        assert metrics["timeline/congestion_slowdown_ratio"] >= 1.0
        assert 0.0 < metrics["timeline/overlap_time_ratio"] <= 1.0
