"""The benchmark's workloads: seeded inputs, one iteration, result digests.

Each workload generates its inputs from a seed (:meth:`Workload.setup`) and
then runs one iteration of the public ``repro`` API on them
(:meth:`Workload.iterate`), returning the work units done and one digest
per operation.  An operation is one served job or one decomposition; its
digest covers the bits of its result, so two runs agree exactly when
every digest does.

The workloads reach ``repro`` functions through their module attributes
at call time (``algorithms.cp_als``), so the traced run's rebinding of
those attributes covers the calls made from here too.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
import traceback
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

import repro.algorithms as algorithms
from repro.formats.semisparse import SemiSparseTensor
from repro.serve import (
    ChaosSpec,
    ServingEngine,
    WorkloadSpec,
    generate_chaos,
    generate_workload,
)
from repro.serve.workload import default_multinode_serving_cluster
from repro.tensor.random import random_sparse_tensor

__all__ = [
    "Outcome",
    "Workload",
    "ServeSingle",
    "ServeMultinode",
    "Decompose",
    "WORKLOADS",
    "aggregate_digest",
    "job_digest",
]


@dataclass
class Outcome:
    """One iteration: work units done and one digest per operation.

    A digest is ``None`` when its operation raised.
    """

    units: float
    digests: List[Optional[str]]
    completed_jobs: int = 0


def _feed(h: "hashlib._Hash", obj: Any) -> None:
    """Hash the bits of a result: arrays, scalars and result objects."""
    if obj is None:
        h.update(b"N")
    elif isinstance(obj, np.ndarray):
        h.update(f"A{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (bool, int, np.integer)):
        h.update(f"I{int(obj)}".encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(f"F{float(obj).hex()}".encode())
    elif isinstance(obj, (list, tuple)):
        h.update(f"L{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, SemiSparseTensor):
        _feed(h, (obj.shape, obj.dense_mode, obj.fiber_coords, obj.fiber_values))
    elif hasattr(obj, "factors"):
        # CPResult (weights + factors) or TuckerResult (core + factors).
        for attr in ("weights", "core", "factors"):
            if hasattr(obj, attr):
                h.update(attr.encode())
                _feed(h, getattr(obj, attr))
    else:
        raise TypeError(f"cannot digest a {type(obj).__name__}")


def _digest(*parts: Any) -> str:
    h = hashlib.blake2b(digest_size=16)
    _feed(h, parts)
    return h.hexdigest()


def job_digest(result) -> str:
    """Digest of one served job: id, terminal status, finish time, output."""
    h = hashlib.blake2b(digest_size=16)
    h.update(f"{result.job.job_id}|{result.status.value}|".encode())
    _feed(h, result.finish_s)
    _feed(h, result.output)
    return h.hexdigest()


def aggregate_digest(digests: List[Optional[str]]) -> str:
    """One digest for a whole iteration (a failed operation reads ``-``)."""
    joined = ",".join(d if d is not None else "-" for d in digests)
    return hashlib.blake2b(joined.encode(), digest_size=16).hexdigest()


def _report_traceback(where: str) -> None:
    print(f"perfbench: {where} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class Workload:
    """A named workload; subclasses implement setup and one iteration."""

    name = ""

    def setup(self, seed: int) -> Any:
        raise NotImplementedError

    def iterate(self, inputs: Any, scratch_dir: str) -> Outcome:
        raise NotImplementedError


class _Serve(Workload):
    """Serves ``streams`` independent job lists per iteration.

    Each stream is one serving run on a fresh engine (one ``serve``
    invocation).  A run's seed ``S`` expands to the stream seeds
    ``S * streams + k``: serving cost depends strongly on the few pool and
    whale tensors a stream's seed draws, so one stream makes a noisy
    sample of the workload and several make a steady one.
    """

    streams = 1

    def setup(self, seed: int) -> Any:
        return [self._stream(seed * self.streams + k) for k in range(self.streams)]

    def _stream(self, seed: int) -> Dict[str, Any]:
        raise NotImplementedError

    def _engine(self) -> ServingEngine:
        raise NotImplementedError

    def _serve(self, stream: Dict[str, Any], scratch_dir: str):
        return self._engine().run(stream["jobs"], chaos=stream.get("chaos"))

    def iterate(self, inputs: Any, scratch_dir: str) -> Outcome:
        completed = 0
        digests: List[Optional[str]] = []
        for stream in inputs:
            try:
                report = self._serve(stream, scratch_dir)
            except Exception:  # the benchmark counts it as failed operations
                _report_traceback(f"{self.name} serving run")
                digests.extend([None] * len(stream["jobs"]))
                continue
            completed += len(report.completed)
            results = sorted(report.results, key=lambda r: r.job.job_id)
            digests.extend(job_digest(r) for r in results)
        return Outcome(float(completed), digests, completed)


class ServeSingle(_Serve):
    """``serve --jobs 400 --trace --metrics --events`` on the default node,
    four streams per iteration."""

    name = "serve_single"
    num_jobs = 400
    streams = 4

    def _stream(self, seed: int) -> Dict[str, Any]:
        return {"jobs": generate_workload(WorkloadSpec(num_jobs=self.num_jobs, seed=seed))}

    def _engine(self) -> ServingEngine:
        # The serve CLI tunes launch parameters (run_serving's default).
        return ServingEngine(policy="priority", autotune=True)

    def _serve(self, stream: Dict[str, Any], scratch_dir: str):
        report = super()._serve(stream, scratch_dir)
        report.render()
        with tempfile.TemporaryDirectory(dir=scratch_dir) as out:
            report.timeline.write_chrome_trace(os.path.join(out, "trace.json"))
            report.metrics.write_prometheus(os.path.join(out, "metrics.prom"))
            report.events.write(os.path.join(out, "events.jsonl"))
        return report


class ServeMultinode(_Serve):
    """``serve --jobs 60 --nodes 2 --policy deadline --slo 0.3 --adaptive
    --nic-policy fair --chaos-seed S+1``."""

    name = "serve_multinode"
    num_jobs = 60
    nodes = 2
    cross_node_every = 14  # the serve CLI's multi-node tenant cadence

    def _stream(self, seed: int) -> Dict[str, Any]:
        jobs = generate_workload(
            WorkloadSpec(
                num_jobs=self.num_jobs,
                seed=seed,
                cross_node_every=self.cross_node_every,
                latency_slo_fraction=0.3,
            )
        )
        window_s = max((j.arrival_s for j in jobs), default=0.0) or 1e-3
        chaos = generate_chaos(
            ChaosSpec(seed=seed + 1, num_failures=1, window_s=window_s),
            num_nodes=self.nodes,
        )
        return {"jobs": jobs, "chaos": chaos}

    def _engine(self) -> ServingEngine:
        return ServingEngine(
            default_multinode_serving_cluster(self.nodes),
            policy="deadline",
            autotune=True,
            adaptive=True,
            nic_policy="fair",
        )


class Decompose(Workload):
    """CP-ALS then Tucker-HOOI on one power-law order-3 tensor."""

    name = "decompose"
    shape = (20000, 2000, 1500)
    nnz = 400_000
    cp_rank = 16
    cp_iterations = 5
    tucker_ranks = (8, 8, 8)
    tucker_iterations = 1

    def setup(self, seed: int) -> Any:
        return random_sparse_tensor(self.shape, self.nnz, seed=seed, distribution="power")

    def iterate(self, tensor: Any, scratch_dir: str) -> Outcome:
        sweeps = 0
        digests: List[Optional[str]] = []
        try:
            cp = algorithms.cp_als(
                tensor, self.cp_rank, max_iterations=self.cp_iterations, compute_fit=True
            )
            sweeps += cp.iterations
            digests.append(_digest(cp))
        except Exception:  # counted as a failed operation
            _report_traceback("cp_als")
            digests.append(None)
        try:
            tucker = algorithms.tucker_hooi(
                tensor, self.tucker_ranks, max_iterations=self.tucker_iterations
            )
            sweeps += tucker.iterations
            digests.append(_digest(tucker))
        except Exception:  # counted as a failed operation
            _report_traceback("tucker_hooi")
            digests.append(None)
        return Outcome(float(tensor.nnz * sweeps), digests)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (ServeSingle(), ServeMultinode(), Decompose())
}
