"""Host wall-clock benchmark of ``repro``: end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_single --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

One run is one process for one workload.  It pins BLAS/OpenMP to one
thread, imports ``repro`` from ``src/`` and generates the workload's inputs
from ``--seed`` (``setup_s`` is the median set-up time of this process and
two more that only set up).  It then runs one untimed warm-up iteration,
settles the reference result digests (pinned in ``digests.json``, or one
``reference``-backend run outside the timed region), and:

* ``--trace 0`` times iterations for ``--seconds`` seconds and reports the
  end-to-end metrics: ``throughput`` (median over iterations, in work units
  per host second), ``setup_s`` and ``peak_rss_mb``;
* ``--trace 1`` times untraced iterations for half of ``--seconds`` and
  then traced iterations (every layer of ``trace_layers.LAYERS`` wrapped
  in spans) for the other half, and reports the per-layer metrics.

Every iteration's result digests are compared with the reference; the
command exits 1 when any operation raised or differed.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--workload all`` runs every workload
untraced and traced in child processes and prints one row per workload
with every metric by name and unit.
"""

from __future__ import annotations

import os
import time

_PROCESS_START = time.perf_counter()

# The BLAS/OpenMP thread pin has to precede the first numpy import.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Dict, Iterator, List, Optional, Tuple  # noqa: E402

from trace_layers import LAYERS, Tracer, run_metrics, tail_percentile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Working directory for telemetry exports, spans and result files.
WORK_DIR = os.path.join(ROOT, ".perfbench")
PINS_PATH = os.path.join(HERE, "digests.json")
WORKLOAD_NAMES = ("serve_single", "serve_multinode", "decompose")
#: Extra processes that only set the workload up; ``setup_s`` is the
#: median over them and the run's own process.
SETUP_PROBES = 2
#: Limit for each child process this script starts.
CHILD_TIMEOUT_S = 180

END_TO_END_UNITS = {"throughput": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def _median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


# ---------------------------------------------------------------------- #
# Environment and reference digests
# ---------------------------------------------------------------------- #
def fingerprint() -> str:
    """What the bits of a numeric result depend on besides the program:
    the numpy build and the CPU features its kernels and BLAS dispatch on."""
    import numpy as np
    from numpy._core._multiarray_umath import __cpu_features__

    features = ",".join(sorted(k for k, on in __cpu_features__.items() if on))
    cpu = hashlib.blake2b(features.encode(), digest_size=6).hexdigest()
    return f"numpy={np.__version__};machine={platform.machine()};cpu={cpu}"


def environment(workload: str, seed: int, backend: str) -> Dict[str, object]:
    import numpy as np

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": backend,
        "fingerprint": fingerprint(),
    }


def load_pins() -> Dict[str, Dict[str, Dict[str, str]]]:
    """``{fingerprint: {workload: {seed: aggregate digest}}}``."""
    if not os.path.exists(PINS_PATH):
        return {}
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


@contextlib.contextmanager
def reference_backend() -> Iterator[None]:
    """Resolve the default backend to ``reference`` inside the block."""
    from repro.backends import BACKEND_ENV_VAR

    saved = os.environ.get(BACKEND_ENV_VAR)
    os.environ[BACKEND_ENV_VAR] = "reference"
    try:
        yield
    finally:
        if saved is None:
            del os.environ[BACKEND_ENV_VAR]
        else:
            os.environ[BACKEND_ENV_VAR] = saved


def reference_digests(
    workload, inputs, seed: int, backend: str, warm: List[Optional[str]]
) -> Tuple[List[Optional[str]], str, bool]:
    """The ``reference`` backend's per-operation digests for this input.

    Returns ``(digests, source, pin_ok)``.  A pinned digest for this seed
    and environment that the warm-up reproduces settles it without another
    run; otherwise one ``reference`` run outside the timed region does
    (the warm-up itself, when the resolved backend already is
    ``reference`` and no pin exists).  ``pin_ok`` is false when a
    ``reference`` run disagrees with its pin.
    """
    from workloads import aggregate_digest

    pinned = load_pins().get(fingerprint(), {}).get(workload.name, {}).get(str(seed))
    if pinned is not None and aggregate_digest(warm) == pinned:
        return warm, "pinned", True
    if pinned is None and backend == "reference":
        return warm, "warm-up", True
    with reference_backend():
        digests = workload.iterate(inputs, WORK_DIR).digests
    pin_ok = pinned is None or aggregate_digest(digests) == pinned
    return digests, "reference run", pin_ok


# ---------------------------------------------------------------------- #
# One workload in this process
# ---------------------------------------------------------------------- #
class Run:
    """Counts operations and compares every iteration with the reference."""

    def __init__(self, workload, inputs) -> None:
        self.workload = workload
        self.inputs = inputs
        self.reference: List[Optional[str]] = []
        self.attempted = 0
        self.failed = 0

    def check(self, digests: List[Optional[str]]) -> None:
        self.attempted += len(digests)
        if len(digests) != len(self.reference):
            self.failed += len(digests)
            return
        self.failed += sum(d is None or d != ref for d, ref in zip(digests, self.reference))

    def timed(
        self, seconds: float, min_iterations: int, tracer: Optional[Tracer] = None
    ) -> Tuple[List[float], List]:
        """Iterate until ``seconds`` have passed; returns walls and outcomes.

        With a ``tracer``, each iteration's spans carry its index as run id.
        """
        walls: List[float] = []
        outcomes = []
        start = time.perf_counter()
        while len(walls) < min_iterations or time.perf_counter() - start < seconds:
            if tracer is not None:
                tracer.run_id = len(walls)
            t0 = time.perf_counter()
            outcome = self.workload.iterate(self.inputs, WORK_DIR)
            walls.append(time.perf_counter() - t0)
            outcomes.append(outcome)
            self.check(outcome.digests)
        return walls, outcomes


def end_to_end(run: Run, seconds: float, setup_s: float) -> Tuple[Dict[str, float], List[str]]:
    walls, outcomes = run.timed(seconds, min_iterations=1)
    rates = [o.units / w for o, w in zip(outcomes, walls)]
    error_rate = run.failed / run.attempted
    notes = [
        f"throughput: median of {len(rates)} timed iterations "
        f"(min {min(rates):.4f}, max {max(rates):.4f}; {_median(walls):.3f} s each)",
        f"error_rate: {error_rate:.4f} ({run.failed} of {run.attempted} operations)",
    ]
    metrics = {
        "throughput": _median(rates),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, notes


PER_LAYER_EXTRA_UNITS = {
    "autotune.total_s": "s",
    "autotune.backend_calls": "count",
    "kernels.unified.nnz": "count",
    "serve.cache.encode_hit_ratio": "ratio",
    "serve.cache.tuner_hit_ratio": "ratio",
    "serve.execute.job_s_p50": "s",
    "serve.execute.job_s_tail": "s",
    "serve.execute.useful_ratio": "ratio",
    "serve.engine.schedule_runs": "count",
    "trace.untagged_s": "s",
    "trace.overhead_ratio": "ratio",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(PER_LAYER_EXTRA_UNITS)
    return units


def traced(run: Run, seconds: float) -> Tuple[Dict[str, float], List[str], bool, Tracer]:
    """Untraced then traced iterations; per-layer metrics and checks."""
    untraced_walls, _ = run.timed(seconds / 2.0, min_iterations=1)
    tracer = Tracer()
    with tracer:  # restores the originals on exit
        walls, outcomes = run.timed(seconds / 2.0, min_iterations=2, tracer=tracer)

    per_run = []
    job_s: List[float] = []
    ok = True
    notes = []
    for run_id, (wall, outcome) in enumerate(zip(walls, outcomes)):
        m, jobs = run_metrics(tracer.spans, run_id, LAYERS)
        job_s.extend(jobs)
        self_total = sum(m[f"{layer}.self_s"] for layer in LAYERS)
        m["trace.untagged_s"] = wall - self_total
        m["_wall"] = wall
        m["_completed"] = outcome.completed_jobs
        # Self times telescope to the time under top-level spans, which
        # lie inside the run's wall time.
        if abs(self_total - m["trace.root_s"]) > 1e-6 or m["trace.untagged_s"] < -1e-6:
            ok = False
            notes.append(
                f"run {run_id}: self times {self_total:.6f} s do not reconcile with "
                f"top-level spans {m['trace.root_s']:.6f} s inside wall {wall:.6f} s"
            )
        per_run.append(m)

    counts = [k for k in per_run[0] if k.endswith((".calls", "_calls", "nnz", "_lookups", "_hit"))]
    for key in counts:
        values = {m[key] for m in per_run}
        if len(values) != 1:
            ok = False
            notes.append(f"{key} differs between traced runs: {sorted(values)}")

    def mean(key: str) -> float:
        return sum(m[key] for m in per_run) / len(per_run)

    first = per_run[0]
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = first[f"{layer}.calls"]
        metrics[f"{layer}.self_s"] = mean(f"{layer}.self_s")
    metrics["autotune.total_s"] = mean("autotune.total_s")
    metrics["autotune.backend_calls"] = first["autotune.backend_calls"]
    metrics["kernels.unified.nnz"] = first["kernels.unified.nnz"]
    for kind, name in (("encoding", "encode"), ("tuner_config", "tuner")):
        lookups = first[f"serve.cache.{kind}_lookups"]
        hits = first[f"serve.cache.{kind}_hit"]
        metrics[f"serve.cache.{name}_hit_ratio"] = hits / lookups if lookups else 0.0
    q, tail = tail_percentile(job_s)
    metrics["serve.execute.job_s_p50"] = _median(job_s)
    metrics["serve.execute.job_s_tail"] = tail
    executed = first["serve.execute.calls"]
    metrics["serve.execute.useful_ratio"] = first["_completed"] / executed if executed else 0.0
    engine_runs = first["serve.engine.calls"]
    metrics["serve.engine.schedule_runs"] = (
        first["serve.scheduler.calls"] / engine_runs if engine_runs else 0.0
    )
    metrics["trace.untagged_s"] = mean("trace.untagged_s")
    traced_wall = _median([m["_wall"] for m in per_run])
    metrics["trace.overhead_ratio"] = traced_wall / _median(untraced_walls)

    bindings = ", ".join(f"{layer}={n}" for layer, n in tracer.bindings.items())
    notes[:0] = [
        f"traced runs: {len(walls)} ({traced_wall:.3f} s median wall), "
        f"untraced: {len(untraced_walls)} ({_median(untraced_walls):.3f} s)",
        f"bindings wrapped: {bindings}",
    ]
    tail_note = f"tail is p{q:g}, at least 10 beyond it" if q else "too few for a tail"
    notes.append(f"serve.execute.job_s samples: {len(job_s)} ({tail_note})")
    return metrics, notes, ok, tracer


def _child(args: argparse.Namespace, *extra: str) -> subprocess.CompletedProcess:
    """This script in a child process on ``args.seed``; waits for it."""
    cmd = [sys.executable, os.path.abspath(__file__), "--seed", str(args.seed), *extra]
    return subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
    )


def setup_probe(args: argparse.Namespace) -> float:
    """Set-up seconds of a fresh process: start until the inputs are ready."""
    child = _child(args, "--workload", args.workload, "--setup-probe")
    child.check_returncode()
    return float(child.stdout.strip().splitlines()[-1])


def run_workload(args: argparse.Namespace, import_s: float) -> int:
    from repro.backends import get_backend
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    setup_samples = [time.perf_counter() - _PROCESS_START]
    setup_samples += [setup_probe(args) for _ in range(SETUP_PROBES)]

    backend = get_backend().name  # resolved, never forced
    env = environment(workload.name, args.seed, backend)
    os.makedirs(WORK_DIR, exist_ok=True)

    run = Run(workload, inputs)
    warm = workload.iterate(inputs, WORK_DIR)
    run.reference, source, pin_ok = reference_digests(
        workload, inputs, args.seed, backend, warm.digests
    )
    run.check(warm.digests)

    tracer = None
    if args.trace:
        metrics, notes, trace_ok, tracer = traced(run, args.seconds)
        units = per_layer_units()
    else:
        metrics, notes = end_to_end(run, args.seconds, _median(setup_samples))
        trace_ok = True
        units = END_TO_END_UNITS
    samples = ", ".join(f"{x:.3f}" for x in setup_samples)
    notes.append(
        f"setup: median of {len(setup_samples)} processes ({samples} s; "
        f"this one imported repro in {import_s:.3f} s)"
    )
    pin_note = "" if pin_ok else " -- DISAGREES WITH THE PINNED DIGEST"
    notes.append(f"reference digests: {source}{pin_note}")
    correct = run.failed == 0 and pin_ok and trace_ok

    stem = f"{workload.name}-seed{args.seed}-trace{int(args.trace)}"
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    with open(os.path.join(WORK_DIR, f"result-{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump({"env": env, "notes": notes, **result}, fh, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.write_jsonl(os.path.join(WORK_DIR, f"spans-{stem}.jsonl"), header=env)

    print(f"perfbench {workload.name} trace={int(args.trace)}")
    print("  env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for note in notes:
        print(f"  {note}")
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:.6g} {unit}")
    print(json.dumps(result))
    return 0 if correct else 1


# ---------------------------------------------------------------------- #
# Every workload, one row each
# ---------------------------------------------------------------------- #
def run_all(args: argparse.Namespace) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        merged: Dict[str, dict] = {}
        correct = True
        for trace in ("0", "1"):
            child = _child(
                args, "--workload", name, "--seconds", str(args.seconds), "--trace", trace
            )
            lines = child.stdout.strip().splitlines()
            if child.returncode != 0 or not lines:
                print(child.stdout, end="")
                status = 1
                correct = False
                continue
            result = json.loads(lines[-1])
            correct = correct and result["correct"]
            merged.update(result["metrics"])
        cells = " ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in merged.items())
        print(f"{name:16s} correct={correct} {cells}", flush=True)
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(
            f"perfbench: no repro package under {SRC}; run from a source checkout",
            file=sys.stderr,
        )
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    import repro  # noqa: F401  (timed as part of set-up)
    import workloads

    if args.setup_probe:
        workloads.WORKLOADS[args.workload].setup(args.seed)
        print(time.perf_counter() - _PROCESS_START)
        return 0
    return run_workload(args, time.perf_counter() - _PROCESS_START)


if __name__ == "__main__":
    sys.exit(main())
