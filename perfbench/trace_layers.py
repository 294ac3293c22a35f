"""Per-layer tracing of ``repro`` from outside the package.

The traced run wraps each layer's public functions in spans without
editing ``src/``: every module-level binding of a target function object
across the loaded ``repro.*`` modules is replaced by a wrapper (several
callers import the functions by name), and target methods are replaced in
the defining class's ``__dict__``.  :meth:`Tracer.restore` puts every
original back, so untraced measurements never carry tracer overhead.

A span records ``(layer, name, start, end, parent, run_id)``; spans live in
memory and are written out by :meth:`Tracer.write_jsonl` after the run.  A
span's self time is its duration minus the durations of its direct child
spans (calls are strictly nested on one thread, so children never
overlap).  :func:`run_metrics` folds one run's spans into the per-layer
numbers the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

__all__ = [
    "LAYERS",
    "BACKEND_METHODS",
    "Span",
    "Target",
    "Tracer",
    "function",
    "method",
    "run_metrics",
    "tail_percentile",
]

#: The :class:`~repro.backends.base.Backend` primitives the kernels call.
BACKEND_METHODS = (
    "segment_reduce",
    "slice_products",
    "kron_products",
    "hadamard_segment_sums",
    "kron_segment_sums",
    "gram",
    "dense_hadamard",
    "matmul",
)


class Target(NamedTuple):
    """One wrapped callable: a module function, or a method of ``owner``."""

    module: str
    attr: str
    owner: Optional[str] = None

    @property
    def label(self) -> str:
        return f"{self.owner}.{self.attr}" if self.owner else self.attr


def function(module: str, attr: str) -> Target:
    return Target(module, attr)


def method(module: str, owner: str, attr: str) -> Target:
    return Target(module, attr, owner)


def _backend_targets() -> List[Target]:
    return [
        method(module, owner, name)
        for module, owner in (
            ("repro.backends.base", "Backend"),
            ("repro.backends.reference", "ReferenceBackend"),
            ("repro.backends.vectorized", "VectorizedBackend"),
        )
        for name in BACKEND_METHODS
    ]


#: Layer name -> the public callables whose spans make up that layer.
LAYERS: Dict[str, List[Target]] = {
    "formats": [method("repro.formats.fcoo", "FCOOTensor", "from_sparse")],
    "autotune": [function("repro.autotune.tuner", "tune_unified")],
    "kernels.unified": [
        function("repro.kernels.unified.spttm", "unified_spttm"),
        function("repro.kernels.unified.spmttkrp", "unified_spmttkrp"),
        function("repro.kernels.unified.spttmc", "unified_spttmc"),
    ],
    "kernels.model": [
        function("repro.kernels.unified._model", "unified_kernel_counters")
    ],
    "backends": _backend_targets(),
    "algorithms": [
        function("repro.algorithms.cp", "cp_als"),
        function("repro.algorithms.tucker", "tucker_hooi"),
    ],
    "serve.cache": [
        method("repro.serve.cache", "PreprocCache", name)
        for name in ("encoding", "tuner_config", "rerank_tuner_config", "clone")
    ],
    "serve.placement": [
        method("repro.serve.placement", "Placer", "admit"),
        method("repro.serve.placement", "Placer", "place"),
    ],
    "serve.execute": [function("repro.serve.execute", "execute_job")],
    "serve.scheduler": [method("repro.serve.scheduler", "Scheduler", "run")],
    "serve.engine": [method("repro.serve.engine", "ServingEngine", "run")],
    "obs": [
        function("repro.serve.engine", "publish_serving_metrics"),
        function("repro.obs.attribution", "attribute"),
        method("repro.obs.metrics", "MetricsRegistry", "write_prometheus"),
        method("repro.obs.events", "EventLog", "write"),
        method("repro.gpusim.timeline", "Timeline", "write_chrome_trace"),
    ],
}


class Span:
    """One call of a wrapped callable."""

    __slots__ = ("layer", "name", "start", "end", "parent", "run_id", "child_s", "info")

    def __init__(self, layer: str, name: str, parent: int, run_id: int) -> None:
        self.layer = layer
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.parent = parent
        self.run_id = run_id
        self.child_s = 0.0
        #: Counts observed at the boundary (non-zeros, cache hits).
        self.info: Optional[Tuple[str, float]] = None

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration_s - self.child_s


def _observe(
    layer: str, attr: str, args: tuple, kwargs: dict, result
) -> Optional[Tuple[str, float]]:
    """The count a span records at its boundary, if its layer has one."""
    if layer == "kernels.unified":
        tensor = args[0] if args else kwargs.get("tensor")
        return ("nnz", float(tensor.nnz))
    if layer == "serve.cache" and attr in ("encoding", "tuner_config"):
        # Both return ``(value, hit, host_seconds)``.
        return (f"{attr}_hit", 1.0 if result[1] else 0.0)
    return None


def _is_repro_module(name: str) -> bool:
    return name == "repro" or name.startswith("repro.")


class Tracer:
    """Wraps the :data:`LAYERS` targets in spans; restores them on exit.

    Use as a context manager (``with Tracer() as tracer:``) or call
    :meth:`install` / :meth:`restore`.  Set :attr:`run_id` before each run
    so its spans can be told apart.
    """

    def __init__(
        self,
        layers: Optional[Dict[str, List[Target]]] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.layers = LAYERS if layers is None else layers
        self.clock = clock
        self.spans: List[Span] = []
        self.run_id = 0
        #: Layer -> number of bindings replaced by :meth:`install`.
        self.bindings: Dict[str, int] = {}
        self._stack: List[int] = []
        self._wrapped: List[Tuple[object, object]] = []  # (original, wrapper)
        self._class_slots: List[Tuple[type, str, object]] = []  # (cls, attr, original)

    # ------------------------------------------------------------------ #
    def _wrap(self, layer: str, name: str, attr: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = tracer.spans
            stack = tracer._stack
            span = Span(layer, name, stack[-1] if stack else -1, tracer.run_id)
            stack.append(len(spans))
            spans.append(span)
            span.start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = tracer.clock()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child_s += span.end - span.start
            span.info = _observe(layer, attr, args, kwargs, result)
            return result

        return wrapper

    def _install_target(self, layer: str, target: Target) -> int:
        module = importlib.import_module(target.module)
        if target.owner is None:
            original = getattr(module, target.attr)
            wrapper = self._wrap(layer, target.label, target.attr, original)
            self._wrapped.append((original, wrapper))
            return self._rebind(original, wrapper)
        cls = getattr(module, target.owner)
        raw = cls.__dict__.get(target.attr)
        if raw is None:
            return 0  # inherited; the defining class is its own target
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(layer, target.label, target.attr, raw.__func__))
        else:
            wrapped = self._wrap(layer, target.label, target.attr, raw)
        setattr(cls, target.attr, wrapped)
        self._class_slots.append((cls, target.attr, raw))
        return 1

    @staticmethod
    def _rebind(old: object, new: object) -> int:
        """Replace every ``repro.*`` module-level binding of ``old``."""
        count = 0
        for name, module in list(sys.modules.items()):
            if module is None or not _is_repro_module(name):
                continue
            for attr, value in list(vars(module).items()):
                if value is old:
                    setattr(module, attr, new)
                    count += 1
        return count

    def install(self) -> "Tracer":
        if self._wrapped or self._class_slots:
            raise RuntimeError("tracer is already installed")
        for layer, targets in self.layers.items():
            self.bindings[layer] = sum(self._install_target(layer, t) for t in targets)
        return self

    def restore(self) -> None:
        """Put every original back, including bindings made after install."""
        for original, wrapper in self._wrapped:
            self._rebind(wrapper, original)
        for cls, attr, raw in reversed(self._class_slots):
            setattr(cls, attr, raw)
        self._wrapped.clear()
        self._class_slots.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # ------------------------------------------------------------------ #
    def write_jsonl(self, path: str, header: Optional[dict] = None) -> None:
        """Write the recorded spans, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            if header is not None:
                fh.write(json.dumps(header, sort_keys=True) + "\n")
            for index, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "layer": s.layer,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "run": s.run_id,
                        }
                    )
                    + "\n"
                )


def tail_percentile(samples: Sequence[float]) -> Tuple[float, float]:
    """The highest of p99.9/p99/p95/p90/p50 (nearest rank) with at least
    ten samples beyond it, as ``(percentile, value)``; ``(0, 0)`` when
    there are fewer than 20 samples."""
    ordered = sorted(samples)
    n = len(ordered)
    for q in (99.9, 99.0, 95.0, 90.0, 50.0):
        rank = math.ceil(round(n * q / 100.0, 9)) - 1
        if rank >= 0 and n - 1 - rank >= 10:
            return q, ordered[rank]
    return 0.0, 0.0


def run_metrics(
    spans: Sequence[Span], run_id: int, layers: Iterable[str]
) -> Tuple[Dict[str, float], List[float]]:
    """Fold the spans of run ``run_id`` into per-layer counts and times.

    ``spans`` is the tracer's whole span list (parent links index into
    it).  Returns ``(metrics, job_s)``: ``<layer>.calls`` and
    ``<layer>.self_s`` for every layer, the boundary counts
    (``kernels.unified.nnz``, cache hits and lookups),
    ``autotune.total_s`` (outermost tuner spans),
    ``autotune.backend_calls`` (backend spans under a tuner span) and
    ``trace.root_s`` (time covered by top-level spans); ``job_s`` holds the
    durations of the run's ``serve.execute`` spans.
    """
    out: Dict[str, float] = {}
    for layer in layers:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_s"] = 0.0
    for key in (
        "autotune.total_s",
        "autotune.backend_calls",
        "kernels.unified.nnz",
        "serve.cache.encoding_hit",
        "serve.cache.encoding_lookups",
        "serve.cache.tuner_config_hit",
        "serve.cache.tuner_config_lookups",
        "trace.root_s",
    ):
        out[key] = 0
    job_s: List[float] = []
    # Parents precede their children in the list, so one forward pass
    # settles whether each span runs under a tuner span.
    under_tuner = [False] * len(spans)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            under_tuner[i] = under_tuner[s.parent] or spans[s.parent].layer == "autotune"
        if s.run_id != run_id:
            continue
        out[f"{s.layer}.calls"] += 1
        out[f"{s.layer}.self_s"] += s.self_s
        if s.parent < 0:
            out["trace.root_s"] += s.duration_s
        if s.layer == "autotune" and not under_tuner[i]:
            out["autotune.total_s"] += s.duration_s
        elif s.layer == "backends" and under_tuner[i]:
            out["autotune.backend_calls"] += 1
        elif s.layer == "serve.execute":
            job_s.append(s.duration_s)
        if s.info is not None:
            key, value = s.info
            if key == "nnz":
                out["kernels.unified.nnz"] += value
            else:
                out[f"serve.cache.{key}"] += value
                out[f"serve.cache.{key[:-len('_hit')]}_lookups"] += 1
    return out, job_s
