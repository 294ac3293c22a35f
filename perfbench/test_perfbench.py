"""Tests of the benchmark's own code: tracer wrapping, self time, digests."""

from __future__ import annotations

import os
import sys
import types

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:  # pragma: no cover - environment dependent
    sys.path.insert(0, _SRC)

import repro  # noqa: E402,F401
from trace_layers import LAYERS, Tracer, function, run_metrics, tail_percentile  # noqa: E402
from workloads import ServeSingle, aggregate_digest  # noqa: E402


def _bindings():
    """Every repro module binding and class slot of every traced target."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in vars(module).items():
            if callable(value):
                seen[(name, attr)] = value
    for targets in LAYERS.values():
        for t in targets:
            if t.owner is not None:
                cls = getattr(sys.modules[t.module], t.owner)
                seen[(t.module, t.owner, t.attr)] = cls.__dict__.get(t.attr)
    return seen


def test_wrap_then_restore_leaves_the_originals_bound():
    before = _bindings()
    tracer = Tracer()
    with tracer:
        during = _bindings()
        assert all(n > 0 for n in tracer.bindings.values()), tracer.bindings
        changed = [k for k in before if during.get(k) is not before[k]]
        assert len(changed) == sum(tracer.bindings.values())
        from repro.serve.engine import publish_serving_metrics
        from repro.serve.scheduler import execute_job

        original = before[("repro.serve.engine", "publish_serving_metrics")]
        assert publish_serving_metrics.__wrapped__ is original
        assert execute_job is not before[("repro.serve.scheduler", "execute_job")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.fixture
def toy_module():
    """A ``repro.*`` module whose ``outer`` calls ``inner`` twice."""
    module = types.ModuleType("repro._perfbench_toy")

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(module.inner(x))

    module.inner, module.outer = inner, outer
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


def test_self_time_of_a_nested_call_reconciles(toy_module):
    ticks = iter(range(100))
    layers = {
        "outer": [function(toy_module.__name__, "outer")],
        "inner": [function(toy_module.__name__, "inner")],
    }
    tracer = Tracer(layers, clock=lambda: float(next(ticks)))
    with tracer:
        assert toy_module.outer(1) == 3
    assert toy_module.outer.__name__ == "outer" and not hasattr(toy_module.outer, "__wrapped__")
    # Clock reads: outer starts 0, inner 1-2, inner 3-4, outer ends 5.
    metrics, _ = run_metrics(tracer.spans, 0, layers)
    assert metrics["outer.calls"] == 1 and metrics["inner.calls"] == 2
    assert metrics["inner.self_s"] == 2.0
    assert metrics["outer.self_s"] == 3.0
    assert metrics["outer.self_s"] + metrics["inner.self_s"] == metrics["trace.root_s"] == 5.0
    assert [s.parent for s in tracer.spans] == [-1, 0, 0]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(list(range(19))) == (0.0, 0.0)
    assert tail_percentile(list(range(100)))[0] == 90.0
    assert tail_percentile(list(range(1000)))[0] == 99.0


def test_traced_and_untraced_serving_give_identical_digests(tmp_path):
    workload = ServeSingle()
    workload.num_jobs = 24
    workload.streams = 1
    inputs = workload.setup(3)
    untraced = workload.iterate(inputs, str(tmp_path))
    tracer = Tracer()
    traced = []
    with tracer:
        for run_id in (0, 1):
            tracer.run_id = run_id
            traced.append(workload.iterate(inputs, str(tmp_path)))
    assert untraced.completed_jobs > 0
    assert None not in untraced.digests
    for outcome in traced:
        assert outcome.digests == untraced.digests
        assert aggregate_digest(outcome.digests) == aggregate_digest(untraced.digests)
    first, _ = run_metrics(tracer.spans, 0, LAYERS)
    second, _ = run_metrics(tracer.spans, 1, LAYERS)
    calls = [k for k in first if k.endswith(".calls")]
    assert first["serve.execute.calls"] > 0
    assert [first[k] for k in calls] == [second[k] for k in calls]
