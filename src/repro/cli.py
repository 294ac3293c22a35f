"""Command-line interface: regenerate the paper's tables and figures.

Usage::

    python -m repro list                 # show available experiments
    python -m repro table2               # one experiment
    python -m repro fig6b fig9           # several experiments
    python -m repro all                  # everything
    python -m repro fig10 --rank 8 --iterations 3
    python -m repro serve --jobs 100     # multi-tenant serving report
    python -m repro scaling --nodes 4    # multi-node hierarchical scaling
    python -m repro serve --nodes 2      # multi-node serving (NIC tier)
    python -m repro serve --nodes 2 --chaos-seed 1   # seeded node-loss
                                              # chaos (jobs re-queued onto
                                              # the surviving nodes)
    python -m repro serve --trace out.json    # export the serving run's
                                              # timeline as a Chrome trace
    python -m repro scaling --trace out.json  # ditto for a sharded-kernel
                                              # sequence (chrome://tracing)
    python -m repro serve --metrics out.prom  # Prometheus-style metrics
                                              # exposition of the run
    python -m repro serve --events out.jsonl  # structured scheduler event
                                              # log, one JSON line per event
    python -m repro serve --adaptive          # closed-loop scheduling:
                                              # observed times feed the
                                              # placer and tuner

Each experiment prints the same rows/series the paper reports, rendered as a
plain-text table (see :mod:`repro.bench`).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, List, Optional, Sequence

from repro.backends import BACKEND_ENV_VAR, available_backends
from repro.bench import (
    collect_scaling_trace,
    platform_report,
    run_fig5,
    run_fig6a,
    run_fig6b,
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig10,
    run_multinode_scaling,
    run_scaling,
    run_serving,
    run_streaming,
    run_table2,
    run_table4,
    run_table5,
    run_weak_scaling,
)
from repro.context import TimedResult
from repro.serve.autoscale import AutoscalerSpec

__all__ = ["main", "EXPERIMENTS"]


def _render_fig7(args: argparse.Namespace) -> str:
    parts = [
        run_fig7("spttm", rank=args.rank).render(),
        run_fig7("spmttkrp", rank=args.rank).render(),
    ]
    return "\n\n".join(parts)


def _write_trace(source, path: str) -> str:
    """Write a run's timeline to ``path`` as a Chrome trace.

    ``source`` is a bare :class:`~repro.gpusim.timeline.Timeline` or any
    :class:`~repro.context.TimedResult` (serving report, decomposition
    result, schedule outcome) — the protocol carries the timeline plus the
    recovery/preemption ledgers, so there is no per-type unpacking here.
    """
    extras = []
    timeline = source
    if isinstance(source, TimedResult):
        timeline = source.timeline
        if source.recoveries:
            extras.append(f"{len(source.recoveries)} recoveries")
        if source.preemptions:
            extras.append(f"{len(source.preemptions)} preemptions")
    timeline.write_chrome_trace(path)
    if extras:
        return (
            f"timeline trace written to {path} "
            f"({len(timeline.events)} events, {', '.join(extras)}; "
            f"open in chrome://tracing)"
        )
    return (
        f"timeline trace written to {path} "
        f"({len(timeline.events)} events; open in chrome://tracing)"
    )


def _render_scaling(args: argparse.Namespace) -> str:
    if args.nodes and args.nodes > 1:
        # Power-of-two curve up to the requested count, which is always
        # included exactly (mirroring how `serve --nodes N` honors N).
        node_counts = tuple(
            sorted({m for m in (1, 2, 4, 8) if m < args.nodes} | {args.nodes})
        )
        parts = [run_multinode_scaling(rank=args.rank, node_counts=node_counts).render()]
    else:
        parts = [
            run_scaling(rank=args.rank).render(),
            run_weak_scaling(rank=args.rank).render(),
        ]
    if args.trace:
        # Trace the same topology the tables above ran: a two-tier
        # multi-node cluster under --nodes, the single-node default
        # otherwise (2 GPUs per node mirrors `scaling --nodes`).
        num_nodes = args.nodes if args.nodes and args.nodes > 1 else 1
        timeline = collect_scaling_trace(
            rank=min(args.rank, 8),
            num_nodes=num_nodes,
            num_devices=2 if num_nodes > 1 else 4,
        )
        parts.append(_write_trace(timeline, args.trace))
    return "\n\n".join(parts)


def _render_serve(args: argparse.Namespace) -> str:
    autoscale = AutoscalerSpec(min_devices=args.autoscale) if args.autoscale else None
    report = run_serving(
        num_jobs=args.jobs,
        seed=args.seed,
        policy=args.policy,
        nodes=args.nodes or None,
        chaos_seed=args.chaos_seed,
        fail_node=args.fail_node,
        slo_fraction=args.slo,
        deadline_slack=args.slo_slack,
        autoscale=autoscale,
        adaptive=args.adaptive,
        nic_policy=args.nic_policy,
    )
    parts = [report.render()]
    if args.trace:
        parts.append(_write_trace(report, args.trace))
    if args.metrics:
        report.metrics.write_prometheus(args.metrics)
        parts.append(
            f"metrics exposition written to {args.metrics} "
            f"({len(report.metrics.metrics)} metric series)"
        )
    if args.events:
        report.events.write(args.events)
        parts.append(
            f"event log written to {args.events} "
            f"({len(report.events)} events, one JSON object per line)"
        )
    return "\n\n".join(parts)


#: experiment name -> callable(parsed args) -> rendered text
EXPERIMENTS: Dict[str, Callable[[argparse.Namespace], str]] = {
    "table2": lambda args: run_table2().render(),
    "table3": lambda args: platform_report(),
    "table4": lambda args: run_table4(),
    "fig5": lambda args: run_fig5(rank=args.rank).render(),
    "table5": lambda args: run_table5(rank=args.rank).render(),
    "fig6a": lambda args: run_fig6a(rank=args.rank).render(),
    "fig6b": lambda args: run_fig6b(rank=args.rank).render(),
    "fig7": _render_fig7,
    "fig8": lambda args: run_fig8().render(),
    "fig9": lambda args: run_fig9(rank=args.rank).render(),
    "fig10": lambda args: run_fig10(iterations=args.iterations).render(),
    "streaming": lambda args: run_streaming(rank=args.rank).render(),
    "scaling": _render_scaling,
    "serve": _render_serve,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduce the evaluation of 'A Unified Optimization Approach for "
            "Sparse Tensor Operations on GPUs' (Liu et al., CLUSTER 2017)."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help="experiments to run: %s, 'all', or 'list'" % ", ".join(EXPERIMENTS),
    )
    parser.add_argument(
        "--rank",
        type=int,
        default=16,
        help="decomposition rank / factor columns for the kernel experiments (default 16)",
    )
    parser.add_argument(
        "--iterations",
        type=int,
        default=5,
        help="CP-ALS iterations for fig10 (default 5)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=100,
        help="workload size for the serve experiment (default 100)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="workload seed for the serve experiment (default 0)",
    )
    parser.add_argument(
        "--policy",
        choices=["priority", "fifo", "deadline"],
        default="priority",
        help=(
            "queueing policy for the serve experiment (default priority); "
            "'deadline' serves earliest-deadline-first and preempts batch "
            "jobs at streamed chunk boundaries to meet latency SLOs"
        ),
    )
    parser.add_argument(
        "--slo",
        type=float,
        default=0.0,
        metavar="FRACTION",
        help=(
            "for the serve experiment: fraction of the workload submitted "
            "as latency tenants carrying a deadline SLO (default 0, which "
            "keeps the workload identical to earlier releases)"
        ),
    )
    parser.add_argument(
        "--slo-slack",
        type=float,
        default=None,
        metavar="MULTIPLE",
        help=(
            "with --slo: deadline scale as a multiple of the mean "
            "interarrival time (default: the workload generator's 12; "
            "tighter slack overloads every policy, looser slack is where "
            "the deadline policy's preemption pays off)"
        ),
    )
    parser.add_argument(
        "--autoscale",
        type=int,
        default=0,
        metavar="MIN_DEVICES",
        help=(
            "for the serve experiment: enable the device-pool autoscaler, "
            "starting from this many active devices (default 0 = off)"
        ),
    )
    parser.add_argument(
        "--adaptive",
        action="store_true",
        help=(
            "for the serve experiment: hedged closed-loop scheduling — "
            "observed execution times feed the placer and tuner, and the "
            "adaptive schedule is kept only when its trial makespan "
            "strictly beats the static one (adaptive never loses; outputs "
            "are bit-identical either way)"
        ),
    )
    parser.add_argument(
        "--nic-policy",
        choices=["fifo", "fair", "priority"],
        default="fifo",
        help=(
            "for the serve experiment: the policy label of the "
            "repro_nic_discipline_dispatch_total metric (default fifo); "
            "collectives always run in booking order, because jobs that "
            "share a link or NIC also share compute lanes"
        ),
    )
    parser.add_argument(
        "--nodes",
        type=int,
        default=0,
        help=(
            "multi-node mode for the scaling and serve experiments: run on this "
            "many simulated nodes over a two-tier interconnect (NIC vs intra-node "
            "P2P); 0 keeps the single-node experiments (default 0)"
        ),
    )
    parser.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        metavar="SEED",
        help=(
            "for the serve experiment with --nodes >= 2: inject one seeded "
            "node-loss event mid-run (the scheduler re-queues the victims "
            "onto surviving nodes); the chaos RNG stream is independent of "
            "the workload's, so the job list is unchanged"
        ),
    )
    parser.add_argument(
        "--fail-node",
        type=int,
        default=None,
        metavar="NODE",
        help=(
            "pin the --chaos-seed failure to this node index instead of "
            "drawing the victim from the chaos stream"
        ),
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help=(
            "for the serve and scaling experiments: export the run's unified "
            "timeline (per-device copy/compute engines, link/NIC collectives) "
            "as a Chrome chrome://tracing JSON file at PATH"
        ),
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help=(
            "for the serve experiment: write the run's metrics registry as a "
            "Prometheus-style text exposition to PATH (deterministic for a "
            "fixed seed; see README 'Observability')"
        ),
    )
    parser.add_argument(
        "--events",
        metavar="PATH",
        default=None,
        help=(
            "for the serve experiment: write the scheduler's structured "
            "event log to PATH as JSON Lines (one admission/dispatch/"
            "preemption/failure/scale record per line)"
        ),
    )
    parser.add_argument(
        "--backend",
        choices=sorted(available_backends()),
        default=None,
        help=(
            "numeric-execution backend for every kernel in the run "
            "(default: the REPRO_BACKEND environment variable, else "
            "'vectorized'); backends are bit-identical, so this changes "
            "wall-clock speed only — results and simulated seconds are "
            "unchanged"
        ),
    )
    return parser


def _validate_output_path(
    parser: argparse.ArgumentParser, flag: str, path: str
) -> None:
    """Fail fast on an unwritable output path, before any experiment runs.

    Shared by ``--trace`` / ``--metrics`` / ``--events``: probing with an
    append-mode open (created if missing, content untouched) surfaces
    permission and missing-directory errors up front instead of after
    minutes of simulation.
    """
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        parser.error(f"cannot write {flag} file {path!r}: {exc}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.backend:
        # Every entry point resolves ExecContext(backend=None) against
        # REPRO_BACKEND at call time, so setting the variable here threads
        # the selection through all experiments without touching them.
        os.environ[BACKEND_ENV_VAR] = args.backend

    requested: List[str] = [name.lower() for name in args.experiments]
    if not requested or requested == ["list"]:
        print("available experiments:")
        for name in EXPERIMENTS:
            print(f"  {name}")
        print("  all")
        return 0

    if requested == ["all"]:
        requested = list(EXPERIMENTS)

    unknown = [name for name in requested if name not in EXPERIMENTS]
    if unknown:
        parser.error(
            f"unknown experiment(s): {', '.join(unknown)}; "
            f"choose from {', '.join(EXPERIMENTS)} or 'all'"
        )

    if args.fail_node is not None and args.chaos_seed is None:
        parser.error("--fail-node requires --chaos-seed (it pins the drawn failure)")
    if args.chaos_seed is not None:
        # Chaos is a multi-node serving feature: a failure needs survivor
        # nodes to re-admit the victims on.
        if "serve" not in requested:
            parser.error("--chaos-seed only applies to the 'serve' experiment")
        if args.nodes < 2:
            parser.error(
                "--chaos-seed requires --nodes >= 2 (a node loss needs "
                "surviving nodes to re-queue onto)"
            )

    if not 0.0 <= args.slo <= 1.0:
        parser.error(f"--slo must be a fraction in [0, 1], got {args.slo}")
    if args.slo and "serve" not in requested:
        parser.error("--slo only applies to the 'serve' experiment")
    if args.slo_slack is not None:
        if args.slo_slack <= 0.0:
            parser.error(f"--slo-slack must be positive, got {args.slo_slack}")
        if not args.slo:
            parser.error("--slo-slack requires --slo (it scales the SLO deadlines)")
    if args.autoscale < 0:
        parser.error(f"--autoscale must be non-negative, got {args.autoscale}")
    if args.autoscale and "serve" not in requested:
        parser.error("--autoscale only applies to the 'serve' experiment")
    if args.adaptive and "serve" not in requested:
        parser.error("--adaptive only applies to the 'serve' experiment")
    if args.nic_policy != "fifo" and "serve" not in requested:
        parser.error("--nic-policy only applies to the 'serve' experiment")

    if args.trace:
        # --trace belongs to exactly one timeline-producing experiment per
        # run: several would silently overwrite each other's file, and an
        # experiment without a timeline would leave an empty "trace".
        consumers = [name for name in requested if name in ("serve", "scaling")]
        if len(consumers) != 1:
            parser.error(
                "--trace requires exactly one of the 'serve' or 'scaling' "
                f"experiments in the run; got {requested}"
            )
        _validate_output_path(parser, "--trace", args.trace)
    for flag, path in (("--metrics", args.metrics), ("--events", args.events)):
        if not path:
            continue
        # Telemetry files come from the serving run; one serve per run
        # keeps the file's provenance unambiguous (mirroring --trace).
        if requested.count("serve") != 1:
            parser.error(f"{flag} requires exactly one 'serve' experiment in the run")
        _validate_output_path(parser, flag, path)

    for i, name in enumerate(requested):
        if i:
            print()
        print(EXPERIMENTS[name](args))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
