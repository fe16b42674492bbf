"""Operational CLI: ``repro-serve`` / ``python -m repro.service``.

Five subcommands::

    repro-serve serve --port 7401 --workers 4 --advisor-policy lru \
        --capacity 10TB --snapshot /var/lib/repro/state.jsonl \
        --snapshot-interval 60 --metrics-port 9401 --span-log spans.jsonl \
        --sample-every 1.0 --health --health-log health.jsonl
    repro-serve loadgen --port 7401 --scale tiny --seed 42 --jobs 2000 \
        --connections 8 --pipeline 32 --procs 2 --rate 500 --json load.json \
        --timeline-json timeline.json
    repro-serve stats --port 7401
    repro-serve metrics --port 7401
    repro-serve metrics --metrics-port 9401 --worker 2
    repro-serve metrics --metrics-port 9401 --aggregate --workers 4
    repro-serve spans --port 7401 --last 100
    repro-serve spans --metrics-port 9401 --workers 4

``serve`` runs the daemon in the foreground (SIGINT/SIGTERM shut it down
gracefully, writing a final snapshot when configured); ``--workers N``
forks a pre-fork ``SO_REUSEPORT`` cluster (:mod:`repro.service.cluster`)
where worker ``k`` snapshots to ``<snapshot>.w<k>`` and serves admin HTTP
on ``metrics-port + k``.  ``loadgen`` replays a calibrated synthetic
workload against a running daemon — pipelined and/or from several forked
generator processes — and prints a throughput/latency report; ``stats``
pretty-prints one ``stats`` query; ``metrics`` prints one Prometheus text
exposition payload — from the data port, from one worker's admin port
(``--worker``), or merged across every worker (``--aggregate``).  The
live dashboard is the separate ``repro-top`` script
(:mod:`repro.obs.top`).  ``spans`` pulls the live span ring buffer —
from the data port, or from every worker of a cluster — and prints it
as JSONL (spans otherwise die with the process unless ``--span-log``
was set at startup).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro import registry
from repro.obs import log as obslog

from repro.service.aggregate import (
    aggregate_registry,
    aggregate_spans,
    fetch_text,
    worker_ports,
)
from repro.service.client import ServiceClient
from repro.service.cluster import ClusterConfig, build_server, run_cluster
from repro.service.loadgen import jobs_from_trace, run_load_procs, run_load_sync
from repro.service.state import SnapshotError
from repro.util.units import parse_size
from repro.workload.calibration import (
    default_config,
    paper_config,
    small_config,
    tiny_config,
)
from repro.workload.generator import generate_trace

_SCALES = {
    "tiny": tiny_config,
    "small": small_config,
    "default": default_config,
    "paper": paper_config,
}


def _add_endpoint_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7401)


def _cmd_serve(args: argparse.Namespace) -> int:
    obslog.configure(min_level=args.log_level)
    if args.restore and not args.snapshot:
        print("--restore requires --snapshot", file=sys.stderr)
        return 2
    sample_every = args.sample_every
    if args.health and sample_every is None:
        sample_every = 1.0
    config = ClusterConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        policy=args.policy,
        capacity_bytes=args.capacity,
        default_size=args.default_size,
        decay_half_life=args.decay_half_life,
        snapshot_path=args.snapshot,
        snapshot_interval=args.snapshot_interval,
        log_interval=args.log_interval,
        metrics_port=args.metrics_port,
        span_log_path=args.span_log,
        slow_op_seconds=args.slow_op_ms / 1e3,
        restore=args.restore,
        sample_interval=sample_every,
        health=args.health,
        health_log_path=args.health_log,
    )
    if args.workers > 1:
        return run_cluster(config)

    restoring = args.restore and Path(args.snapshot).exists()
    if args.restore and not restoring:
        print(f"no snapshot at {args.snapshot}; starting fresh")
    try:
        server = build_server(config, None, args.restore)
    except SnapshotError as exc:
        print(f"cannot restore {args.snapshot}: {exc}", file=sys.stderr)
        return 2
    if restoring:
        stats = server.state.stats()
        print(
            f"restored {stats['jobs_observed']} jobs / "
            f"{stats['n_classes']} classes from {args.snapshot}"
        )
    server.run()
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    trace = generate_trace(_SCALES[args.scale](), seed=args.seed)
    if args.scenario:
        from repro.scenario import scenario_job_stream

        jobs = list(scenario_job_stream(trace, args.scenario, seed=args.seed))
    else:
        jobs = jobs_from_trace(trace)
    if args.jobs is not None:
        jobs = jobs[: args.jobs]
    print(
        f"replaying {len(jobs)} jobs from '{args.scale}' (seed {args.seed})"
        + (f" under scenario '{args.scenario}'" if args.scenario else "")
        + (f" across {args.procs} processes" if args.procs > 1 else "")
    )
    timeline_interval = args.timeline_interval
    if args.timeline_json and timeline_interval is None:
        timeline_interval = 1.0
    report = run_load_procs(
        args.host,
        args.port,
        jobs,
        procs=args.procs,
        connections=args.connections,
        target_rate=args.rate,
        advise_every=args.advise_every,
        pipeline_depth=args.pipeline,
        ingest_batch=args.ingest_batch,
        rid_prefix=args.rid_prefix,
        progress_every=args.progress_every,
        timeline_interval=timeline_interval,
    )
    print(report.render())
    if report.final_stats is not None:
        print(
            f"server partition: {report.final_stats['n_classes']} classes "
            f"over {report.final_stats['files_observed']} files "
            f"(checksum {report.final_stats['partition_checksum']})"
        )
    if args.json:
        Path(args.json).write_text(json.dumps(report.as_dict(), indent=2) + "\n")
        print(f"wrote {args.json}")
    if args.timeline_json:
        payload = {
            "interval": report.timeline_interval,
            "timeline": report.timeline_summary(),
            # What the daemon's writer actually coalesced this run
            # (size-bucketed batch counts from the server registry).
            "writer_batching": report.writer_batching(),
        }
        Path(args.timeline_json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.timeline_json}")
    return 1 if report.errors else 0


def _cmd_stats(args: argparse.Namespace) -> int:
    with ServiceClient(args.host, args.port) as client:
        print(json.dumps(client.stats(), indent=2))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    if args.worker is not None or args.aggregate:
        if args.metrics_port is None:
            print(
                "--worker/--aggregate need --metrics-port (the cluster's "
                "admin port base)",
                file=sys.stderr,
            )
            return 2
        if args.worker is not None:
            # One specific worker's exposition, via its admin port.  The
            # data port cannot address a worker: under SO_REUSEPORT the
            # kernel hands the connection to an arbitrary one.
            print(
                fetch_text(args.host, args.metrics_port + args.worker, "/metrics"),
                end="",
            )
            return 0
        ports = worker_ports(args.metrics_port, args.workers)
        print(aggregate_registry(args.host, ports).expose(), end="")
        return 0
    with ServiceClient(args.host, args.port) as client:
        print(client.metrics()["body"], end="")
    return 0


def _cmd_spans(args: argparse.Namespace) -> int:
    if args.metrics_port is not None:
        ports = worker_ports(args.metrics_port, args.workers)
        payload = aggregate_spans(args.host, ports)
    else:
        with ServiceClient(args.host, args.port) as client:
            payload = client.spans(last=args.last)
    lines = [json.dumps(span, sort_keys=True) for span in payload.get("spans", [])]
    if args.metrics_port is not None and args.last is not None:
        lines = lines[-args.last :]
    body = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        Path(args.out).write_text(body)
        print(
            f"wrote {len(lines)} spans to {args.out} "
            f"(dropped {payload.get('dropped', 0)})",
            file=sys.stderr,
        )
    else:
        print(body, end="")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Online filecule data-management service.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_serve = sub.add_parser("serve", help="run the daemon in the foreground")
    _add_endpoint_args(p_serve)
    p_serve.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="pre-fork N worker processes sharing the port (SO_REUSEPORT)",
    )
    p_serve.add_argument(
        "--advisor-policy",
        "--policy",
        dest="policy",
        default="lru",
        metavar="SPEC",
        help=(
            "registry policy spec backing the per-site cache advisors "
            f"(e.g. {', '.join(registry.service_policy_names(include_aliases=False))})"
        ),
    )
    p_serve.add_argument(
        "--capacity",
        type=parse_size,
        default=parse_size("1TB"),
        help="modelled per-site cache capacity (e.g. 500GB, 10TB)",
    )
    p_serve.add_argument(
        "--default-size",
        type=parse_size,
        default=1,
        help="assumed size for files ingested without one",
    )
    p_serve.add_argument(
        "--decay-half-life",
        type=float,
        default=float("inf"),
        metavar="TICKS",
        help=(
            "co-access evidence half-life in ingest ticks; finite values "
            "let stale filecules dissolve into singletons (default: inf, "
            "the classic append-only refinement)"
        ),
    )
    p_serve.add_argument("--snapshot", default=None, help="snapshot JSONL path")
    p_serve.add_argument(
        "--snapshot-interval", type=float, default=None, metavar="SECONDS"
    )
    p_serve.add_argument(
        "--log-interval", type=float, default=30.0, metavar="SECONDS"
    )
    p_serve.add_argument(
        "--restore",
        action="store_true",
        help="restore state from --snapshot if it exists",
    )
    p_serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="also serve Prometheus exposition over HTTP at GET /metrics",
    )
    p_serve.add_argument(
        "--span-log",
        default=None,
        metavar="PATH",
        help="export the span ring buffer as JSONL on shutdown",
    )
    p_serve.add_argument(
        "--slow-op-ms",
        type=float,
        default=250.0,
        metavar="MS",
        help="log a structured slow-op record for ops handled slower than this",
    )
    p_serve.add_argument(
        "--sample-every",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "enable the flight recorder: sample the metrics registry into "
            "ring-buffer time series on this cadence"
        ),
    )
    p_serve.add_argument(
        "--health",
        action="store_true",
        help=(
            "run online health detectors over the flight recorder "
            "(implies --sample-every 1.0 unless set)"
        ),
    )
    p_serve.add_argument(
        "--health-log",
        default=None,
        metavar="PATH",
        help="export health events as JSONL on shutdown (needs --health)",
    )
    p_serve.add_argument(
        "--log-level",
        default="info",
        choices=sorted(obslog.LEVELS),
        help="structured-log threshold",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_load = sub.add_parser(
        "loadgen", help="replay a synthetic workload against a daemon"
    )
    _add_endpoint_args(p_load)
    p_load.add_argument("--scale", default="tiny", choices=sorted(_SCALES))
    p_load.add_argument("--seed", type=int, default=42)
    p_load.add_argument(
        "--scenario",
        default=None,
        metavar="SPEC",
        help=(
            "mutate the replayed stream through a scenario composition "
            "(e.g. 'popularity-drift?strength=0.8+flash-crowd'); see "
            "docs/SCENARIOS.md"
        ),
    )
    p_load.add_argument(
        "--jobs", type=int, default=None, help="truncate the stream"
    )
    p_load.add_argument("--connections", type=int, default=4)
    p_load.add_argument(
        "--pipeline",
        type=int,
        default=1,
        metavar="DEPTH",
        help="jobs kept in flight per connection (1 = request/response)",
    )
    p_load.add_argument(
        "--ingest-batch",
        type=int,
        default=1,
        metavar="JOBS",
        help=(
            "flush ingests in coalescing-friendly groups of this size "
            "(advises front-loaded per group; excludes --pipeline)"
        ),
    )
    p_load.add_argument(
        "--procs",
        type=int,
        default=1,
        metavar="N",
        help="fork N generator processes and merge their reports",
    )
    p_load.add_argument(
        "--rate", type=float, default=None, help="target ingest requests/s"
    )
    p_load.add_argument(
        "--advise-every",
        type=int,
        default=0,
        help="ask for an advise plan before every k-th job",
    )
    p_load.add_argument("--json", default=None, help="write the report as JSON")
    p_load.add_argument(
        "--rid-prefix",
        default=None,
        metavar="PREFIX",
        help="tag every request with a tracing rid '<PREFIX>-<job index>'",
    )
    p_load.add_argument(
        "--progress-every",
        type=int,
        default=0,
        metavar="JOBS",
        help="emit a structured progress record every N completed jobs",
    )
    p_load.add_argument(
        "--timeline-json",
        default=None,
        metavar="PATH",
        help="write a per-interval throughput/latency timeline as JSON",
    )
    p_load.add_argument(
        "--timeline-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="timeline bin width (default 1.0 when --timeline-json is set)",
    )
    p_load.set_defaults(func=_cmd_loadgen)

    p_stats = sub.add_parser("stats", help="query and print live stats")
    _add_endpoint_args(p_stats)
    p_stats.set_defaults(func=_cmd_stats)

    p_metrics = sub.add_parser(
        "metrics", help="print one Prometheus exposition payload"
    )
    _add_endpoint_args(p_metrics)
    p_metrics.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="BASE",
        help="cluster admin port base (worker k listens on BASE + k)",
    )
    p_metrics.add_argument(
        "--worker",
        type=int,
        default=None,
        metavar="IDX",
        help="scrape worker IDX's admin port instead of the data port",
    )
    p_metrics.add_argument(
        "--aggregate",
        action="store_true",
        help="merge the expositions of all --workers workers",
    )
    p_metrics.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker count for --aggregate",
    )
    p_metrics.set_defaults(func=_cmd_metrics)

    p_spans = sub.add_parser(
        "spans", help="dump the live span ring buffer as JSONL"
    )
    _add_endpoint_args(p_spans)
    p_spans.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="BASE",
        help=(
            "pull and merge every worker's /spans over the cluster admin "
            "ports instead of the data port"
        ),
    )
    p_spans.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker count for --metrics-port",
    )
    p_spans.add_argument(
        "--last",
        type=int,
        default=None,
        metavar="N",
        help="only the newest N spans",
    )
    p_spans.add_argument(
        "--out", default=None, metavar="PATH", help="write JSONL here instead of stdout"
    )
    p_spans.set_defaults(func=_cmd_spans)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
