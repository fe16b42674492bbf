"""Pre-fork multi-worker filecule service (``repro-serve serve --workers N``).

One parent process supervises ``workers`` forked children.  Every child
runs a full :class:`~repro.service.server.FileculeServer` — its own event
loop, its own state, its own metrics registry — and all children accept
on the **same TCP port**:

* on platforms with ``SO_REUSEPORT`` (Linux, modern BSDs) each worker
  binds its own acceptor and the kernel load-balances incoming
  connections across them — no accept lock, no parent in the data path;
* elsewhere the parent binds one listening socket before forking and the
  children inherit it (classic pre-fork accept sharing).

Because every connection is owned by exactly one worker, the workers
observe **disjoint job sets** — which is precisely the condition under
which per-observer filecule partitions merge exactly (paper §6, see
:func:`repro.service.aggregate.merge_partition_payloads`).  Cross-worker
aggregation therefore happens out-of-band, over per-worker admin HTTP
ports (``metrics_port + index``): :mod:`repro.service.aggregate` fans out
over them and merges partitions, stats and metric registries.

Supervision policy:

* a worker that **crashes** (signal or non-zero exit) is restarted, and
  the replacement restores the worker's last snapshot if one exists —
  crash recovery loses only the jobs ingested since that snapshot;
* a worker that exits **cleanly** (exit code 0 — e.g. it handled a
  ``shutdown`` op) initiates a coordinated shutdown of the whole
  cluster;
* ``SIGINT``/``SIGTERM`` to the parent forwards ``SIGTERM`` to every
  worker and waits for their graceful stops (each drains in-flight
  requests and writes a final snapshot if configured);
* more than ``max_restarts`` crash-restarts shuts the cluster down
  rather than flapping forever.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import signal
import socket
import sys
import time
from dataclasses import dataclass

from repro.obs.log import get_logger
from repro.service.server import HAS_REUSEPORT, FileculeServer
from repro.service.state import ServiceState, SnapshotError
from repro.util.units import TB

slog = get_logger("repro.service.cluster")

#: Seconds the parent waits for one worker to report readiness.
READY_TIMEOUT = 30.0

#: Seconds the parent waits for a worker's graceful stop before SIGKILL.
STOP_TIMEOUT = 10.0


@dataclass(frozen=True)
class ClusterConfig:
    """Everything a worker needs to build its server (fork-inherited)."""

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 2
    policy: str = "lru"
    capacity_bytes: int = 1 * TB
    default_size: int = 1
    decay_half_life: float = math.inf  # co-access half-life in ingest ticks
    snapshot_path: str | None = None  # base; worker k writes <base>.w<k>
    snapshot_interval: float | None = None
    log_interval: float | None = None
    metrics_port: int | None = None  # base; worker k serves on base + k
    span_log_path: str | None = None  # base; worker k writes <base>.w<k>
    sample_interval: float | None = None  # flight-recorder cadence (seconds)
    series_capacity: int = 512  # ring capacity per flight-recorder series
    health: bool = False  # run the detector panel on each sample
    health_log_path: str | None = None  # base; worker k writes <base>.w<k>
    slow_op_seconds: float = 0.25
    restore: bool = False
    max_restarts: int = 5

    def worker_snapshot_path(self, index: int | None) -> str | None:
        if self.snapshot_path is None or index is None:
            return self.snapshot_path
        return f"{self.snapshot_path}.w{index}"

    def worker_metrics_port(self, index: int | None) -> int | None:
        if self.metrics_port is None or index is None:
            return self.metrics_port
        return self.metrics_port + index


def pick_free_port(host: str = "127.0.0.1") -> int:
    """An ephemeral port that was free a moment ago.

    Inherently racy (the kernel may hand it out again before we bind),
    but good enough for benchmarks and tests on loopback.
    """
    with socket.socket() as probe:
        probe.bind((host, 0))
        return probe.getsockname()[1]


def pick_free_port_block(host: str, count: int, attempts: int = 20) -> int:
    """A base port such that ``base … base+count-1`` were all bindable."""
    for _ in range(attempts):
        base = pick_free_port(host)
        if base + count >= 65536:
            continue
        try:
            probes = []
            try:
                for offset in range(count):
                    probe = socket.socket()
                    probes.append(probe)
                    probe.bind((host, base + offset))
            finally:
                for probe in probes:
                    probe.close()
        except OSError:
            continue
        return base
    raise RuntimeError(f"no free block of {count} ports found on {host}")


def _build_state(config: ClusterConfig, index: int | None, restore: bool):
    snap = config.worker_snapshot_path(index)
    if restore and snap is not None and os.path.exists(snap):
        return ServiceState.restore(snap)
    return ServiceState(
        policy=config.policy,
        capacity_bytes=config.capacity_bytes,
        default_size=config.default_size,
        decay_half_life=config.decay_half_life,
    )


def build_server(
    config: ClusterConfig,
    index: int | None,
    restore: bool,
    *,
    port: int | None = None,
    sock: socket.socket | None = None,
) -> FileculeServer:
    """One daemon's state (restored from its snapshot when ``restore``
    is set and the file exists, else fresh) and server, from ``config``.

    ``index`` is the worker being built, None for the single-process
    daemon: only a worker gets ``.w<index>`` paths, admin port
    ``metrics_port + index`` and, without an inherited ``sock``,
    ``SO_REUSEPORT``.
    """
    suffix = "" if index is None else f".w{index}"
    return FileculeServer(
        _build_state(config, index, restore),
        host=config.host,
        port=config.port if port is None else port,
        snapshot_path=config.worker_snapshot_path(index),
        snapshot_interval=config.snapshot_interval,
        log_interval=config.log_interval,
        metrics_port=config.worker_metrics_port(index),
        span_log_path=config.span_log_path and config.span_log_path + suffix,
        sample_interval=config.sample_interval,
        series_capacity=config.series_capacity,
        health=config.health,
        health_log_path=config.health_log_path
        and config.health_log_path + suffix,
        slow_op_seconds=config.slow_op_seconds,
        reuse_port=index is not None and sock is None,
        sock=sock,
        worker_index=index,
    )


def _worker_main(
    config: ClusterConfig,
    index: int,
    port: int,
    ready_queue,
    sock: socket.socket | None,
    restore: bool,
) -> None:
    """Child-process entry: build state + server, serve until stopped."""
    # Until the server installs its own handlers, a stop signal ends the
    # child (not the parent's inherited stop-flag handler).
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, signal.SIG_DFL)
    try:
        server = build_server(config, index, restore, port=port, sock=sock)
    except SnapshotError as exc:  # reported instead of becoming ready
        snap = config.worker_snapshot_path(index)
        ready_queue.put({"error": f"cannot restore {snap}: {exc}"})
        raise SystemExit(2) from None

    def report_ready(srv: FileculeServer) -> None:
        ready_queue.put(
            {
                "worker": index,
                "pid": os.getpid(),
                "port": srv.port,
                "metrics_port": srv.metrics_port,
            }
        )

    import asyncio

    asyncio.run(server.serve_forever(ready_callback=report_ready))


@dataclass
class WorkerHandle:
    """Parent-side view of one worker process."""

    index: int
    process: multiprocessing.process.BaseProcess
    pid: int
    port: int
    metrics_port: int | None


class ClusterServer:
    """Parent supervisor for a pre-fork worker fleet (see module doc)."""

    def __init__(self, config: ClusterConfig) -> None:
        if config.workers < 1:
            raise ValueError(f"workers must be >= 1, got {config.workers}")
        self.config = config
        self.port: int | None = None
        self.workers: dict[int, WorkerHandle] = {}
        self.restarts = 0
        self._ctx = multiprocessing.get_context("fork")
        self._ready_queue = None
        self._listen_sock: socket.socket | None = None
        self._stopping = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Fork and wait for every worker to report its bound ports."""
        if self.workers:
            raise RuntimeError("cluster already started")
        config = self.config
        self.port = config.port or pick_free_port(config.host)
        if not HAS_REUSEPORT:
            # Fallback: bind once in the parent, children inherit the
            # socket across fork and share its accept queue.
            self._listen_sock = socket.socket()
            self._listen_sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
            )
            self._listen_sock.bind((config.host, self.port))
            self._listen_sock.listen(256)
        self._ready_queue = self._ctx.Queue()
        for index in range(config.workers):
            self._spawn(index, restore=config.restore)
        self._await_ready(expected=config.workers)
        slog.info(
            "cluster-started",
            host=config.host,
            port=self.port,
            workers=config.workers,
            reuse_port=HAS_REUSEPORT,
            metrics_ports=self.metrics_ports(),
        )

    def _spawn(self, index: int, *, restore: bool) -> None:
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                self.config,
                index,
                self.port,
                self._ready_queue,
                self._listen_sock,
                restore,
            ),
            name=f"repro-serve-w{index}",
        )
        process.start()
        self.workers[index] = WorkerHandle(
            index=index,
            process=process,
            pid=process.pid,
            port=self.port,
            metrics_port=self.config.worker_metrics_port(index),
        )

    def _await_ready(self, expected: int) -> None:
        import queue as queue_module

        deadline = time.monotonic() + READY_TIMEOUT
        seen = 0
        while seen < expected:
            timeout = deadline - time.monotonic()
            if timeout <= 0:
                self.stop()
                raise RuntimeError(
                    f"only {seen}/{expected} workers became ready "
                    f"within {READY_TIMEOUT}s"
                )
            try:
                info = self._ready_queue.get(timeout=min(timeout, 0.5))
            except queue_module.Empty:
                # A worker that died before reporting will never report.
                for handle in self.workers.values():
                    if handle.process.exitcode is not None:
                        self.stop()
                        raise RuntimeError(
                            f"worker {handle.index} exited with code "
                            f"{handle.process.exitcode} before becoming ready"
                        )
                continue
            if "error" in info:
                self.stop()
                raise SnapshotError(info["error"])
            handle = self.workers[info["worker"]]
            handle.port = info["port"]
            handle.metrics_port = info["metrics_port"]
            seen += 1

    def pids(self) -> dict[int, int]:
        """Live worker index → pid."""
        return {
            index: handle.process.pid
            for index, handle in self.workers.items()
            if handle.process.exitcode is None
        }

    def metrics_ports(self) -> list[int]:
        """Admin ports of all workers (empty when metrics are disabled)."""
        return [
            handle.metrics_port
            for handle in self.workers.values()
            if handle.metrics_port is not None
        ]

    # ------------------------------------------------------------------
    # supervision
    # ------------------------------------------------------------------
    def supervise_once(self) -> bool:
        """One supervision step; returns False when the cluster must stop.

        Crashed workers (killed or non-zero exit) are restarted with
        snapshot restore; a cleanly-exited worker means a directed
        shutdown, which the parent turns into a coordinated stop of the
        whole fleet.
        """
        if self._stopping:
            return False
        for index, handle in list(self.workers.items()):
            exitcode = handle.process.exitcode
            if exitcode is None:
                continue
            if exitcode == 0:
                slog.info("worker-shutdown", worker=index)
                return False
            self.restarts += 1
            if self.restarts > self.config.max_restarts:
                slog.error(
                    "restart-budget-exhausted",
                    worker=index,
                    restarts=self.restarts,
                )
                return False
            slog.warning(
                "worker-crashed",
                worker=index,
                exitcode=exitcode,
                restarts=self.restarts,
            )
            # Restore from the worker's last snapshot: recovery loses
            # only the jobs ingested since that snapshot was written.
            self._spawn(index, restore=True)
            self._await_ready(expected=1)
            slog.info(
                "worker-restarted", worker=index, pid=self.workers[index].pid
            )
        return True

    def run(self) -> None:
        """Blocking entry point: start, supervise, stop on signal."""
        stop_requested = False

        def request_stop(signum, frame):
            nonlocal stop_requested
            stop_requested = True

        previous = {
            sig: signal.signal(sig, request_stop)
            for sig in (signal.SIGINT, signal.SIGTERM)
        }
        try:
            self.start()
            while not stop_requested and self.supervise_once():
                time.sleep(0.2)
        except RuntimeError:
            # A stop signal sent to the whole process group (a terminal's
            # Ctrl-C, a service manager) also ends workers still starting.
            if not stop_requested:
                raise
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)
            self.stop()

    def stop(self) -> None:
        """Coordinated graceful shutdown of every worker (once)."""
        if self._stopping:
            return
        self._stopping = True
        for handle in self.workers.values():
            if handle.process.exitcode is None:
                with _suppress_process_errors():
                    os.kill(handle.process.pid, signal.SIGTERM)
        deadline = time.monotonic() + STOP_TIMEOUT
        for handle in self.workers.values():
            handle.process.join(timeout=max(deadline - time.monotonic(), 0.1))
            if handle.process.exitcode is None:
                slog.error("worker-stop-timeout", worker=handle.index)
                handle.process.kill()
                handle.process.join(timeout=1.0)
        if self._listen_sock is not None:
            self._listen_sock.close()
            self._listen_sock = None
        slog.info(
            "cluster-stopped",
            workers=len(self.workers),
            restarts=self.restarts,
        )

    # ------------------------------------------------------------------
    # context manager convenience (tests, benchmarks)
    # ------------------------------------------------------------------
    def __enter__(self) -> "ClusterServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


class _suppress_process_errors:
    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return exc_type is not None and issubclass(
            exc_type, (ProcessLookupError, PermissionError)
        )


def run_cluster(config: ClusterConfig) -> int:
    """CLI helper: run a cluster (or fall through to a single server).

    ``workers == 1`` still goes through the cluster path when asked to,
    but ``repro-serve`` uses an in-process server for that case.
    """
    try:
        ClusterServer(config).run()
    except SnapshotError as exc:
        print(exc, file=sys.stderr)
        return 2
    return 0


__all__ = [
    "ClusterConfig",
    "ClusterServer",
    "WorkerHandle",
    "build_server",
    "pick_free_port",
    "pick_free_port_block",
    "run_cluster",
    "READY_TIMEOUT",
    "STOP_TIMEOUT",
]
