"""The asyncio daemon serving the filecule-management protocol.

Concurrency model — one event loop, one writer, no per-request tasks:

* every connection is a :class:`_Connection` protocol.  It splits
  complete lines out of its buffer, decodes each one and queues it on
  the server (a line that fails to decode queues its encoded error, so
  errors keep their place).  At ``pending_per_connection`` unanswered
  requests, or while its write buffer is over the high-water mark, it
  stops parsing and pauses reading — per-connection backpressure
  through TCP;
* one ``call_soon`` callback, :meth:`FileculeServer._drain`, is the
  state's single writer.  It takes up to ``batch_max`` requests in
  arrival order across all connections, **encodes each answer to bytes
  at once** (so reused state buffers are never observed mid-mutation),
  writes each connection's answers in one ``transport.write`` and
  reschedules itself while requests remain.  Each maximal run of
  consecutive ingests without a ``rid`` is one ``ingest_batch`` window,
  a traced ingest a window of its own.  A state call or encoding that
  raises is never retried: each request it covered gets an
  ``internal`` error carrying its own id.  Any other fault while
  answering a connection closes that connection only, and the drain
  always reschedules itself;
* a client's EOF keeps its connection open until the last accepted
  request is answered; a line over ``MAX_LINE_BYTES`` is answered
  ``too-large``, then the connection closes;
* ``SIGINT``/``SIGTERM`` (and the ``shutdown`` op) trigger a graceful
  stop: stop accepting and reading, answer every accepted request,
  close the connections, write a final snapshot if configured.

For multi-process deployments (:mod:`repro.service.cluster`), the server
accepts ``reuse_port=True`` (each worker binds its own ``SO_REUSEPORT``
acceptor on the shared port) or ``sock=`` (a pre-bound listening socket
inherited from the parent — the fallback on platforms without
``SO_REUSEPORT``).

Observability (see ``docs/OBSERVABILITY.md``): every handled request is
recorded as a span in a bounded ring buffer (exported as JSONL on
shutdown when ``span_log_path`` is set), carrying the client-supplied
``rid``; requests slower than ``slow_op_seconds`` emit a structured
``slow-op`` log line with that rid; the ``metrics`` op — and, when
``metrics_port`` is set, a tiny HTTP admin endpoint — expose the
registry.  The admin endpoint serves ``/metrics`` (Prometheus text),
``/stats``, ``/partition`` and ``/registry`` (JSON — the latter is the
full-fidelity :meth:`MetricsRegistry.state_dict` that cross-worker
aggregation merges), ``/history`` and ``/spans`` (the flight recorder's
time series/health events and the live span ring buffer), ``/healthz``
and ``/snapshot``.

When ``sample_interval`` is set, a background task feeds the flight
recorder (:mod:`repro.obs.timeseries`) on that cadence, and ``health``
additionally runs the online detector panel (:mod:`repro.obs.health`)
over the sampled series — firings surface as ``health_events`` counter
increments, structured ``health-event`` log lines, the ``history``
payload, and a JSONL export on shutdown when ``health_log_path`` is
set.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import json
import os
import signal
import socket as socket_module
import time
import traceback

from repro.obs import trace as obstrace
from repro.obs.health import HealthMonitor
from repro.obs.log import get_logger
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE, MetricsRegistry
from repro.obs.timeseries import (
    DEFAULT_CAPACITY as DEFAULT_SERIES_CAPACITY,
    DEFAULT_INTERVAL as DEFAULT_SAMPLE_INTERVAL,
    TimeSeriesRecorder,
)
from repro.service.protocol import (
    INGEST_OK_TEMPLATE,
    RESULT_OK_TEMPLATE,
    MAX_LINE_BYTES,
    ProtocolError,
    decode_request,
    encode_response,
    error_response,
    ok_response,
)
from repro.service.state import SnapshotError

slog = get_logger("repro.service")


def _batch_bucket(n: int) -> str:
    """Power-of-two bucket label for the writer-batch-size histogram."""
    if n <= 2:
        return str(n)
    if n > 64:
        return "65+"
    hi = 1 << (n - 1).bit_length()
    return f"{hi // 2 + 1}-{hi}"


#: True when the platform can load-balance accepts across processes.
HAS_REUSEPORT = hasattr(socket_module, "SO_REUSEPORT")


class FileculeServer:
    """Serve a service state over newline-delimited JSON TCP.

    Every ingest is answered through :meth:`_ingest_run` and every
    snapshot is written through :meth:`_write_snapshot`.

    Parameters
    ----------
    state:
        The :class:`~repro.service.state.ServiceState` to serve (restored
        from a snapshot by the caller if desired).
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (exposed as
        :attr:`port` after :meth:`start`).
    batch_max:
        Maximum requests one drain of the request queue handles.
    pending_per_connection:
        Bound on a connection's unanswered requests before the server
        stops reading from it (per-connection backpressure window).
    snapshot_path, snapshot_interval:
        The hard state is snapshotted to ``snapshot_path`` on shutdown
        and, with ``snapshot_interval``, every that many seconds.
    log_interval:
        Seconds between periodic metrics log lines (None disables).
    metrics_port:
        When set, also serve the HTTP admin endpoint on this port
        (0 picks an ephemeral port, exposed as :attr:`metrics_port`
        after :meth:`start`).
    span_log_path:
        When set, the span ring buffer is exported there as JSONL on
        shutdown.
    span_capacity:
        Ring-buffer size of the per-server span recorder.
    sample_interval:
        When set, a sampler task feeds the flight recorder
        (:class:`~repro.obs.timeseries.TimeSeriesRecorder`) every
        ``sample_interval`` seconds; the series are served by the
        ``history`` op and the ``/history`` admin route.
    series_capacity:
        Ring capacity per flight-recorder series (constant memory).
    health:
        Run the default detector panel (:mod:`repro.obs.health`) on each
        sample; events surface in the ``history`` payload, the
        ``health_events`` counter and structured log lines.  Requires
        ``sample_interval``.
    health_log_path:
        When set, retained health events are exported there as JSONL on
        shutdown.
    slow_op_seconds:
        Requests handled slower than this emit a ``slow-op`` structured
        log line carrying the request's ``rid``.
    reuse_port:
        Bind the data port with ``SO_REUSEPORT`` so sibling worker
        processes can share it (the kernel load-balances accepts).
    sock:
        Pre-bound listening socket to serve on instead of binding
        ``host:port`` — the parent-socket-inheritance fallback for
        platforms without ``SO_REUSEPORT``.
    worker_index:
        Cluster worker index (surfaces in logs and ``/healthz``); None
        for a standalone daemon.
    """

    def __init__(
        self,
        state,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        batch_max: int = 64,
        pending_per_connection: int = 128,
        snapshot_path: str | None = None,
        snapshot_interval: float | None = None,
        log_interval: float | None = None,
        metrics_port: int | None = None,
        span_log_path: str | None = None,
        span_capacity: int = obstrace.DEFAULT_CAPACITY,
        sample_interval: float | None = None,
        series_capacity: int = DEFAULT_SERIES_CAPACITY,
        health: bool = False,
        health_log_path: str | None = None,
        slow_op_seconds: float = 0.25,
        reuse_port: bool = False,
        sock: socket_module.socket | None = None,
        worker_index: int | None = None,
    ) -> None:
        if batch_max < 1:
            raise ValueError(f"batch_max must be >= 1, got {batch_max}")
        if pending_per_connection < 1:
            raise ValueError(
                f"pending_per_connection must be >= 1, got {pending_per_connection}"
            )
        if reuse_port and not HAS_REUSEPORT:
            raise ValueError("this platform has no SO_REUSEPORT; pass sock=")
        self.state = state
        self.host = host
        self.port = port
        self.batch_max = batch_max
        self.pending_per_connection = pending_per_connection
        self.snapshot_path = snapshot_path
        self.snapshot_interval = snapshot_interval
        self.log_interval = log_interval
        self.metrics_port = metrics_port
        self.span_log_path = span_log_path
        self.slow_op_seconds = slow_op_seconds
        self.reuse_port = reuse_port
        self.worker_index = worker_index
        self.metrics = MetricsRegistry()
        self.spans = obstrace.SpanRecorder(span_capacity)
        if health and sample_interval is None:
            raise ValueError("health monitoring requires sample_interval")
        self.sample_interval = sample_interval
        self.health_log_path = health_log_path
        # The recorder always exists (the history op answers even when
        # sampling is off — with empty series); the monitor only under
        # --health.
        self.recorder = TimeSeriesRecorder(
            sample_interval if sample_interval else DEFAULT_SAMPLE_INTERVAL,
            capacity=series_capacity,
        )
        self.health = HealthMonitor(self.recorder) if health else None
        self._listen_sock = sock
        self._metrics_server: asyncio.AbstractServer | None = None
        self._server: asyncio.AbstractServer | None = None
        self._stop_event: asyncio.Event | None = None
        self._background: list[asyncio.Task] = []
        self._connections: set[_Connection] = set()
        # (connection, decoded request or pre-encoded error, enqueue time)
        self._pending: collections.deque = collections.deque()
        self._drain_scheduled = False
        self._loop: asyncio.AbstractEventLoop | None = None
        # Interned-op dispatch: one dict hit replaces the if/elif chain
        # (ops are interned by decode_request, so lookup is by identity).
        self._ops = {
            "ping": self._op_ping,
            "filecule_of": self._op_filecule_of,
            "advise": self._op_advise,
            "stats": self._op_stats,
            "metrics": self._op_metrics,
            "history": self._op_history,
            "spans": self._op_spans,
            "partition": self._op_partition,
            "snapshot": self._op_snapshot,
            "shutdown": self._op_shutdown,
        }

    # ------------------------------------------------------------------
    # request handling (runs in the drain)
    # ------------------------------------------------------------------
    def _op_ping(self, request: dict) -> dict:
        return {"pong": True, "jobs_observed": self.state.jobs_observed}

    def _op_filecule_of(self, request: dict) -> dict:
        return self.state.filecule_of(request["file"])

    def _op_advise(self, request: dict) -> dict:
        return self.state.advise(request["files"], request["site"])

    def _op_stats(self, request: dict) -> dict:
        result = self.state.stats()
        result["server"] = self.metrics.snapshot()
        return result

    def _op_metrics(self, request: dict) -> dict:
        return {
            "content_type": PROMETHEUS_CONTENT_TYPE,
            "body": self.expose_metrics(),
        }

    def _op_history(self, request: dict) -> dict:
        return self.history_payload(last=request.get("last"))

    def _op_spans(self, request: dict) -> dict:
        return self.spans_payload(last=request.get("last"))

    def _op_partition(self, request: dict) -> dict:
        return self.state.partition()

    def _op_snapshot(self, request: dict) -> dict:
        path = request["path"] or self.snapshot_path
        if path is None:
            raise ProtocolError(
                "bad-request",
                "no 'path' given and the server has no snapshot path",
            )
        return self._write_snapshot(path)

    def _op_shutdown(self, request: dict) -> dict:
        assert self._stop_event is not None
        asyncio.get_running_loop().call_soon(self._stop_event.set)
        return {"stopping": True}

    def _handle(self, request: dict) -> dict:
        request_id = request["id"]
        rid = request.get("rid")
        try:
            result = self._ops[request["op"]](request)
        except ProtocolError as exc:
            self.metrics.inc("errors")
            return error_response(request_id, exc.code, exc.message, rid=rid)
        except SnapshotError as exc:
            self.metrics.inc("errors")
            return error_response(request_id, "snapshot-error", str(exc), rid=rid)
        return ok_response(request_id, result, rid=rid)

    def _internal_errors(
        self, exc: Exception, op: str, requests: list[dict]
    ) -> list[dict]:
        """The fault barrier: answer a state call that raised.

        The call is not retried (it may already have mutated state).
        Every request it covered — one, or a whole ingest run
        — counts one error and gets an ``internal`` error response
        carrying its own id.
        """
        error = f"{type(exc).__name__}: {exc}"
        slog.error(
            "internal-error",
            op=op,
            requests=len(requests),
            rid=requests[0].get("rid"),
            error=error,
            traceback="".join(traceback.format_exception(exc)),
        )
        self.metrics.inc("errors", len(requests))
        return [
            error_response(r["id"], "internal", error, rid=r.get("rid"))
            for r in requests
        ]

    def _set_state_gauges(self, summary: dict) -> None:
        """Republish a :meth:`ServiceState.summary` as registry gauges.

        Shared by the exposition path and the flight-recorder sampler, so
        both see the same vocabulary (``site_requests``/``site_hits`` are
        monotone totals the recorder differentiates into rates).  The
        summary leaves out what :meth:`ServiceState.stats` adds by
        walking every class, so a sample's cost does not grow with the
        catalog.
        """
        self.metrics.set_gauge("jobs_observed", summary["jobs_observed"])
        self.metrics.set_gauge("files_observed", summary["files_observed"])
        self.metrics.set_gauge("filecule_classes", summary["n_classes"])
        self.metrics.set_gauge("span_buffer_spans", len(self.spans))
        if self.worker_index is not None:
            # Which cluster worker this scrape came from — lets a scraper
            # of base+k ports attribute samples without port arithmetic.
            self.metrics.set_gauge("worker_index", self.worker_index)
        for site, adv in summary["sites"].items():
            self.metrics.set_gauge("site_hit_rate", adv["hit_rate"], site=site)
            self.metrics.set_gauge(
                "site_byte_miss_rate", adv["byte_miss_rate"], site=site
            )
            self.metrics.set_gauge(
                "site_used_bytes", adv["used_bytes"], site=site
            )
            self.metrics.set_gauge(
                "site_requests", adv["requests"], site=site
            )
            self.metrics.set_gauge("site_hits", adv["hits"], site=site)

    def expose_metrics(self) -> str:
        """Prometheus text exposition: server registry + live state gauges."""
        self._set_state_gauges(self.state.summary())
        return self.metrics.expose()

    # ------------------------------------------------------------------
    # flight recorder
    # ------------------------------------------------------------------
    def sample_once(self, now: float | None = None) -> None:
        """Take one flight-recorder sample (and run detectors if on)."""
        if now is None:
            now = time.monotonic()
        self._set_state_gauges(self.state.summary())
        self.recorder.sample(self.metrics, now)
        if self.health is not None:
            for event in self.health.observe():
                self.metrics.inc(
                    "health_events",
                    detector=event.detector,
                    severity=event.severity,
                )
                log = slog.error if event.severity == "critical" else slog.warning
                log(
                    "health-event",
                    detector=event.detector,
                    severity=event.severity,
                    message=event.message,
                    **{k: v for k, v in event.evidence.items() if k != "message"},
                )

    def history_payload(self, last: int | None = None) -> dict:
        """The ``history`` op / ``/history`` admin body: series + events."""
        payload = self.recorder.payload(last=last)
        payload["enabled"] = self.sample_interval is not None
        payload["health"] = {
            "enabled": self.health is not None,
            "events": [e.as_dict() for e in self.health.events()]
            if self.health is not None
            else [],
        }
        if self.worker_index is not None:
            payload["worker"] = self.worker_index
        return payload

    def spans_payload(self, last: int | None = None) -> dict:
        """The ``spans`` op / ``/spans`` admin body: the live ring buffer."""
        spans = self.spans.spans()
        if last is not None and last >= 1:
            spans = spans[-last:]
        payload = {
            "capacity": self.spans.capacity,
            "dropped": self.spans.dropped,
            "count": len(spans),
            "spans": [s.as_dict() for s in spans],
        }
        if self.worker_index is not None:
            payload["worker"] = self.worker_index
        return payload

    def _ingest_run(self, run: list) -> list[bytes]:
        """Answer one run of ingest requests (the only ingest path).

        One ``ingest_batch`` state call for the whole run, under one
        ``op.ingest`` span carrying ``jobs`` and the ``rid`` of a traced
        run of one; receipts are encoded per request and in order (an
        int ``id`` without ``rid`` through the wire template), so clients
        cannot tell how their requests were grouped.
        """
        metrics = self.metrics
        n_jobs = len(run)
        rid = run[0][1].get("rid")
        t0 = time.perf_counter()
        with obstrace.span("op.ingest", recorder=self.spans, rid=rid) as span_fields:
            span_fields["jobs"] = n_jobs
            try:
                receipts = self.state.ingest_batch(
                    [(r["files"], r["sizes"], r["site"]) for _, r, _ in run]
                )
                datas = [
                    INGEST_OK_TEMPLATE
                    % (
                        r["id"],
                        receipt["job_seq"],
                        receipt["n_files"],
                        receipt["n_classes"],
                        receipt["site_hits"],
                    )
                    if type(r["id"]) is int and rid is None
                    else encode_response(ok_response(r["id"], receipt, rid=rid))
                    for (_, r, _), receipt in zip(run, receipts)
                ]
                span_fields["ok"] = True
            except Exception as exc:  # noqa: BLE001 — fault barrier
                datas = [
                    encode_response(response)
                    for response in self._internal_errors(
                        exc, "ingest", [r for _, r, _ in run]
                    )
                ]
                span_fields["ok"] = False
        t1 = time.perf_counter()
        amortized = (t1 - t0) / n_jobs
        metrics.inc("requests", n_jobs)
        metrics.inc("ingest_batches")
        metrics.inc("ingest_batch_jobs", jobs=_batch_bucket(n_jobs))
        metrics.observe_many("op.ingest", amortized, n_jobs)
        observe = metrics.observe
        for _, _, t_enqueued in run:
            observe("queue_wait", t0 - t_enqueued)
        if amortized >= self.slow_op_seconds:
            metrics.inc("slow_ops", n_jobs)
            slog.warning(
                "slow-op",
                op="ingest",
                rid=rid,
                jobs=n_jobs,
                duration_ms=round((t1 - t0) * 1e3, 3),
            )
        return datas

    def _handle_one(self, request: dict, t_enqueued: float) -> bytes:
        """Answer one request that is not an ingest."""
        metrics = self.metrics
        perf_counter = time.perf_counter
        op = request["op"]
        rid = request.get("rid")
        t0 = perf_counter()
        with obstrace.span(
            f"op.{op}", recorder=self.spans, rid=rid
        ) as span_fields:
            try:
                if op == "filecule_of" and rid is None and type(request["id"]) is int:
                    # Hot path for untraced plain-int-id lookups: serve
                    # the state's memoized, already encoded payload — no
                    # response dict, no json.dumps.
                    data = RESULT_OK_TEMPLATE % (
                        request["id"],
                        self.state.filecule_of_json(request["file"]),
                    )
                    ok = True
                else:
                    response = self._handle(request)
                    ok = response["ok"]
                    # Encode now: the response (and anything the state
                    # lent it) is serialized before the next request can
                    # mutate state.
                    data = encode_response(response)
            except Exception as exc:  # noqa: BLE001 — fault barrier
                data = encode_response(self._internal_errors(exc, op, [request])[0])
                ok = False
            span_fields["ok"] = ok
        t1 = perf_counter()
        metrics.inc("requests")
        metrics.observe(f"op.{op}", t1 - t0)
        metrics.observe("queue_wait", t0 - t_enqueued)
        if t1 - t0 >= self.slow_op_seconds:
            metrics.inc("slow_ops")
            slog.warning(
                "slow-op",
                op=op,
                rid=rid,
                duration_ms=round((t1 - t0) * 1e3, 3),
                queue_wait_ms=round((t0 - t_enqueued) * 1e3, 3),
            )
        return data

    def _enqueue(self, conn: "_Connection", item) -> None:
        """Queue a decoded request (or a pre-encoded error) for the drain."""
        conn.unanswered += 1
        self._pending.append((conn, item, time.perf_counter()))
        if not self._drain_scheduled:
            self._drain_scheduled = True
            self._loop.call_soon(self._drain)

    def _drain(self) -> None:
        """The state's single writer: answer up to ``batch_max`` requests,
        and reschedule while more wait."""
        pending = self._pending
        try:
            self._answer(
                [pending.popleft() for _ in range(min(len(pending), self.batch_max))]
            )
        finally:  # a fault must never leave the drain unscheduled
            if pending:
                self._loop.call_soon(self._drain)
            else:
                self._drain_scheduled = False

    def _answer(self, batch: list) -> None:
        """Answer one drain's ``(connection, item, t_enqueued)`` entries.

        Every ingest goes to :meth:`_ingest_run`, in a run of plain
        ingests or, with a ``rid``, alone; every other request goes to
        :meth:`_handle_one`, and a pre-encoded error passes through.
        """
        if any(type(item) is dict for _, item, _ in batch):
            self.metrics.inc("batches")  # mean batch size = requests/batches
            self.metrics.set_gauge("actor_queue_depth", len(self._pending))
        answers: dict[_Connection, list[bytes]] = {}
        n = len(batch)
        i = 0
        while i < n:
            # A maximal run of consecutive plain ingests is one
            # ingest_batch window.  Only *consecutive* requests join a
            # run: an interleaved read must observe exactly the ingests
            # queued before it, so it breaks the run.  A traced ingest
            # keeps its own span, so it is a run of one.
            _, item, t_enqueued = batch[i]
            j = i + 1
            if type(item) is bytes:
                datas = [item]
            elif item["op"] != "ingest":
                datas = [self._handle_one(item, t_enqueued)]
            else:
                if item.get("rid") is None:
                    while j < n and _plain_ingest(batch[j][1]):
                        j += 1
                datas = self._ingest_run(batch[i:j])
            for (conn, _, _), data in zip(batch[i:j], datas):
                answers.setdefault(conn, []).append(data)
            i = j
        for conn, datas in answers.items():
            try:
                conn.answer(datas)
            except Exception:  # noqa: BLE001 — a fault closes only its connection
                slog.error("connection-fault", error=traceback.format_exc())
                conn.transport.abort()

    # ------------------------------------------------------------------
    # HTTP admin endpoint (optional)
    # ------------------------------------------------------------------
    def _admin_response(self, method: str, path: str) -> tuple[str, str, bytes]:
        """Route one admin request → ``(status, content_type, body)``."""
        route, _, query = path.partition("?")
        if method not in ("GET", "POST"):
            return "405 Method Not Allowed", "text/plain", b"method not allowed\n"
        if route in ("/metrics", "/"):
            return "200 OK", PROMETHEUS_CONTENT_TYPE, self.expose_metrics().encode()
        if route == "/stats":
            return "200 OK", "application/json", _json_bytes(self._op_stats({}))
        if route == "/partition":
            return "200 OK", "application/json", _json_bytes(self._op_partition({}))
        if route == "/registry":
            # Full-fidelity registry (bucket-exact histograms): what a
            # cross-worker aggregator merges via MetricsRegistry.merge.
            return "200 OK", "application/json", _json_bytes(self.metrics.state_dict())
        if route == "/history":
            return "200 OK", "application/json", _json_bytes(
                self.history_payload(last=_query_int(query, "last"))
            )
        if route == "/spans":
            return "200 OK", "application/json", _json_bytes(
                self.spans_payload(last=_query_int(query, "last"))
            )
        if route == "/healthz":
            return "200 OK", "application/json", _json_bytes(
                {
                    "ok": True,
                    "worker": self.worker_index,
                    "pid": os.getpid(),
                    "port": self.port,
                    "jobs_observed": self.state.jobs_observed,
                }
            )
        if route == "/snapshot":
            if self.snapshot_path is None:
                return (
                    "409 Conflict",
                    "application/json",
                    _json_bytes({"ok": False, "error": "no snapshot path configured"}),
                )
            try:
                receipt = self._write_snapshot(self.snapshot_path)
            except SnapshotError as exc:
                return (
                    "500 Internal Server Error",
                    "application/json",
                    _json_bytes({"ok": False, "error": str(exc)}),
                )
            return "200 OK", "application/json", _json_bytes({"ok": True, **receipt})
        return "404 Not Found", "text/plain", (
            b"try /metrics /stats /partition /registry /history /spans"
            b" /healthz /snapshot\n"
        )

    async def _handle_admin_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Minimal one-shot HTTP/1.0 responder for the admin endpoint.

        Deliberately tiny: no keep-alive, no chunking, 5 s header
        timeout — just enough for a Prometheus scraper, an aggregator or
        ``curl``.
        """
        try:
            request_line = await asyncio.wait_for(reader.readline(), timeout=5.0)
            while True:  # drain headers
                header = await asyncio.wait_for(reader.readline(), timeout=5.0)
                if header in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.decode("latin-1").split()
            method = parts[0] if parts else ""
            path = parts[1] if len(parts) >= 2 else "/"
            status, content_type, body = self._admin_response(method, path)
            writer.write(
                (
                    f"HTTP/1.0 {status}\r\n"
                    f"Content-Type: {content_type}\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    f"Connection: close\r\n\r\n"
                ).encode()
            )
            writer.write(body)
            await writer.drain()
        except (asyncio.TimeoutError, ConnectionError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(ConnectionError):
                await writer.wait_closed()

    # ------------------------------------------------------------------
    # background maintenance
    # ------------------------------------------------------------------
    def _write_snapshot(self, path: str) -> dict:
        """Snapshot the state to ``path``, counted in ``snapshots`` or,
        when it raises :class:`SnapshotError`, ``snapshot_failures``."""
        try:
            receipt = self.state.snapshot(path)
        except SnapshotError:
            self.metrics.inc("snapshot_failures")
            raise
        self.metrics.inc("snapshots")
        return receipt

    async def _periodic_snapshot(self) -> None:
        assert self.snapshot_path is not None and self.snapshot_interval
        while True:
            await asyncio.sleep(self.snapshot_interval)
            try:
                receipt = self._write_snapshot(self.snapshot_path)
                slog.info("snapshot-written", **receipt)
            except SnapshotError as exc:
                slog.error("snapshot-failed", error=str(exc))

    async def _periodic_log(self) -> None:
        assert self.log_interval
        while True:
            await asyncio.sleep(self.log_interval)
            slog.info("metrics", **self.metrics.snapshot())

    async def _periodic_sample(self) -> None:
        assert self.sample_interval
        while True:
            await asyncio.sleep(self.sample_interval)
            self.sample_once()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start serving; returns once the socket is listening."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        if self.snapshot_path and self.snapshot_interval:
            self._background.append(asyncio.create_task(self._periodic_snapshot()))
        if self.log_interval:
            self._background.append(asyncio.create_task(self._periodic_log()))
        if self.sample_interval:
            # Establish delta baselines immediately so the first periodic
            # tick already yields rates.
            self.sample_once()
            self._background.append(asyncio.create_task(self._periodic_sample()))
        if self._listen_sock is not None:
            self._server = await self._loop.create_server(
                lambda: _Connection(self), sock=self._listen_sock
            )
        else:
            self._server = await self._loop.create_server(
                lambda: _Connection(self),
                self.host,
                self.port,
                **({"reuse_port": True} if self.reuse_port else {}),
            )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._handle_admin_http, self.host, self.metrics_port
            )
            self.metrics_port = self._metrics_server.sockets[0].getsockname()[1]
        slog.info(
            "serving",
            host=self.host,
            port=self.port,
            worker=self.worker_index,
            policy=self.state.policy_name,
            capacity_bytes=self.state.capacity_bytes,
            metrics_port=self.metrics_port,
        )

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting and reading, answer every
        accepted request, close the connections, snapshot, release."""
        if self._server is None:
            return
        self._server.close()
        if self._metrics_server is not None:
            self._metrics_server.close()
        connections = list(self._connections)
        for conn in connections:
            conn.finish()
        while self._pending:  # the drain reschedules itself until empty
            await asyncio.sleep(0)
        # Each connection closes after its last answer is flushed.  Only
        # then wait for the listeners: from Python 3.12 on, wait_closed()
        # also waits for every open connection.
        await asyncio.gather(*(conn.closed for conn in connections))
        await self._server.wait_closed()
        if self._metrics_server is not None:
            await self._metrics_server.wait_closed()
            self._metrics_server = None
        for task in self._background:
            task.cancel()
        await asyncio.gather(*self._background, return_exceptions=True)
        if self.snapshot_path:
            try:
                receipt = self._write_snapshot(self.snapshot_path)
                slog.info("final-snapshot-written", **receipt)
            except SnapshotError as exc:
                slog.error("final-snapshot-failed", error=str(exc))
        if self.span_log_path:
            try:
                exported = self.spans.export_jsonl(self.span_log_path)
                slog.info(
                    "span-log-written",
                    path=str(self.span_log_path),
                    spans=exported,
                    dropped=self.spans.dropped,
                )
            except OSError as exc:
                slog.error("span-log-failed", error=str(exc))
        if self.health_log_path and self.health is not None:
            try:
                exported = self.health.export_jsonl(self.health_log_path)
                slog.info(
                    "health-log-written",
                    path=str(self.health_log_path),
                    events=exported,
                    dropped=self.health.dropped,
                )
            except OSError as exc:
                slog.error("health-log-failed", error=str(exc))
        self._server = None
        self._background.clear()
        slog.info("stopped", **self.metrics.snapshot())

    def request_stop(self) -> None:
        """Ask a running :meth:`serve_forever` to shut down gracefully."""
        if self._stop_event is not None:
            self._stop_event.set()

    async def serve_forever(self, ready_callback=None) -> None:
        """Start, serve until a stop signal/request, then stop.

        ``ready_callback(server)``, when given, runs right after the
        sockets are bound — cluster workers use it to report their
        resolved ports to the parent process.
        """
        await self.start()
        if ready_callback is not None:
            ready_callback(self)
        assert self._stop_event is not None
        loop = asyncio.get_running_loop()
        installed = []
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, self._stop_event.set)
                installed.append(sig)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-unix event loop, or not on the main thread
        try:
            await self._stop_event.wait()
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)
            await self.stop()

    def run(self) -> None:
        """Blocking entry point (used by ``repro-serve serve``)."""
        asyncio.run(self.serve_forever())


class _Connection(asyncio.Protocol):
    """One client connection: request lines in, answer bytes out (see
    the module docstring); :meth:`answer` writes each drain's answers."""

    def __init__(self, server: FileculeServer) -> None:
        self.server = server
        self.transport: asyncio.Transport | None = None
        self.buffer = bytearray()
        self.scanned = 0  # buffer[:scanned] holds no newline
        self.unanswered = 0
        self.eof = False  # the client half-closed: answer, then close
        self.done = False  # accept no more requests: close once answered
        self.write_paused = False
        self.closed = server._loop.create_future()

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.server._connections.add(self)
        self.server.metrics.inc("connections")

    def connection_lost(self, exc) -> None:
        # Requests already queued are still handled; only their writes
        # are skipped.
        self.server._connections.discard(self)
        self.done = True
        self.closed.set_result(None)

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        self._parse()

    def eof_received(self) -> bool:
        self.eof = True
        self._parse()
        return True  # keep the transport open until the answers are out

    def pause_writing(self) -> None:
        self.write_paused = True
        self._parse()

    def resume_writing(self) -> None:
        self.write_paused = False
        self._parse()

    def finish(self) -> None:
        """Accept nothing more; close once every queued request is answered."""
        self.done = True
        self._parse()

    def answer(self, datas: list[bytes]) -> None:
        self.unanswered -= len(datas)
        if not self.transport.is_closing():
            self.server.metrics.inc("writes")
            self.transport.write(b"".join(datas))
        self._parse()

    def _parse(self) -> None:
        """Queue the buffer's complete lines, up to the window; then
        pause, resume or close the transport as the state requires."""
        server = self.server
        buffer = self.buffer
        window = server.pending_per_connection
        start = 0
        scanned = self.scanned
        while not (self.done or self.write_paused) and self.unanswered < window:
            newline = buffer.find(b"\n", max(start, scanned))
            end = newline + 1 if newline >= 0 else len(buffer)
            if end - start > MAX_LINE_BYTES + (newline >= 0):
                # Answered in order, then the connection closes.
                server._enqueue(self, _TOO_LARGE)
                self.done = True
                start = len(buffer)
                break
            if newline < 0 and not (self.eof and end > start):
                scanned = end  # an incomplete line (at EOF, the last is whole)
                break
            line = bytes(buffer[start:end])
            start = end
            if not line.isspace():
                try:
                    item = decode_request(line)
                except ProtocolError as exc:
                    server.metrics.inc("errors")
                    # Echo the id of a line that was at least valid JSON,
                    # so a pipelining client can pair the error with it.
                    item = encode_response(
                        error_response(_salvage_id(line), exc.code, exc.message)
                    )
                except (ValueError, RecursionError) as exc:
                    # json.loads past its limits (an int literal over the
                    # digit limit, nesting past the recursion limit).
                    server.metrics.inc("errors")
                    item = encode_response(
                        error_response(None, "bad-request", f"invalid JSON: {exc}")
                    )
                server._enqueue(self, item)
        del buffer[:start]
        self.scanned = max(scanned - start, 0)
        if (self.done or self.eof and not buffer) and not self.unanswered:
            self.transport.close()
            return
        # Never resume after EOF: a re-added reader would see EOF again.
        if self.done or self.eof or self.write_paused or self.unanswered >= window:
            self.transport.pause_reading()
        else:
            self.transport.resume_reading()


_TOO_LARGE = encode_response(
    error_response(None, "too-large", f"request line exceeds {MAX_LINE_BYTES} bytes")
)


def _plain_ingest(request) -> bool:
    """An ingest that can join a run: queued as a request, no ``rid``."""
    return (
        type(request) is dict
        and request["op"] == "ingest"
        and request.get("rid") is None
    )


def _json_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode()


def _query_int(query: str, key: str) -> int | None:
    """Pull a positive integer out of an admin-route query string."""
    for pair in query.split("&"):
        k, _, v = pair.partition("=")
        if k == key and v.isdigit() and int(v) >= 1:
            return int(v)
    return None


def _salvage_id(line: bytes | str):
    """Best-effort request id from a line that failed validation."""
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError):
        return None
    if isinstance(obj, dict):
        request_id = obj.get("id")
        if isinstance(request_id, (int, str)):
            return request_id
    return None
