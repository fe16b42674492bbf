"""The ``service`` workload: a live ``repro.service serve`` daemon.

The daemon runs in its own process with one worker and default
coalescing; this process drives it over two connections, one for the
request stream and one that reads ``stats`` and ``metrics`` between
phases.

* ``backfill`` sends the first half of the trace's jobs as ingests,
  written in pipelined groups of :data:`PIPELINE_DEPTH` and read back in
  order.  The daemon's actor coalesces each group's queued ingests into
  ``ServiceState.ingest_batch`` calls, where ``observe_jobs_batch`` and
  ``BatchedFileCache.request_window`` do the work.
* ``mixed`` runs the second half closed-loop, one request in flight,
  with an ``advise`` before every 4th job and a ``filecule_of`` lookup
  after every 2nd.  Nothing queues behind a request, so the actor
  handles one job at a time and the per-job ingest path does the work.

Requests are encoded with ``repro.service.protocol.encode_request``
during set-up.  Every response is parsed; a non-ok, out-of-order or
missing one counts as failed.  Neither phase is paced, so no send
schedule can fall behind; latencies are the daemon's own, from its
``stats`` and ``metrics`` ops.  Each phase is timed in chunks of
requests, each chunk between two host-probe samples, so its seconds are
scaled to the reference host speed (``common.HostProbe``).
``repro.service.loadgen.run_load`` is not used: in its paced mode a
request is timed from its actual send rather than its due send, which
hides generator stalls.
"""

from __future__ import annotations

import json
import math
import os
import socket
import statistics
import subprocess
import sys
import time

from repro.cache.online import BatchedFileCache
from repro.core import IncrementalFileculeIdentifier, find_filecules
from repro.service.client import ServiceClient
from repro.service.loadgen import jobs_from_trace
from repro.service.protocol import ServiceError, encode_request
from repro.service.state import ServiceState, partition_checksum

from common import (
    OUT_DIR,
    SETUP_EVERY,
    HostProbe,
    generate,
    repeat_until,
    sum_of_medians,
)
from spans import Tracer

HOST = "127.0.0.1"
#: Ingests per pipelined write in the backfill phase; below the daemon's
#: per-connection backpressure window of 128 unanswered requests.
PIPELINE_DEPTH = 64
#: Requests per timed chunk of each phase (backfill: four pipelined
#: writes).  A phase's time is the sum over its chunks of each chunk's
#: median scaled time across repetitions; chunks are short so that
#: nearly every one runs at a single host speed.
BACKFILL_CHUNK = 4 * PIPELINE_DEPTH
MIXED_CHUNK = 256
ADVISE_EVERY = 4
LOOKUP_EVERY = 2
TIMEOUT_S = 120.0
START_TIMEOUT_S = 60.0
#: Ops whose handler time counts as the actor being busy.
_WORK_OPS = ("op.ingest", "op.advise", "op.filecule_of")


def encode_stream(jobs: list[dict]) -> tuple[list[bytes], list[bytes]]:
    """The stream connection's request lines, ``(backfill, mixed)``.

    Request ids count up from 0 across both phases, in send order.
    """
    half = len(jobs) // 2
    backfill = [
        encode_request(
            "ingest", i, files=job["files"], sizes=job["sizes"], site=job["site"]
        )
        for i, job in enumerate(jobs[:half])
    ]
    mixed: list[bytes] = []
    for k, job in enumerate(jobs[half:]):
        if k % ADVISE_EVERY == 0:
            mixed.append(
                encode_request(
                    "advise", half + len(mixed), files=job["files"], site=job["site"]
                )
            )
        mixed.append(
            encode_request(
                "ingest",
                half + len(mixed),
                files=job["files"],
                sizes=job["sizes"],
                site=job["site"],
            )
        )
        if k % LOOKUP_EVERY == LOOKUP_EVERY - 1 and job["files"]:
            mixed.append(
                encode_request("filecule_of", half + len(mixed), file=job["files"][0])
            )
    return backfill, mixed


def _encode(trace) -> tuple[list[dict], list[bytes], list[bytes], dict[int, int]]:
    """``(jobs, backfill lines, mixed lines, dense id of each file)``.

    File ids are renumbered densely in order of first use.  The excerpt
    keeps the whole trace's file catalog, so its ids reach ~251k while
    it touches ~100k files, and the daemon's per-site advisors size
    dense arrays by the largest id they have seen: with the original
    ids the daemon's peak RSS followed where each site's files lay in
    the catalog, and spread by 0.14 of its median over seeds 1–9.
    """
    jobs = jobs_from_trace(trace)
    dense: dict[int, int] = {}
    for job in jobs:
        job["files"] = [dense.setdefault(f, len(dense)) for f in job["files"]]
    return (jobs, *encode_stream(jobs), dense)


class Daemon:
    """A ``repro.service serve`` process listening on an ephemeral port."""

    def __init__(self) -> None:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.log_path = OUT_DIR / f"daemon-{os.getpid()}-{time.monotonic_ns()}.log"
        t0 = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.service", "serve", "--port", "0"],
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=log,
            )
        try:
            self.port = self._wait_for_port(t0)
            with ServiceClient(HOST, self.port, timeout=TIMEOUT_S) as client:
                client.ping()
        except BaseException:
            self.kill()
            raise

    def _wait_for_port(self, t0: float) -> int:
        """The port from the daemon's ``serving`` log record."""
        while time.perf_counter() - t0 < START_TIMEOUT_S:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with code {self.proc.returncode}; "
                    f"log: {self.log_path}"
                )
            for line in self.log_path.read_text().splitlines():
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if record.get("event") == "serving":
                    return int(record["port"])
            time.sleep(0.005)
        raise TimeoutError(
            f"daemon not serving after {START_TIMEOUT_S:g} s; log: {self.log_path}"
        )

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident set size (``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM line in the daemon's /proc status")

    def stop(self) -> None:
        """Shut down over the wire; kill the process if it does not exit."""
        try:
            with ServiceClient(HOST, self.port, timeout=10.0) as client:
                client.shutdown()
            self.proc.wait(timeout=30)
        except (OSError, ServiceError, subprocess.TimeoutExpired):
            self.kill()
        if self.proc.returncode == 0:
            self.log_path.unlink(missing_ok=True)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class _Stream:
    """The request-stream connection: pre-encoded lines, every answer checked."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection((HOST, port), timeout=TIMEOUT_S)
        self.rfile = self.sock.makefile("rb")
        self.expected_id = 0
        self.sent = 0
        self.errors = 0
        self.missing = 0
        self.wait_s = 0.0

    def exchange(self, lines) -> None:
        """Write ``lines`` in one send, then read and check their responses."""
        self.sent += len(lines)
        if self.missing:
            # The daemon closed the stream earlier; nothing more is answered.
            self.missing += len(lines)
            return
        try:
            self.sock.sendall(b"".join(lines))
        except OSError:
            self.missing += len(lines)
            return
        readline = self.rfile.readline
        for i in range(len(lines)):
            t0 = time.perf_counter()
            raw = readline()
            self.wait_s += time.perf_counter() - t0
            if not raw:
                self.missing += len(lines) - i
                return
            try:
                response = json.loads(raw)
            except ValueError:
                response = {}
            if response.get("id") != self.expected_id or response.get("ok") is not True:
                self.errors += 1
            self.expected_id += 1

    def _pipeline(self, lines: list[bytes], depth: int) -> None:
        for start in range(0, len(lines), depth):
            self.exchange(lines[start : start + depth])

    def _one_at_a_time(self, lines: list[bytes]) -> None:
        for line in lines:
            self.exchange((line,))

    @staticmethod
    def _chunked(send, lines, size, probe, *args) -> tuple[list[float], float]:
        """Scaled seconds of each ``size`` lines through ``send``, and raw total."""
        scaled, raw = [], 0.0
        for chunk in range(0, len(lines), size):
            _, seconds, elapsed = probe.measure(send, lines[chunk : chunk + size], *args)
            scaled.append(seconds)
            raw += elapsed
        return scaled, raw

    def pipelined(self, lines, depth, probe) -> tuple[list[float], float]:
        """Per BACKFILL_CHUNK requests, sent ``depth`` at a time."""
        return self._chunked(self._pipeline, lines, BACKFILL_CHUNK, probe, depth)

    def closed_loop(self, lines, probe) -> tuple[list[float], float]:
        """Per MIXED_CHUNK requests, one in flight at a time."""
        return self._chunked(self._one_at_a_time, lines, MIXED_CHUNK, probe)

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


def _snapshot(admin: ServiceClient) -> tuple[dict, str]:
    """The daemon's ``stats`` result and ``metrics`` exposition body."""
    return admin.stats(), admin.metrics()["body"]


def _buckets(body: str, metric: str) -> list[tuple[float, int]]:
    """Cumulative ``(upper_bound_s, count)`` pairs of one exposed histogram."""
    prefix = f"repro_{metric}_seconds_bucket{{"
    pairs = []
    for line in body.splitlines():
        if line.startswith(prefix):
            labels, count = line.rsplit(" ", 1)
            le = labels.split('le="', 1)[1].split('"', 1)[0]
            pairs.append((float(le), int(float(count))))
    return sorted(pairs)


def _cumulative(pairs: list[tuple[float, int]], bound: float) -> int:
    count = 0
    for upper, cumulative in pairs:
        if upper > bound:
            break
        count = cumulative
    return count


def phase_quantile_ms(before: str, after: str, metric: str, q: float) -> float:
    """Quantile of one daemon histogram over a phase, from bucket deltas.

    Read as the upper bound of the bucket that holds the rank, the way
    the daemon's own percentiles are.
    """
    old, new = _buckets(before, metric), _buckets(after, metric)
    total = _cumulative(new, math.inf) - _cumulative(old, math.inf)
    if total <= 0:
        return 0.0
    rank = max(q * total, 0.5)
    finite = [upper for upper, _ in new if upper != math.inf]
    for upper in finite:
        if _cumulative(new, upper) - _cumulative(old, upper) >= rank:
            return upper * 1e3
    return finite[-1] * 1e3 if finite else 0.0


def phase_values(phase: str, before, after, seconds: float) -> dict[str, float]:
    """Per-layer service metrics of one phase from two daemon snapshots."""
    (stats0, body0), (stats1, body1) = before, after
    counters0, counters1 = stats0["server"]["counters"], stats1["server"]["counters"]
    latency0, latency1 = stats0["server"]["latency"], stats1["server"]["latency"]

    def count(key: str) -> int:
        return counters1.get(key, 0) - counters0.get(key, 0)

    def observed(key: str) -> int:
        return latency1.get(key, {}).get("count", 0) - latency0.get(key, {}).get(
            "count", 0
        )

    def busy_s(key: str) -> float:
        def total(hist):
            return hist["count"] * hist["mean_ms"] / 1e3 if hist else 0.0

        return total(latency1.get(key)) - total(latency0.get(key))

    batches = count("ingest_batches")
    prefix = f"service.{phase}."
    values = {
        prefix + "op_ingest_p50_ms": phase_quantile_ms(body0, body1, "op_ingest", 0.50),
        prefix + "op_ingest_p99_ms": phase_quantile_ms(body0, body1, "op_ingest", 0.99),
        prefix + "queue_wait_p50_ms": phase_quantile_ms(body0, body1, "queue_wait", 0.50),
        prefix + "queue_wait_p99_ms": phase_quantile_ms(body0, body1, "queue_wait", 0.99),
        prefix + "ingest_batches": batches,
        prefix + "mean_jobs_per_batch": observed("op.ingest") / batches if batches else 0.0,
        prefix + "actor_busy_ratio": sum(busy_s(op) for op in _WORK_OPS) / seconds,
        prefix + "errors": count("errors"),
    }
    if phase == "mixed":
        values[prefix + "op_advise_p50_ms"] = phase_quantile_ms(
            body0, body1, "op_advise", 0.50
        )
        values[prefix + "op_filecule_of_p50_ms"] = phase_quantile_ms(
            body0, body1, "op_filecule_of", 0.50
        )
    return values


def _live(
    port: int, backfill: list[bytes], mixed: list[bytes], tracer: Tracer, probe: HostProbe
) -> dict:
    """Both timed phases against one daemon, with snapshots around them."""
    with ServiceClient(HOST, port, timeout=TIMEOUT_S) as admin:
        stream = _Stream(port)
        try:
            with tracer.span("service.stats"):
                before = _snapshot(admin)
            with tracer.span("service.backfill"):
                backfill_s, backfill_raw = stream.pipelined(
                    backfill, PIPELINE_DEPTH, probe
                )
            with tracer.span("service.stats"):
                middle = _snapshot(admin)
            with tracer.span("service.mixed"):
                mixed_s, mixed_raw = stream.closed_loop(mixed, probe)
            with tracer.span("service.stats"):
                after = _snapshot(admin)
        finally:
            stream.close()
    return {
        "backfill_chunks": backfill_s,
        "mixed_chunks": mixed_s,
        "backfill_s": sum(backfill_s),
        "mixed_s": sum(mixed_s),
        "backfill_raw_s": backfill_raw,
        "mixed_raw_s": mixed_raw,
        "snapshots": (before, middle, after),
        "sent": stream.sent,
        "failed": stream.errors + stream.missing,
        "wait_s": stream.wait_s,
    }


def _inprocess(jobs: list[dict], half: int, tracer: Tracer) -> str:
    """Replay the request stream through ``ServiceState`` in this process.

    Backfill ingests go through ``ingest_batch`` in runs of
    PIPELINE_DEPTH, as the daemon's actor coalesces them; the mixed
    phase calls the per-job methods in stream order.  Returns the final
    partition checksum.
    """
    state = ServiceState()
    tracer.wrap(ServiceState, "ingest_batch", "service.state_ingest")
    tracer.wrap(ServiceState, "ingest", "service.state_ingest")
    tracer.wrap(ServiceState, "advise", "service.state_advise")
    tracer.wrap(ServiceState, "filecule_of_json", "service.state_filecule_of")
    tracer.wrap(
        IncrementalFileculeIdentifier, "observe_jobs_batch", "core.observe_jobs_batch"
    )
    tracer.wrap(IncrementalFileculeIdentifier, "observe_job", "core.observe_job")
    tracer.wrap(BatchedFileCache, "request_window", "cache.request_window")
    try:
        with tracer.span("service.inprocess"):
            for start in range(0, half, PIPELINE_DEPTH):
                state.ingest_batch(
                    [
                        (job["files"], job["sizes"], job["site"])
                        for job in jobs[start : min(start + PIPELINE_DEPTH, half)]
                    ]
                )
            for k, job in enumerate(jobs[half:]):
                if k % ADVISE_EVERY == 0:
                    state.advise(job["files"], job["site"])
                state.ingest(job["files"], job["sizes"], job["site"])
                if k % LOOKUP_EVERY == LOOKUP_EVERY - 1 and job["files"]:
                    state.filecule_of_json(job["files"][0])
            return state.stats()["partition_checksum"]
    finally:
        tracer.restore()


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Set up and run both phases for ``seconds``; when ``traced``, once more traced.

    Every repetition starts a fresh daemon, so each one replays the same
    requests into the same daemon state and its chunks compare one to
    one across repetitions.  Every SETUP_EVERY-th repetition sets up
    from scratch (trace, stream, daemon); ``setup_s`` is their median.
    """
    probe = HostProbe()
    setup_s, generate_s, ready_s, peaks, reps = [], [], [], [], []
    checks = []
    expected = None
    daemon = None
    try:
        for rep in repeat_until(seconds):
            if rep % SETUP_EVERY == 0:
                # Free the previous set-up's inputs before building the next.
                trace = jobs = backfill = mixed = None
                trace, generated, _ = probe.measure(generate, seed)
                (jobs, backfill, mixed, dense), encoded, _ = probe.measure(
                    _encode, trace
                )
                generate_s.append(generated)
            daemon, ready, _ = probe.measure(Daemon)
            if rep % SETUP_EVERY == 0:
                setup_s.append(generated + encoded + ready)
            ready_s.append(ready)
            live = _live(daemon.port, backfill, mixed, Tracer(False), probe)
            peaks.append(daemon.peak_rss_mb())
            daemon.stop()
            daemon = None
            reps.append(live)
            if expected is None:
                expected = partition_checksum(
                    [dense[int(f)] for f in fc.file_ids]
                    for fc in find_filecules(trace)
                )
            final = live["snapshots"][-1][0]
            checks += [
                (
                    f"repetition {rep}: daemon partition equals offline find_filecules",
                    final["partition_checksum"] == expected,
                ),
                (
                    f"repetition {rep}: daemon observed every job",
                    final["jobs_observed"] == len(jobs),
                ),
            ]
        n_backfill = len(backfill)
        n_mixed = len(jobs) - n_backfill
        backfill_s = sum_of_medians([live["backfill_chunks"] for live in reps])
        mixed_s = sum_of_medians([live["mixed_chunks"] for live in reps])
        sent = sum(live["sent"] for live in reps)
        failed = sum(live["failed"] for live in reps)
        values = {
            "wall_s": backfill_s + mixed_s,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": statistics.median(peaks),
            "ingest_jobs_per_s": n_backfill / backfill_s,
            "mixed_jobs_per_s": n_mixed / mixed_s,
            "workload.generate_trace_s": statistics.median(generate_s),
            "service.daemon_ready_s": statistics.median(ready_s),
            "core.n_filecules": final["n_classes"],
        }
        if traced:
            daemon = Daemon()
            tracer = Tracer(True)
            t0 = time.perf_counter()
            live = _live(daemon.port, backfill, mixed, tracer, probe)
            with tracer.span("service.daemon_stop"):
                daemon.stop()
            daemon = None
            checksum = _inprocess(jobs, n_backfill, tracer)
            elapsed = time.perf_counter() - t0
            tracer.dump(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")
            before, middle, after = live["snapshots"]
            values.update(
                phase_values("backfill", before, middle, live["backfill_raw_s"])
            )
            values.update(phase_values("mixed", middle, after, live["mixed_raw_s"]))
            totals = tracer.totals()
            values.update(
                {
                    "client.wait_s": live["wait_s"],
                    "service.state_ingest_s": totals.get("service.state_ingest", 0.0),
                    "core.observe_jobs_batch_s": totals.get(
                        "core.observe_jobs_batch", 0.0
                    ),
                    "core.observe_job_s": totals.get("core.observe_job", 0.0),
                    "cache.request_window_s": totals.get("cache.request_window", 0.0),
                    "bench.trace_overhead_ratio": (
                        live["backfill_s"] + live["mixed_s"]
                    )
                    / statistics.median(r["backfill_s"] + r["mixed_s"] for r in reps),
                    "bench.span_coverage_ratio": tracer.root_seconds() / elapsed,
                }
            )
            checks += [
                (
                    "traced daemon partition equals offline find_filecules",
                    after[0]["partition_checksum"] == expected,
                ),
                (
                    "in-process replay partition equals offline find_filecules",
                    checksum == expected,
                ),
            ]
            sent += live["sent"]
            failed += live["failed"]
    finally:
        if daemon is not None:
            daemon.kill()
    values.update(probe.values())
    return {"values": values, "checks": checks, "requests": (sent, failed)}
