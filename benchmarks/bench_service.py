"""Benchmark the online filecule service: pre-shard baseline vs workers.

Measures two request mixes against each server configuration:

* **replay** — the calibrated job stream (one ``ingest`` per job plus an
  ``advise`` every tenth job).  This path is state-bound: most of each
  request is partition refinement and per-site cache modelling, so its
  ceiling is the state floor, not the protocol.  The served partition is
  verified against offline :func:`find_filecules` for every
  configuration (merged across workers via the §6 partition meet).
* **lookup** — ``filecule_of`` reads over the observed catalog, the
  service's placement-lookup API.  This is the protocol/read path the
  sharding PR optimizes: memoized per-class payloads, template-encoded
  responses, client pipelining, coalesced writes.

Rows:

* ``baseline`` — a faithful transcription of the pre-shard stack
  (commit c976267: per-file ingest accounting, per-response writes,
  uncached ``_class_info`` lookups) driven by its own serial depth-1
  client, exactly as the pre-shard bench measured it.  Same
  legacy-transcription methodology as ``bench_sweep.py``: the old code
  is measured fresh, in the same run, so host drift cancels out of the
  speedup ratios.
* ``workers N`` — the pre-fork SO_REUSEPORT cluster at each worker
  count, driven by a pre-encoded pipelined socket blaster (wrk-style:
  request lines are serialized off the clock so the measurement tracks
  server capacity, not client JSON throughput).

``cpus`` is recorded in the payload: on a single-CPU host the worker
rows measure sharding overhead rather than parallel speedup, and the
speedup-vs-baseline ratios come from the protocol fast path (see
``docs/PERFORMANCE.md``).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_service.py -q

``REPRO_BENCH_SCALE=tiny`` shrinks the workload for smoke runs;
``REPRO_BENCH_WORKERS=2`` (comma list) overrides the worker counts —
CI uses both for its two-worker smoke job.

The **ingest tier** measures the write path on its own: an ingest-only
stream replayed through one single-worker server per row, one
connection, pipelined.  Two rows replay the same prefix slice —

* ``per-job (pre-batch, transcribed)`` — the ingest path as it stood
  before the batch kernel landed: the quadratic new-file probe
  (``request - class_of.keys()`` walks the whole observed catalog per
  job) plus the per-access advisor walk, transcribed and measured
  fresh in the same run (the ``bench_sweep`` legacy methodology); its
  ``ingest_batch`` runs the 1.15.0 per-job ``ingest`` body one job at
  a time;
* ``batched`` — the default stack: the actor hands each wakeup's run
  of queued ingests to one ``observe_jobs_batch`` call plus one
  ``request_window`` per site, which replays each job on the
  residency loop the offline batch kernel shares.

``REPRO_BENCH_INGEST=paper`` runs the tier on the calibrated
paper-scale workload from the trace store (~235k jobs, ~11.3M
accesses) instead of the suite trace: the batched row then replays
the *full* stream (partition checksum verified against offline
``find_filecules``) and the tier enforces the hard >= 3x
ingest-throughput gate, batched vs the transcribed per-job baseline,
single worker.  At other scales the rows are measured and reported
but carry no floor — the pre-batch quadratic only bites once the
observed catalog is large, so small-scale ratios measure protocol
overhead, not the optimization.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import random
import socket
import statistics
import time
from pathlib import Path

from repro.cache.base import BYPASS_CODE, HIT_CODE
from repro.cache.lru import FileLRU
from repro.core.identify import find_filecules
from repro.core.incremental import IncrementalFileculeIdentifier
from repro.obs import trace as obstrace
from repro.util.host import host_info
from repro.service import (
    AsyncServiceClient,
    FileculeServer,
    ServiceState,
    jobs_from_trace,
    run_load,
)
from repro.service.aggregate import (
    aggregate_partition,
    aggregate_registry,
    fetch_json,
)
from repro.service.cluster import (
    ClusterConfig,
    ClusterServer,
    pick_free_port_block,
)
from repro.service.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    decode_request,
    encode_request,
    encode_response,
    error_response,
)
from repro.service.state import partition_checksum
from repro.util.units import GB
from repro.workload.calibration import paper_config, small_config, tiny_config
from repro.workload.generator import generate_trace
from repro.workload.store import cached_trace

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_service.json"
METRICS_JSON = REPO_ROOT / "benchmarks" / "output" / "metrics.json"

TINY = os.environ.get("REPRO_BENCH_SCALE") == "tiny"
SCALE = tiny_config if TINY else small_config
SEED = 7
CONNECTIONS = 8  # baseline client connections (pre-shard bench setting)
ADVISE_EVERY = 10
PIPELINE_DEPTH = 100  # blaster chunk size (< server's 128 backpressure window)
N_LOOKUPS = 1500 if TINY else 5000
N_BASELINE_LOOKUPS = 600 if TINY else 2000
WORKER_COUNTS = [
    int(w)
    for w in os.environ.get("REPRO_BENCH_WORKERS", "1,2,4").split(",")
    if w.strip()
]
#: The speedup the workers table must demonstrate at its largest worker
#: count, lookup mix, vs the transcribed pre-shard baseline.
REQUIRED_SPEEDUP = 1.0 if TINY else 3.0
#: Floor on the state-bound replay mix at the largest worker count vs
#: the pre-shard baseline (committed runs sit at ~1.5-1.6x; tiny smoke
#: runs are noise-dominated and carry no floor).
REQUIRED_REPLAY_SPEEDUP = None if TINY else 1.2
#: Ceiling on flight-recorder cost: replay-mix throughput with the
#: sampler + health panel on may lose at most this fraction vs off.
#: (Tiny smoke runs are noise-dominated, so the gate widens there.)
MAX_SAMPLER_OVERHEAD = 0.25 if TINY else 0.03
#: Sampler off/on pairs, run back to back with the order flipped every
#: pair.  Their throughput ratios are reported but not gated: on the
#: 2-vCPU reference host, whose speed switches about 1.8x mid-run, they
#: spread by far more than the bound (0.86-1.40 over eight pairs).
SAMPLER_PAIRS = 5
SAMPLE_INTERVAL = 1.0  # seconds, the sampled server's flight-recorder cadence
#: Requests per sampler run: the replay stream repeated to at least
#: this many.  One pass of either scale finishes inside the 1 s sample
#: interval, so the sampler would never fire; 25k requests take 2-3 s
#: on the reference host, two or more intervals.  Both sides of a pair
#: see the identical repeated workload.
SAMPLER_RUN_REQUESTS = 25_000

#: Ingest tier: ``REPRO_BENCH_INGEST=paper`` swaps in the trace-store
#: paper workload and arms the hard single-worker throughput gate.
INGEST_TIER = os.environ.get("REPRO_BENCH_INGEST", "").strip() or None
#: Jobs in the prefix slice both ingest rows replay (the pre-batch
#: baseline is quadratic in observed files, so it runs the prefix only;
#: its measured throughput *falls* with every additional job, making
#: the prefix-based gate conservative).
INGEST_PREFIX_JOBS = 20_000
#: The paper-tier gate: batched ingest throughput vs the transcribed
#: pre-batch per-job path, same prefix, single worker, one connection.
REQUIRED_INGEST_SPEEDUP = 3.0


# ----------------------------------------------------------------------
# legacy transcription (bench_sweep precedent): the pre-shard stack,
# measured fresh so the speedup ratios are host-drift free
# ----------------------------------------------------------------------
class LegacyServiceState(ServiceState):
    """Pre-shard ``ServiceState`` hot paths, transcribed from c976267.

    Its advisors are that stack's dict-backed ``FileLRU``; each request's
    code is folded into the site metrics as it comes back.
    """

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._new_policy = FileLRU

    def ingest(self, files, sizes=None, site=0):
        if sizes is not None:
            for f, s in zip(files, sizes):
                self._sizes[f] = int(s)
        self._ident.observe_job(files)
        advisor = self._advisor(site)
        self._clock += 1.0
        hits = 0
        for f in dict.fromkeys(files):  # de-duplicated, order-preserving
            size = self._size_of(f)
            code = advisor.policy.request(f, size, self._clock)
            hit = code == HIT_CODE
            bypassed = code == BYPASS_CODE
            fetched = size if bypassed else 0 if hit else code
            advisor.metrics.record_totals(
                1, hit, size, size if hit else 0, fetched, bypassed
            )
            hits += hit
        return {
            "job_seq": self._ident.n_jobs_observed,
            "n_files": self._ident.n_files_observed,
            "n_classes": self._ident.n_classes,
            "site_hits": hits,
        }


_STOP = object()  # sentinel closing a connection's response queue


class LegacyServer(FileculeServer):
    """Pre-shard ``FileculeServer`` write path, transcribed from c976267,
    on the streams plumbing the server used up to 1.18.0.

    Every connection is a reader task (``_handle_connection``) feeding a
    shared inbox queue and a bounded per-connection outbox of futures,
    plus a writer task (``_write_responses``); one actor task drains the
    inbox.  Futures carry response dicts (the writer encodes), and every
    response is its own ``write`` + ``drain`` — no coalescing, no
    template fast paths.  ``legacy_writes`` counts the writer's writes,
    so a run can prove this plumbing, not the base class's, answered.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # c976267 answered ingests through the generic handler.
        self._ops["ingest"] = self._op_ingest
        self._inbox: asyncio.Queue | None = None
        self._actor_task: asyncio.Task | None = None
        self._connection_tasks: set[asyncio.Task] = set()
        self.legacy_writes = 0

    def _op_ingest(self, request):
        return self.state.ingest(
            request["files"], request["sizes"], request["site"]
        )

    async def start(self):
        self._inbox = asyncio.Queue()
        self._stop_event = asyncio.Event()
        self._actor_task = asyncio.create_task(self._actor(self._inbox))
        self._server = await asyncio.start_server(
            self._track_connection, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self):
        # 1.18.0 order: stop accepting, cancel the readers (each flushes
        # its outbox), let the actor drain the inbox, then release.
        self._server.close()
        for task in list(self._connection_tasks):
            task.cancel()
        await asyncio.gather(*self._connection_tasks, return_exceptions=True)
        while not self._inbox.empty():
            await asyncio.sleep(0)
        self._actor_task.cancel()
        await asyncio.gather(self._actor_task, return_exceptions=True)
        await super().stop()

    def _track_connection(self, reader, writer):
        task = asyncio.create_task(self._handle_connection(reader, writer))
        self._connection_tasks.add(task)
        task.add_done_callback(self._connection_tasks.discard)

    async def _handle_connection(self, reader, writer):
        self.metrics.inc("connections")
        loop = asyncio.get_running_loop()
        outbox = asyncio.Queue(maxsize=self.pending_per_connection)
        writer_task = asyncio.create_task(self._write_responses(outbox, writer))
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    future = loop.create_future()
                    future.set_result(
                        error_response(
                            None,
                            "too-large",
                            f"request line exceeds {MAX_LINE_BYTES} bytes",
                        )
                    )
                    await outbox.put(future)
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                future = loop.create_future()
                try:
                    request = decode_request(line)
                except ProtocolError as exc:
                    self.metrics.inc("errors")
                    future.set_result(error_response(None, exc.code, exc.message))
                    await outbox.put(future)
                    continue
                self._inbox.put_nowait((request, future, time.perf_counter()))
                await outbox.put(future)
        except ConnectionError:
            pass
        finally:
            try:
                outbox.put_nowait(_STOP)
            except asyncio.QueueFull:
                writer_task.cancel()
            with contextlib.suppress(asyncio.CancelledError, ConnectionError):
                await writer_task
            writer.close()
            with contextlib.suppress(ConnectionError):
                await writer.wait_closed()

    async def _actor(self, inbox):
        while True:
            batch = [await inbox.get()]
            while len(batch) < self.batch_max:
                try:
                    batch.append(inbox.get_nowait())
                except asyncio.QueueEmpty:
                    break
            self.metrics.inc("batches")
            for request, future, t_enqueued in batch:
                op = request["op"]
                rid = request.get("rid")
                t0 = time.perf_counter()
                with obstrace.span(
                    f"op.{op}", recorder=self.spans, rid=rid
                ) as span_fields:
                    try:
                        response = self._handle(request)
                    except Exception as exc:  # noqa: BLE001 — c976267's barrier
                        response = self._internal_errors(exc, op, [request])[0]
                    span_fields["ok"] = response["ok"]
                t1 = time.perf_counter()
                self.metrics.inc("requests")
                self.metrics.observe(f"op.{op}", t1 - t0)
                self.metrics.observe("queue_wait", t0 - t_enqueued)
                if not future.done():
                    future.set_result(response)
            await asyncio.sleep(0)

    async def _write_responses(self, outbox, writer):
        while True:
            item = await outbox.get()
            if item is _STOP:
                return
            response = await item
            writer.write(encode_response(response))
            self.legacy_writes += 1
            await writer.drain()


# ----------------------------------------------------------------------
# workload encoding + the blaster
# ----------------------------------------------------------------------
def _encode_replay(jobs: list[dict]) -> list[bytes]:
    lines = []
    request_id = 0
    for k, job in enumerate(jobs):
        if k % ADVISE_EVERY == 0:
            lines.append(
                encode_request(
                    "advise", request_id, files=job["files"], site=job["site"]
                )
            )
            request_id += 1
        lines.append(
            encode_request(
                "ingest",
                request_id,
                files=job["files"],
                sizes=job["sizes"],
                site=job["site"],
            )
        )
        request_id += 1
    return lines


def _lookup_files(jobs: list[dict], count: int) -> list[int]:
    rng = random.Random(SEED)
    catalog = sorted({f for job in jobs for f in job["files"]})
    return [rng.choice(catalog) for _ in range(count)]


def _encode_lookups(files: list[int]) -> list[bytes]:
    return [
        encode_request("filecule_of", i, file=f) for i, f in enumerate(files)
    ]


def _blast(port: int, lines: list[bytes], connections: int = 1) -> float:
    """Pipelined replay of pre-encoded lines; returns requests/second.

    Chunks of ``PIPELINE_DEPTH`` requests are written per connection and
    their responses drained before the next chunk — staying inside the
    server's per-connection backpressure window.  Connections take turns
    chunk-by-chunk so a multi-worker cluster sees concurrent streams.
    """
    conns = []
    for _ in range(connections):
        sock = socket.create_connection(("127.0.0.1", port))
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conns.append((sock, sock.makefile("rb")))
    shares = [lines[i::connections] for i in range(connections)]
    offsets = [0] * connections
    t0 = time.perf_counter()
    remaining = connections
    while remaining:
        remaining = 0
        for c, (sock, rfile) in enumerate(conns):
            share, i = shares[c], offsets[c]
            if i >= len(share):
                continue
            remaining += 1
            chunk = share[i : i + PIPELINE_DEPTH]
            sock.sendall(b"".join(chunk))
            for _ in chunk:
                rfile.readline()
            offsets[c] = i + len(chunk)
    duration = time.perf_counter() - t0
    for sock, rfile in conns:
        rfile.close()
        sock.close()
    return len(lines) / duration


# ----------------------------------------------------------------------
# ingest tier: the write path on its own, single worker
# ----------------------------------------------------------------------
class _PreBatchIdentifier(IncrementalFileculeIdentifier):
    """Pre-batch-kernel refinement core, transcribed from commit 6e6d173.

    One line differs from today's ``_apply_request``: the new-file probe
    was ``request - class_of.keys()``, which CPython evaluates by
    walking the *entire* keys view — O(files observed) per job.  The
    rest of the body is byte-for-byte today's sequential core, so the
    row isolates exactly the costs this PR removed.
    """

    def _apply_request(self, request, now, affected):
        class_of = self._class_of
        new_files = request - class_of.keys()  # the pre-batch quadratic
        if new_files:
            cid = self._fresh_class(new_files, requests=1, weight=1.0, last=now)
            affected.add(cid)
            self._push_expiry(cid)
            request -= new_files
        touched: dict[int, set[int]] = {}
        for f in request:
            touched.setdefault(class_of[f], set()).add(f)
        for cid, touched_files in touched.items():
            affected.add(cid)
            current = self._members[cid]
            if len(touched_files) == len(current):
                self._requests[cid] += 1
                self._weight[cid] = self._decayed_weight(cid, now) + 1.0
                self._last[cid] = now
                self._push_expiry(cid)
            else:
                weight = self._decayed_weight(cid, now) + 1.0
                current -= touched_files
                new_cid = self._fresh_class(
                    touched_files,
                    requests=self._requests[cid] + 1,
                    weight=weight,
                    last=now,
                )
                affected.add(new_cid)
                self._push_expiry(new_cid)


class _PreBatchIngestState(ServiceState):
    """The pre-batch per-job ingest stack: quadratic probe, scalar advisors.

    ``ingest`` is the per-job body as of 1.15.0, and ``ingest_batch``
    runs it one job at a time, so the server's ingest runs reach the
    per-job path this row stands for.
    """

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._new_policy = FileLRU  # the registry's scalar advisor
        self._ident = _PreBatchIdentifier(half_life=self.decay_half_life)

    def ingest(self, files, sizes=None, site=0):
        if sizes is not None:
            self._sizes.update(zip(files, map(int, sizes)))
        affected = self._ident.observe_job(files, now=self._clock + 1.0)
        if self._filecule_json:
            cache_pop = self._filecule_json.pop
            for cid in affected:
                cache_pop(cid, None)
        advisor = self._advisor(site)
        self._clock += 1.0
        clock = self._clock
        size_of = self._sizes.get
        default_size = self.default_size
        policy_request = advisor.policy.request
        hits = 0
        bytes_requested = 0
        bytes_hit = 0
        bytes_fetched = 0
        bypasses = 0
        unique = dict.fromkeys(files)
        for f in unique:
            size = size_of(f, default_size)
            code = policy_request(f, size, clock)
            bytes_requested += size
            if code == HIT_CODE:
                hits += 1
                bytes_hit += size
            elif code == BYPASS_CODE:
                bytes_fetched += size
                bypasses += 1
            else:
                bytes_fetched += code
        advisor.metrics.record_totals(
            len(unique), hits, bytes_requested, bytes_hit, bytes_fetched, bypasses
        )
        return {
            "job_seq": self._ident.n_jobs_observed,
            "n_files": self._ident.n_files_observed,
            "n_classes": self._ident.n_classes,
            "site_hits": hits,
        }

    def ingest_batch(self, batch):
        return [self.ingest(files, sizes, site) for files, sizes, site in batch]


def _encode_ingests(jobs: list[dict]) -> list[bytes]:
    return [
        encode_request(
            "ingest", i, files=j["files"], sizes=j["sizes"], site=j["site"]
        )
        for i, j in enumerate(jobs)
    ]


async def _measure_ingest_row(
    label: str,
    lines: list[bytes],
    capacity_bytes: int,
    *,
    make_state=ServiceState,
) -> dict:
    """Replay an ingest-only stream through one fresh single-worker server."""
    state = make_state(policy="lru", capacity_bytes=capacity_bytes)
    server = FileculeServer(state, log_interval=None)
    await server.start()
    try:
        t0 = time.perf_counter()
        await asyncio.to_thread(_blast, server.port, lines, 1)
        duration = time.perf_counter() - t0
        snapshot = server.metrics.snapshot()
    finally:
        await server.stop()
    stats = state.stats()
    counters = snapshot["counters"]
    batches = counters.get("ingest_batches", 0)
    ingest_lat = snapshot["latency"].get("op.ingest", {})
    return {
        "row": label,
        "jobs": len(lines),
        "seconds": round(duration, 3),
        "jobs_per_second": round(len(lines) / duration, 2),
        "ingest_us_per_job_amortized": round(
            1000.0 * ingest_lat.get("mean_ms", 0.0), 2
        ),
        "writer_batches": batches,
        "mean_jobs_per_batch": round(len(lines) / batches, 2) if batches else 0,
        "partition_checksum": stats["partition_checksum"],
        "n_classes": stats["n_classes"],
    }


def _measure_ingest_tier(suite_trace, suite_jobs: list[dict]) -> dict:
    """The single-worker ingest table: pre-batch and batched rows."""
    if INGEST_TIER == "paper":
        trace = cached_trace(paper_config(), seed=SEED, on_event=print)
        jobs = jobs_from_trace(trace)
        tier = "paper"
    else:
        trace, jobs, tier = suite_trace, suite_jobs, SCALE.__name__.removesuffix(
            "_config"
        )
    capacity = max(1, int(trace.file_sizes.sum()) // 10)
    prefix = jobs[: min(INGEST_PREFIX_JOBS, len(jobs))]
    prefix_lines = _encode_ingests(prefix)
    rows = [
        asyncio.run(
            _measure_ingest_row(
                "per-job (pre-batch, transcribed)",
                prefix_lines,
                capacity,
                make_state=_PreBatchIngestState,
            )
        ),
        asyncio.run(
            _measure_ingest_row("batched", prefix_lines, capacity)
        ),
    ]
    # Same slice, same order, single worker: every row must serve the
    # identical partition.
    assert len({r["partition_checksum"] for r in rows}) == 1, (
        "ingest rows diverged on the prefix slice"
    )
    baseline_rps = rows[0]["jobs_per_second"]
    for row in rows:
        row["speedup_vs_pre_batch"] = round(
            row["jobs_per_second"] / baseline_rps, 2
        )
    batched_prefix = rows[-1]
    result = {
        "tier": tier,
        "capacity_bytes": capacity,
        "prefix_jobs": len(prefix),
        "workload_jobs": len(jobs),
        "workload_accesses": sum(len(j["files"]) for j in jobs),
        "rows": rows,
        "gate": {
            "required_speedup": REQUIRED_INGEST_SPEEDUP if tier == "paper" else None,
            "achieved": batched_prefix["speedup_vs_pre_batch"],
            "comparison": (
                "batched vs per-job (pre-batch, transcribed), same prefix, "
                "single worker, one connection"
            ),
        },
    }
    if tier == "paper":
        # The batched stack replays the *entire* paper stream; its
        # served partition must match offline find_filecules exactly.
        full = asyncio.run(
            _measure_ingest_row("batched (full stream)", _encode_ingests(jobs), capacity)
        )
        offline = partition_checksum(
            fc.file_ids.tolist() for fc in find_filecules(trace)
        )
        assert full["partition_checksum"] == offline, (
            "paper-tier batched ingest diverged from offline find_filecules"
        )
        full["partition_checksum_matches_offline"] = True
        result["rows"].append(full)
        assert (
            batched_prefix["speedup_vs_pre_batch"] >= REQUIRED_INGEST_SPEEDUP
        ), (
            f"paper-tier batched ingest speedup "
            f"{batched_prefix['speedup_vs_pre_batch']}x < required "
            f"{REQUIRED_INGEST_SPEEDUP}x vs the pre-batch per-job path"
        )
    return result


# ----------------------------------------------------------------------
# measurement rows
# ----------------------------------------------------------------------
async def _measure_baseline(
    jobs: list[dict], lookup_files: list[int]
) -> dict:
    """The pre-shard stack, driven exactly as the pre-shard bench did."""
    server = LegacyServer(
        LegacyServiceState(policy="lru", capacity_bytes=100 * GB)
    )
    await server.start()
    try:
        report = await run_load(
            "127.0.0.1",
            server.port,
            jobs,
            connections=CONNECTIONS,
            advise_every=ADVISE_EVERY,
        )
        sample = lookup_files[:N_BASELINE_LOOKUPS]

        async def drive(files: list[int]) -> None:
            client = await AsyncServiceClient.connect("127.0.0.1", server.port)
            try:
                for f in files:
                    await client.filecule_of(f)
            finally:
                await client.close()

        t0 = time.perf_counter()
        await asyncio.gather(
            *(drive(sample[i::CONNECTIONS]) for i in range(CONNECTIONS))
        )
        lookup_rps = len(sample) / (time.perf_counter() - t0)
    finally:
        await server.stop()
    assert report.errors == 0
    # Every answer went out through the transcribed writer.
    assert server.legacy_writes == server.metrics.get("requests") > 0
    return {
        "stack": "pre-shard single actor (transcribed, commit c976267)",
        "workers": 1,
        "requests_per_second": round(lookup_rps, 2),
        "replay_requests_per_second": round(report.requests_per_second, 2),
        "replay_latency_ms": report.latencies_ms,
        "partition_checksum": report.final_stats["partition_checksum"],
        "jobs_observed": report.final_stats["jobs_observed"],
    }


def _measure_workers(
    workers: int, replay_lines: list[bytes], lookup_lines: list[bytes]
) -> dict:
    """One cluster row: replay (checksum-gated) then the lookup mix."""
    config = ClusterConfig(
        port=0,
        workers=workers,
        capacity_bytes=100 * GB,
        log_interval=None,
        metrics_port=pick_free_port_block("127.0.0.1", workers),
    )
    with ClusterServer(config) as cluster:
        ports = cluster.metrics_ports()
        replay_rps = _blast(
            cluster.port, replay_lines, connections=max(2 * workers, 2)
        )
        merged = aggregate_partition("127.0.0.1", ports)
        jobs_observed = sum(
            fetch_json("127.0.0.1", port, "/healthz")["jobs_observed"]
            for port in ports
        )
        lookup_rps = _blast(cluster.port, lookup_lines, connections=workers)
        registry = aggregate_registry("127.0.0.1", ports)
    return {
        "workers": workers,
        "requests_per_second": round(lookup_rps, 2),
        "replay_requests_per_second": round(replay_rps, 2),
        "partition_checksum": merged["checksum"],
        "n_classes": merged["n_classes"],
        "jobs_observed": jobs_observed,
        "server_metrics": registry.snapshot(),
    }


async def _measure_sampler_once(
    stream: list[bytes], sampled: bool
) -> tuple[float, list[float]]:
    """Replay-mix req/s on one single-worker server, sampler on or off,
    and the seconds each flight-recorder sample took during the replay."""
    server = FileculeServer(
        ServiceState(policy="lru", capacity_bytes=100 * GB),
        log_interval=None,
        sample_interval=SAMPLE_INTERVAL if sampled else None,
        health=sampled,
    )
    await server.start()
    seconds: list[float] = []
    sample_once = server.sample_once

    def timed_sample(now=None):
        t0 = time.perf_counter()
        sample_once(now)
        seconds.append(time.perf_counter() - t0)

    server.sample_once = timed_sample
    try:
        rps = await asyncio.to_thread(_blast, server.port, stream, 2)
        return rps, seconds[:]
    finally:
        await server.stop()


def _measure_sampler_overhead(replay_lines: list[bytes]) -> dict:
    """Flight-recorder cost on the replay mix: sampler+health on vs off.

    ``SAMPLER_PAIRS`` off/on pairs, back to back, the order flipped
    every pair, report both throughputs and the per-pair on/off ratios.
    The gated overhead is the sampler's duty cycle during the sampled
    replays: the seconds its samples took over the sample intervals
    they served, the share of the event loop it keeps from requests.
    Both sides of that ratio come from the same runs, so a switch in
    host speed between runs cannot move it.
    """
    repeats = -(-SAMPLER_RUN_REQUESTS // len(replay_lines))
    off, on, sample_seconds = [], [], []
    for pair in range(SAMPLER_PAIRS):
        rps = {}
        for sampled in (False, True) if pair % 2 == 0 else (True, False):
            rps[sampled], seconds = asyncio.run(
                _measure_sampler_once(replay_lines * repeats, sampled)
            )
            sample_seconds += seconds
        off.append(rps[False])
        on.append(rps[True])
    ratios = [b / a for a, b in zip(off, on)]
    samples = len(sample_seconds)
    return {
        "mix": "replay (requests_per_second, single worker)",
        "sample_interval_seconds": SAMPLE_INTERVAL,
        "method": "sampler duty cycle in the sampled runs of alternating pairs",
        "pairs": SAMPLER_PAIRS,
        "stream_repeats": repeats,
        "requests_per_second_sampler_off": round(statistics.median(off), 2),
        "requests_per_second_sampler_on": round(statistics.median(on), 2),
        "pair_ratios": [round(r, 4) for r in ratios],
        "samples": samples,
        "overhead_fraction": round(
            sum(sample_seconds) / (samples * SAMPLE_INTERVAL), 4
        )
        if samples
        else None,
        "max_overhead_fraction": MAX_SAMPLER_OVERHEAD,
    }


def test_bench_service(benchmark, archive):
    trace = generate_trace(SCALE(), seed=SEED)
    jobs = jobs_from_trace(trace)
    replay_lines = _encode_replay(jobs)
    lookup_files = _lookup_files(jobs, N_LOOKUPS)
    lookup_lines = _encode_lookups(lookup_files)
    offline = partition_checksum(
        fc.file_ids.tolist() for fc in find_filecules(trace)
    )

    def suite():
        baseline = asyncio.run(_measure_baseline(jobs, lookup_files))
        rows = [
            _measure_workers(n, replay_lines, lookup_lines)
            for n in WORKER_COUNTS
        ]
        sampler = _measure_sampler_overhead(replay_lines)
        ingest = _measure_ingest_tier(trace, jobs)
        return baseline, rows, sampler, ingest

    baseline, rows, sampler, ingest = benchmark.pedantic(
        suite, rounds=1, iterations=1
    )

    # flight-recorder gate: sampling must be effectively free on the
    # replay mix
    assert sampler["samples"] > 0, "no flight-recorder sample fired"
    assert sampler["overhead_fraction"] <= MAX_SAMPLER_OVERHEAD, (
        f"flight-recorder sampling took "
        f"{sampler['overhead_fraction']:.1%} of each sample interval "
        f"(allowed {MAX_SAMPLER_OVERHEAD:.0%})"
    )

    # correctness gates: every configuration serves the offline partition
    assert baseline["partition_checksum"] == offline
    assert baseline["jobs_observed"] == len(jobs)
    baseline["partition_checksum_matches_offline"] = True
    for row in rows:
        assert row["partition_checksum"] == offline, (
            f"workers={row['workers']}: merged partition diverged"
        )
        assert row["jobs_observed"] == len(jobs)
        row["partition_checksum_matches_offline"] = True
        row["speedup_vs_baseline"] = round(
            row["requests_per_second"] / baseline["requests_per_second"], 2
        )
        row["replay_speedup_vs_baseline"] = round(
            row["replay_requests_per_second"]
            / baseline["replay_requests_per_second"],
            2,
        )

    # performance gate: the largest worker count must beat the pre-shard
    # baseline >= REQUIRED_SPEEDUP x on the lookup mix
    top = max(rows, key=lambda r: r["workers"])
    assert top["speedup_vs_baseline"] >= REQUIRED_SPEEDUP, (
        f"workers={top['workers']} lookup speedup "
        f"{top['speedup_vs_baseline']}x < required {REQUIRED_SPEEDUP}x"
    )

    # replay-mix gate: the state-bound ingest/advise mix must also hold
    # its ground vs the pre-shard baseline (committed runs: ~1.5-1.6x)
    if REQUIRED_REPLAY_SPEEDUP is not None:
        assert top["replay_speedup_vs_baseline"] >= REQUIRED_REPLAY_SPEEDUP, (
            f"workers={top['workers']} replay speedup "
            f"{top['replay_speedup_vs_baseline']}x < required "
            f"{REQUIRED_REPLAY_SPEEDUP}x"
        )

    per_worker_metrics = [row.pop("server_metrics") for row in rows]
    payload_tier = SCALE.__name__.removesuffix("_config")
    payload = {
        "benchmark": "service",
        "scale": SCALE.__name__.removesuffix("_config"),
        "seed": SEED,
        "host": host_info(),
        "advise_every": ADVISE_EVERY,
        "pipeline_depth": PIPELINE_DEPTH,
        "workload": {
            "tier": payload_tier,
            "jobs": len(jobs),
            "replay_requests": len(replay_lines),
            "lookup_requests": N_LOOKUPS,
        },
        "baseline": baseline,
        "workers": rows,
        "sampler_overhead": sampler,
        "ingest": ingest,
        "gate": {
            "required_speedup_at_max_workers": REQUIRED_SPEEDUP,
            "achieved": top["speedup_vs_baseline"],
            "mix": "lookup (requests_per_second)",
            "required_replay_speedup_at_max_workers": REQUIRED_REPLAY_SPEEDUP,
            "achieved_replay": top["replay_speedup_vs_baseline"],
        },
        "notes": (
            "requests_per_second is the filecule_of lookup mix (the "
            "protocol/read fast path); replay_requests_per_second is the "
            "state-bound trace replay.  Baseline is the pre-shard stack "
            "transcribed and measured in the same run.  On a single-CPU "
            "host the worker rows measure sharding overhead, not "
            "parallel speedup — see docs/PERFORMANCE.md."
        ),
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    METRICS_JSON.parent.mkdir(parents=True, exist_ok=True)
    METRICS_JSON.write_text(
        json.dumps(
            {
                "benchmark": "service",
                "scale": payload["scale"],
                "seed": SEED,
                "worker_counts": WORKER_COUNTS,
                "merged_metrics_per_row": per_worker_metrics,
            },
            indent=2,
        )
        + "\n"
    )

    lines = [
        f"service bench — scale {payload['scale']}, seed {SEED}, "
        f"cpus {payload['host']['cpus']}",
        f"{'row':>12}  {'lookup req/s':>12}  {'replay req/s':>12}  "
        f"{'speedup':>8}  checksum",
        f"{'baseline':>12}  {baseline['requests_per_second']:>12.0f}  "
        f"{baseline['replay_requests_per_second']:>12.0f}  "
        f"{'1.00x':>8}  ok",
    ]
    for row in rows:
        lines.append(
            f"{'workers ' + str(row['workers']):>12}  "
            f"{row['requests_per_second']:>12.0f}  "
            f"{row['replay_requests_per_second']:>12.0f}  "
            f"{str(row['speedup_vs_baseline']) + 'x':>8}  ok"
        )
    lines.append(
        f"flight recorder: replay "
        f"{sampler['requests_per_second_sampler_on']:.0f} req/s sampled vs "
        f"{sampler['requests_per_second_sampler_off']:.0f} unsampled — "
        f"sampler duty cycle {sampler['overhead_fraction']:.1%} "
        f"(allowed {MAX_SAMPLER_OVERHEAD:.0%})"
    )
    lines.append(
        f"ingest tier ({ingest['tier']}): {ingest['prefix_jobs']} job "
        f"prefix of {ingest['workload_jobs']} "
        f"({ingest['workload_accesses']} accesses), single worker"
    )
    for row in ingest["rows"]:
        speedup = row.get("speedup_vs_pre_batch")
        lines.append(
            f"  {row['row']:<34} {row['jobs_per_second']:>10.0f} jobs/s  "
            f"{row['ingest_us_per_job_amortized']:>7.1f} us/job  "
            + (f"{speedup}x" if speedup is not None else "(full stream)")
        )
    if ingest["gate"]["required_speedup"] is not None:
        lines.append(
            f"  gate: batched >= {ingest['gate']['required_speedup']}x "
            f"pre-batch — achieved {ingest['gate']['achieved']}x"
        )
    rendered = "\n".join(lines)
    print()
    print(rendered)
    archive("service", rendered)
