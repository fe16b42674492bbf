"""Concurrent load generator for the filecule service.

Replays a job stream — from a :class:`~repro.traces.Trace` (via
:func:`jobs_from_trace`) or any list of job dicts — against a running
daemon over ``connections`` parallel client connections, optionally
paced to a target aggregate request rate, and reports throughput plus
client-observed latency percentiles.

Jobs are interleaved round-robin across connections in stream order, so
with a paced run the daemon sees approximately the original submission
order; because the filecule partition is order-independent over a fixed
job multiset (signature grouping commutes), the final partition equals
the offline one regardless of interleaving — which is exactly what the
equivalence tests and ``BENCH_service.json`` assert.

Open-loop pacing: each job has an absolute scheduled send time
(``start + k / target_rate``).  A paced job's first request is timed
from that due time, not from when the generator got round to sending
it, and :attr:`LoadReport.max_send_lag_ms` says how late it ran — so a
slow server makes latencies grow instead of silently lowering the
offered load, the honest way to measure a service
(coordinated-omission-free).

Two throughput levers beyond connection count:

* ``pipeline_depth > 1`` keeps that many jobs in flight per connection
  (batched writes, responses consumed in order).  Latency samples then
  measure batch-send → individual-response, so percentiles under deep
  pipelining reflect queueing inside the batch — by design: that is
  what a pipelining client experiences;
* ``ingest_batch > 1`` is the coalescing-friendly variant of pipelining:
  groups of that many jobs are flushed together with the group's
  ``advise`` probes front-loaded, so the ingests arrive back-to-back in
  the daemon's writer inbox and coalesce into single kernel calls (see
  ``docs/SERVICE.md``).  Advises in a group consult the pre-group
  partition — the trade a batching middleware actually makes;
* :func:`run_load_procs` forks N generator processes so a single Python
  client process is never the bottleneck of a multi-worker measurement;
  per-op latency histograms from the children merge bucket-exactly
  (:meth:`LatencyHistogram.merge`) into one report.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time
from dataclasses import dataclass, field

import numpy as np

from repro.obs.log import get_logger
from repro.obs.metrics import LatencyHistogram
from repro.service.client import AsyncServiceClient, ServiceClient
from repro.service.protocol import ServiceError
from repro.traces.trace import Trace

slog = get_logger("repro.service.loadgen")


def jobs_from_trace(trace: Trace) -> list[dict]:
    """Convert a trace into the load generator's job-event list.

    Each event carries the job's input file ids, their byte sizes (so
    the service's size catalog matches the trace), and the submitting
    site (so per-site advisors see the trace's geography).
    """
    sites = trace.job_sites
    events = []
    for job_id, files in trace.iter_jobs():
        file_list = files.tolist()
        events.append(
            {
                "files": file_list,
                "sizes": [int(trace.file_sizes[f]) for f in file_list],
                "site": int(sites[job_id]),
            }
        )
    return events


@dataclass
class LoadReport:
    """Outcome of one load-generation run."""

    jobs: int
    requests: int
    errors: int
    duration_seconds: float
    latencies_ms: dict[str, dict] = field(default_factory=dict)
    final_stats: dict | None = None
    #: Full-fidelity per-op histograms (:meth:`LatencyHistogram.state_dict`)
    #: — what lets reports from parallel generator processes merge exactly.
    histograms: dict[str, dict] = field(default_factory=dict)
    #: Per-interval trajectory bins (``timeline_interval`` seconds each):
    #: ``{"index", "requests", "errors", "histogram"}`` with a
    #: full-fidelity histogram state per bin, so timelines from parallel
    #: generator processes merge bucket-exactly like the totals.
    timeline: list[dict] = field(default_factory=list)
    timeline_interval: float | None = None
    #: Worst lateness of a paced send behind its schedule (0 unpaced).
    max_send_lag_ms: float = 0.0

    @property
    def requests_per_second(self) -> float:
        if self.duration_seconds <= 0:
            return 0.0
        return self.requests / self.duration_seconds

    def timeline_summary(self) -> list[dict]:
        """Render the raw timeline bins into a plotting-friendly list."""
        if not self.timeline or not self.timeline_interval:
            return []
        out = []
        for bin_ in sorted(self.timeline, key=lambda b: b["index"]):
            hist = LatencyHistogram.from_state_dict(bin_["histogram"])
            out.append(
                {
                    "t": bin_["index"] * self.timeline_interval,
                    "requests": bin_["requests"],
                    "errors": bin_["errors"],
                    "requests_per_second": bin_["requests"] / self.timeline_interval,
                    "p50_ms": hist.percentile(0.50) * 1e3,
                    "p99_ms": hist.percentile(0.99) * 1e3,
                }
            )
        return out

    def writer_batching(self) -> dict | None:
        """The daemon's effective writer-batch-size histogram, if polled.

        Extracted from the final ``stats`` snapshot: the actor counts
        every fast-path ingest batch it executes in the labeled counter
        ``ingest_batch_jobs{jobs=...}`` (power-of-two size buckets), so
        this reports what coalescing *actually* achieved server-side —
        which client-side knobs like ``ingest_batch`` only influence.
        Returns ``None`` when final stats were not fetched or the daemon
        predates the counter.
        """
        if not self.final_stats:
            return None
        server = self.final_stats.get("server") or {}
        counters = server.get("counters") or {}
        prefix = 'ingest_batch_jobs{jobs="'
        buckets = {
            key[len(prefix) : -2]: count
            for key, count in counters.items()
            if key.startswith(prefix)
        }
        if not buckets:
            return None

        def lower_edge(label: str) -> int:
            return int(label.rstrip("+").split("-")[0])

        batches = counters.get("ingest_batches", 0)
        latency = server.get("latency") or {}
        ingests = (latency.get("op.ingest") or {}).get("count", 0)
        return {
            "batches": batches,
            "ingest_requests": ingests,
            "mean_jobs_per_batch": (ingests / batches) if batches else None,
            "batch_size_histogram": {
                label: buckets[label]
                for label in sorted(buckets, key=lower_edge)
            },
        }

    def as_dict(self) -> dict:
        payload = {
            "jobs": self.jobs,
            "requests": self.requests,
            "errors": self.errors,
            "duration_seconds": self.duration_seconds,
            "requests_per_second": self.requests_per_second,
            "max_send_lag_ms": self.max_send_lag_ms,
            "latencies_ms": self.latencies_ms,
        }
        if self.timeline:
            payload["timeline_interval"] = self.timeline_interval
            payload["timeline"] = self.timeline_summary()
        batching = self.writer_batching()
        if batching is not None:
            payload["writer_batching"] = batching
        return payload

    def render(self) -> str:
        lines = [
            f"jobs={self.jobs} requests={self.requests} errors={self.errors}",
            f"duration={self.duration_seconds:.2f}s "
            f"throughput={self.requests_per_second:.0f} req/s",
        ]
        for op, stats in sorted(self.latencies_ms.items()):
            lines.append(
                f"  {op}: p50={stats['p50']:.2f}ms p90={stats['p90']:.2f}ms "
                f"p99={stats['p99']:.2f}ms max={stats['max']:.2f}ms"
            )
        return "\n".join(lines)


def _summarize(samples: list[float]) -> dict:
    arr = np.asarray(samples, dtype=np.float64) * 1e3
    return {
        "count": len(arr),
        "mean": float(arr.mean()),
        "p50": float(np.percentile(arr, 50)),
        "p90": float(np.percentile(arr, 90)),
        "p99": float(np.percentile(arr, 99)),
        "max": float(arr.max()),
    }


def _histogram_state(samples: list[float]) -> dict:
    hist = LatencyHistogram()
    for value in samples:
        hist.record(value)
    return hist.state_dict()


def _summarize_histogram(hist: LatencyHistogram) -> dict:
    return {
        "count": hist.count,
        "mean": hist.mean * 1e3,
        "p50": hist.percentile(0.50) * 1e3,
        "p90": hist.percentile(0.90) * 1e3,
        "p99": hist.percentile(0.99) * 1e3,
        "max": hist.max * 1e3,
    }


def merge_reports(reports: list["LoadReport"]) -> "LoadReport":
    """Fold reports from parallel generator processes into one.

    Counts sum; the duration is the slowest process's wall time (they
    start together, so that is the aggregate wall time); latency
    percentiles come from bucket-exact histogram merges rather than
    averaging the children's percentiles.
    """
    if not reports:
        raise ValueError("no reports to merge")
    hists: dict[str, LatencyHistogram] = {}
    for report in reports:
        for op, state in report.histograms.items():
            incoming = LatencyHistogram.from_state_dict(state)
            into = hists.get(op)
            if into is None:
                hists[op] = incoming
            else:
                into.merge(incoming)
    # Timeline bins align by index (children start together), so the
    # trajectory merges the same way the totals do: counts sum, per-bin
    # histograms merge bucket-exactly.
    bins: dict[int, dict] = {}
    timeline_interval = next(
        (r.timeline_interval for r in reports if r.timeline_interval), None
    )
    for report in reports:
        for bin_ in report.timeline:
            into = bins.get(bin_["index"])
            if into is None:
                bins[bin_["index"]] = {
                    "index": bin_["index"],
                    "requests": bin_["requests"],
                    "errors": bin_["errors"],
                    "histogram": bin_["histogram"],
                }
            else:
                into["requests"] += bin_["requests"]
                into["errors"] += bin_["errors"]
                into["histogram"] = (
                    LatencyHistogram.from_state_dict(into["histogram"])
                    .merge(LatencyHistogram.from_state_dict(bin_["histogram"]))
                    .state_dict()
                )
    return LoadReport(
        jobs=sum(r.jobs for r in reports),
        requests=sum(r.requests for r in reports),
        errors=sum(r.errors for r in reports),
        duration_seconds=max(r.duration_seconds for r in reports),
        latencies_ms={
            op: _summarize_histogram(hist) for op, hist in hists.items()
        },
        histograms={op: hist.state_dict() for op, hist in hists.items()},
        timeline=[bins[i] for i in sorted(bins)],
        timeline_interval=timeline_interval,
        max_send_lag_ms=max(r.max_send_lag_ms for r in reports),
    )


async def run_load(
    host: str,
    port: int,
    jobs: list[dict],
    *,
    connections: int = 4,
    target_rate: float | None = None,
    offsets: list[float] | None = None,
    advise_every: int = 0,
    pipeline_depth: int = 1,
    ingest_batch: int = 1,
    fetch_final_stats: bool = True,
    rid_prefix: str | None = None,
    progress_every: int = 0,
    timeline_interval: float | None = None,
) -> LoadReport:
    """Replay ``jobs`` against a running server; see module docstring.

    Parameters
    ----------
    connections:
        Parallel client connections (jobs are split round-robin).
    target_rate:
        Aggregate ingest requests per second (None = as fast as possible).
    offsets:
        Absolute per-job send offsets in seconds from run start (one per
        job) — open-loop pacing on an arbitrary schedule instead of a
        constant rate.  This is how trace/scenario time maps linearly
        onto wall clock (a flash crowd at trace fraction 0.6 hits the
        daemon at 60% of the run).  Overrides ``target_rate``.
    advise_every:
        When > 0, every k-th job first asks for an ``advise`` plan —
        modelling a data-management middleware that consults the service
        before scheduling the job's transfers.
    pipeline_depth:
        Jobs kept in flight per connection before reading responses
        (1 = classic request/response).  Keep below the server's
        per-connection backpressure window (128 by default).
    ingest_batch:
        When > 1, flush jobs in groups of this size with the group's
        advises sent *before* its ingests, so the ingests land
        back-to-back in the daemon's writer inbox and coalesce into one
        kernel call per group.  Mutually exclusive with
        ``pipeline_depth > 1`` (it implies pipelined sending at this
        depth).
    fetch_final_stats:
        Issue one final ``stats`` query and attach it to the report.
    rid_prefix:
        When set, every request carries a tracing rid
        ``<prefix>-<job index>`` so client load shows up in the server's
        spans and slow-op log lines with chase-able identities.
    progress_every:
        When > 0, emit a structured ``loadgen-progress`` log record
        every that many completed jobs (aggregate across connections).
    timeline_interval:
        When set, bucket completions into bins of this many seconds and
        attach the per-interval trajectory (throughput, errors, latency
        histogram) to the report — see :meth:`LoadReport.timeline_summary`.
    """
    if connections < 1:
        raise ValueError(f"connections must be >= 1, got {connections}")
    if pipeline_depth < 1:
        raise ValueError(f"pipeline_depth must be >= 1, got {pipeline_depth}")
    if ingest_batch < 1:
        raise ValueError(f"ingest_batch must be >= 1, got {ingest_batch}")
    if ingest_batch > 1 and pipeline_depth > 1:
        raise ValueError(
            "ingest_batch and pipeline_depth are mutually exclusive "
            "(ingest_batch implies pipelined sending at its own depth)"
        )
    if not jobs:
        raise ValueError("no jobs to replay")
    if offsets is not None and len(offsets) != len(jobs):
        raise ValueError(
            f"offsets length {len(offsets)} != jobs length {len(jobs)}"
        )

    samples: dict[str, list[float]] = {"ingest": [], "advise": []}
    errors = 0
    jobs_done = 0
    max_lag = 0.0
    timeline_bins: dict[int, dict] = {}
    start = time.perf_counter()

    def note_timeline(latency_s: float | None, ok: bool) -> None:
        if timeline_interval is None:
            return
        index = int((time.perf_counter() - start) / timeline_interval)
        bin_ = timeline_bins.get(index)
        if bin_ is None:
            bin_ = timeline_bins[index] = {
                "index": index,
                "requests": 0,
                "errors": 0,
                "hist": LatencyHistogram(),
            }
        bin_["requests"] += 1
        if not ok:
            bin_["errors"] += 1
        if latency_s is not None:
            bin_["hist"].record(latency_s)

    async def send_due(k: int) -> float | None:
        """Wait for job ``k``'s scheduled send; return when it was due
        (``None`` when unpaced), noting how late the generator is."""
        nonlocal max_lag
        if offsets is not None:
            due = start + offsets[k]
        elif target_rate is not None:
            due = start + k / target_rate
        else:
            return None
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        max_lag = max(max_lag, time.perf_counter() - due)
        return due

    def note_progress(batch: int) -> None:
        nonlocal jobs_done
        before = jobs_done
        jobs_done += batch
        if progress_every and jobs_done // progress_every != before // progress_every:
            elapsed = time.perf_counter() - start
            slog.info(
                "loadgen-progress",
                jobs=jobs_done,
                total=len(jobs),
                errors=errors,
                elapsed_s=round(elapsed, 2),
                jobs_per_s=round(jobs_done / elapsed, 1) if elapsed > 0 else 0.0,
            )

    async def worker_serial(client: AsyncServiceClient, worker_id: int) -> int:
        nonlocal errors
        sent = 0
        for k in range(worker_id, len(jobs), connections):
            # The job's first request is timed from its due time; one
            # that follows it is due when the previous reply arrives.
            due = await send_due(k)
            job = jobs[k]
            rid = f"{rid_prefix}-{k}" if rid_prefix else None
            if advise_every and k % advise_every == 0:
                t0 = time.perf_counter() if due is None else due
                due = None
                try:
                    await client.advise(
                        job["files"], site=job.get("site", 0), rid=rid
                    )
                    latency = time.perf_counter() - t0
                    samples["advise"].append(latency)
                    note_timeline(latency, True)
                except ServiceError:
                    errors += 1
                    note_timeline(None, False)
                sent += 1
            t0 = time.perf_counter() if due is None else due
            try:
                await client.ingest(
                    job["files"],
                    sizes=job.get("sizes"),
                    site=job.get("site", 0),
                    rid=rid,
                )
                latency = time.perf_counter() - t0
                samples["ingest"].append(latency)
                note_timeline(latency, True)
            except ServiceError:
                errors += 1
                note_timeline(None, False)
            sent += 1
            note_progress(1)
        return sent

    def _job_fields(k: int) -> dict:
        job = jobs[k]
        fields = {"site": job.get("site", 0)}
        if rid_prefix:
            fields["rid"] = f"{rid_prefix}-{k}"
        return fields

    async def worker_pipelined(
        client: AsyncServiceClient,
        worker_id: int,
        depth: int,
        group_ingests: bool,
    ) -> int:
        nonlocal errors
        sent = 0
        indices = range(worker_id, len(jobs), connections)
        for batch_start in range(0, len(indices), depth):
            batch = indices[batch_start : batch_start + depth]
            due = await send_due(batch[0])
            in_flight: list[tuple[str, int]] = []
            if group_ingests:
                # Advises first, then the ingests back-to-back: the
                # actor sees an unbroken ingest run it can coalesce.
                for k in batch:
                    if advise_every and k % advise_every == 0:
                        in_flight.append(
                            (
                                "advise",
                                client.send_nowait(
                                    "advise",
                                    files=jobs[k]["files"],
                                    **_job_fields(k),
                                ),
                            )
                        )
                for k in batch:
                    in_flight.append(
                        (
                            "ingest",
                            client.send_nowait(
                                "ingest",
                                files=jobs[k]["files"],
                                sizes=jobs[k].get("sizes"),
                                **_job_fields(k),
                            ),
                        )
                    )
            else:
                for k in batch:
                    fields = _job_fields(k)
                    if advise_every and k % advise_every == 0:
                        in_flight.append(
                            (
                                "advise",
                                client.send_nowait(
                                    "advise", files=jobs[k]["files"], **fields
                                ),
                            )
                        )
                    in_flight.append(
                        (
                            "ingest",
                            client.send_nowait(
                                "ingest",
                                files=jobs[k]["files"],
                                sizes=jobs[k].get("sizes"),
                                **fields,
                            ),
                        )
                    )
            t0 = time.perf_counter() if due is None else due
            await client.flush()
            for op, request_id in in_flight:
                try:
                    await client.read_response(request_id)
                    latency = time.perf_counter() - t0
                    samples[op].append(latency)
                    note_timeline(latency, True)
                except ServiceError:
                    errors += 1
                    note_timeline(None, False)
                sent += 1
            note_progress(len(batch))
        return sent

    async def worker(worker_id: int) -> int:
        client = await AsyncServiceClient.connect(host, port)
        try:
            if ingest_batch > 1:
                return await worker_pipelined(
                    client, worker_id, ingest_batch, True
                )
            if pipeline_depth > 1:
                return await worker_pipelined(
                    client, worker_id, pipeline_depth, False
                )
            return await worker_serial(client, worker_id)
        finally:
            await client.close()

    sent_counts = await asyncio.gather(
        *(worker(i) for i in range(min(connections, len(jobs))))
    )
    duration = time.perf_counter() - start

    final_stats = None
    if fetch_final_stats:
        async with await AsyncServiceClient.connect(host, port) as client:
            final_stats = await client.stats()

    return LoadReport(
        jobs=len(jobs),
        requests=int(sum(sent_counts)),
        errors=errors,
        duration_seconds=duration,
        latencies_ms={
            op: _summarize(vals) for op, vals in samples.items() if vals
        },
        final_stats=final_stats,
        histograms={
            op: _histogram_state(vals) for op, vals in samples.items() if vals
        },
        timeline=[
            {
                "index": bin_["index"],
                "requests": bin_["requests"],
                "errors": bin_["errors"],
                "histogram": bin_["hist"].state_dict(),
            }
            for index, bin_ in sorted(timeline_bins.items())
        ],
        timeline_interval=timeline_interval,
        max_send_lag_ms=max_lag * 1e3,
    )


def run_load_sync(host: str, port: int, jobs: list[dict], **kwargs) -> LoadReport:
    """Blocking wrapper around :func:`run_load` (used by the CLI)."""
    return asyncio.run(run_load(host, port, jobs, **kwargs))


def _replay_slice(host: str, port: int, jobs: list[dict], kwargs: dict) -> dict:
    """Child-process body of :func:`run_load_procs` (top level: picklable)."""
    report = asyncio.run(
        run_load(host, port, jobs, fetch_final_stats=False, **kwargs)
    )
    return {
        "jobs": report.jobs,
        "requests": report.requests,
        "errors": report.errors,
        "duration_seconds": report.duration_seconds,
        "histograms": report.histograms,
        "timeline": report.timeline,
        "timeline_interval": report.timeline_interval,
        "max_send_lag_ms": report.max_send_lag_ms,
    }


def run_load_procs(
    host: str,
    port: int,
    jobs: list[dict],
    *,
    procs: int = 2,
    target_rate: float | None = None,
    fetch_final_stats: bool = True,
    **kwargs,
) -> LoadReport:
    """Multi-process open-loop generation: ``procs`` forked generators.

    Each child replays a strided slice of ``jobs`` (slice ``i`` is
    ``jobs[i::procs]``) through its own event loop and connections, so
    one Python process's CPU is never the ceiling on offered load.  The
    target rate is divided evenly across children; per-op latency
    histograms merge bucket-exactly into the returned report.

    Requires the ``fork`` start method (POSIX) — same constraint as
    :mod:`repro.parallel`.
    """
    if procs < 1:
        raise ValueError(f"procs must be >= 1, got {procs}")
    if procs == 1:
        return run_load_sync(
            host,
            port,
            jobs,
            target_rate=target_rate,
            fetch_final_stats=fetch_final_stats,
            **kwargs,
        )
    if not jobs:
        raise ValueError("no jobs to replay")
    procs = min(procs, len(jobs))
    if "fork" not in multiprocessing.get_all_start_methods():
        raise RuntimeError(
            "multi-process load generation needs the 'fork' start method; "
            "use procs=1 on this platform"
        )
    child_kwargs = dict(kwargs)
    child_kwargs["target_rate"] = (
        target_rate / procs if target_rate is not None else None
    )
    offsets = child_kwargs.pop("offsets", None)
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(procs) as pool:
        results = pool.starmap(
            _replay_slice,
            [
                (
                    host,
                    port,
                    jobs[i::procs],
                    # Offsets are absolute send times, so the strided
                    # slice keeps each child on the global schedule.
                    dict(child_kwargs, offsets=offsets[i::procs])
                    if offsets is not None
                    else child_kwargs,
                )
                for i in range(procs)
            ],
        )
    merged = merge_reports(
        [
            LoadReport(
                jobs=r["jobs"],
                requests=r["requests"],
                errors=r["errors"],
                duration_seconds=r["duration_seconds"],
                histograms=r["histograms"],
                timeline=r.get("timeline", []),
                timeline_interval=r.get("timeline_interval"),
                max_send_lag_ms=r["max_send_lag_ms"],
            )
            for r in results
        ]
    )
    if fetch_final_stats:
        with ServiceClient(host, port) as client:
            merged.final_stats = client.stats()
    return merged
