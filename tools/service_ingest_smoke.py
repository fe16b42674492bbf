#!/usr/bin/env python
"""Service ingest smoke check: a paper-tier slice through a live daemon.

CI runs this (the ``service-ingest-smoke`` job) to catch write-path
regressions where they matter — the online service ingesting the
paper-scale workload — without paying for the full service benchmark.
It:

1. obtains the ``paper``-tier trace through the on-disk trace store
   (CI keeps no trace cache, so there it generates the trace, in about
   a second);
2. replays the first ``SLICE_JOBS`` jobs as an ingest-only stream over
   one pipelined connection against a live single-worker
   :class:`~repro.service.server.FileculeServer` (the default stack:
   the actor hands each run of queued ingests to one
   ``observe_jobs_batch`` call plus one
   ``BatchedFileCache.request_window`` per site, which replays each
   job on the residency loop the offline batch kernel shares);
3. gates ingest throughput against the floor below, and checks the
   actor actually coalesced (mean writer batch well above one job);
4. requires the served partition checksum to equal offline
   :func:`~repro.core.identify.find_filecules` over the slice's jobs
   (``trace.subset_jobs``), and the per-site advisor statistics to
   equal a replay of the slice through the reference advisor: one
   ``FileLRU`` per site, fed its jobs by the base class's per-access
   ``request_window``;
5. writes ``benchmarks/output/service_ingest_smoke.json`` with host
   info and per-phase timings.

Exit status is non-zero on any failed gate.  Run locally with::

    PYTHONPATH=src python tools/service_ingest_smoke.py
"""

from __future__ import annotations

import asyncio
import json
import socket
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.cache.base import BYPASS_CODE, HIT_CODE, CacheMetrics  # noqa: E402
from repro.cache.lru import FileLRU  # noqa: E402
from repro.core import find_filecules  # noqa: E402
from repro.service import FileculeServer, ServiceState, jobs_from_trace  # noqa: E402
from repro.service.protocol import encode_request  # noqa: E402
from repro.service.state import partition_checksum  # noqa: E402
from repro.util.host import host_info  # noqa: E402
from repro.workload import cached_trace, paper_config  # noqa: E402

SEED = 7
SLICE_JOBS = 20_000
PIPELINE_DEPTH = 100  # stay inside the server's backpressure window

#: Ingest throughput floor, jobs per second, single worker, one
#: pipelined connection.  The measured rate on a single 2020s CPU core
#: is ~5k jobs/s; the floor is loose enough for slow CI runners but
#: tight enough that losing the coalesced kernel path (or reintroducing
#: a quadratic in the refinement core) fails loudly.
MIN_JOBS_PER_S = 1_200

#: The actor must genuinely coalesce under a pipelined ingest stream.
MIN_MEAN_JOBS_PER_BATCH = 2.0

OUTPUT = REPO_ROOT / "benchmarks" / "output" / "service_ingest_smoke.json"


def _blast(port: int, lines: list[bytes]) -> float:
    """Pipelined single-connection replay; returns the duration."""
    sock = socket.create_connection(("127.0.0.1", port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    rfile = sock.makefile("rb")
    t0 = time.perf_counter()
    for i in range(0, len(lines), PIPELINE_DEPTH):
        chunk = lines[i : i + PIPELINE_DEPTH]
        sock.sendall(b"".join(chunk))
        for _ in chunk:
            rfile.readline()
    duration = time.perf_counter() - t0
    rfile.close()
    sock.close()
    return duration


async def _serve_slice(lines: list[bytes], capacity: int) -> tuple[dict, dict, float]:
    state = ServiceState(policy="lru", capacity_bytes=capacity)
    server = FileculeServer(state, log_interval=None)
    await server.start()
    try:
        duration = await asyncio.to_thread(_blast, server.port, lines)
        snapshot = server.metrics.snapshot()
    finally:
        await server.stop()
    return state.stats(), snapshot, duration


def _reference_sites(jobs: list[dict], capacity: int) -> dict:
    """``stats()["sites"]`` of the slice replayed through one ``FileLRU``
    per site: each job's deduplicated files, at the sizes the job
    carries and its stream clock, through the base class's
    ``request_window``, whose codes are folded here one access at a
    time."""
    windows: dict[int, tuple[list, list, list, list]] = {}
    for i, job in enumerate(jobs):
        flat, offsets, sizes, nows = windows.setdefault(
            job["site"], ([], [0], [], [])
        )
        sized = dict(zip(job["files"], job["sizes"]))
        flat += sized
        sizes += sized.values()
        offsets.append(len(flat))
        nows.append(i + 1.0)
    sites = {}
    for site, window in sorted(windows.items()):
        policy = FileLRU(capacity)
        metrics = CacheMetrics()
        for code, size in zip(policy.request_window(*window), window[2]):
            hit = code == HIT_CODE
            bypassed = code == BYPASS_CODE
            fetched = size if bypassed else 0 if hit else code
            metrics.record_totals(1, hit, size, size * hit, fetched, bypassed)
        sites[str(site)] = {
            "policy": f"lru@site{site}",
            "requests": metrics.requests,
            "hits": metrics.hits,
            "hit_rate": metrics.hit_rate,
            "byte_miss_rate": metrics.byte_miss_rate,
            "used_bytes": policy.used_bytes,
        }
    return sites


def main() -> int:
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    trace = cached_trace(paper_config(), seed=SEED, on_event=print)
    timings["trace_s"] = round(time.perf_counter() - t0, 3)

    t1 = time.perf_counter()
    jobs = jobs_from_trace(trace)[:SLICE_JOBS]
    capacity = max(1, int(trace.file_sizes.sum()) // 10)
    lines = [
        encode_request(
            "ingest", i, files=j["files"], sizes=j["sizes"], site=j["site"]
        )
        for i, j in enumerate(jobs)
    ]
    timings["encode_s"] = round(time.perf_counter() - t1, 3)

    t2 = time.perf_counter()
    stats, snapshot, duration = asyncio.run(_serve_slice(lines, capacity))
    timings["replay_s"] = round(time.perf_counter() - t2, 3)
    jobs_per_s = len(jobs) / duration
    batches = snapshot["counters"].get("ingest_batches", 0)
    mean_batch = len(jobs) / batches if batches else 0.0

    t3 = time.perf_counter()
    in_slice = np.arange(trace.n_jobs) < len(jobs)
    offline = partition_checksum(
        fc.file_ids.tolist() for fc in find_filecules(trace.subset_jobs(in_slice))
    )
    timings["offline_s"] = round(time.perf_counter() - t3, 3)

    t4 = time.perf_counter()
    ref_sites = _reference_sites(jobs, capacity)
    timings["reference_s"] = round(time.perf_counter() - t4, 3)

    failures = []
    if stats["jobs_observed"] != len(jobs):
        failures.append(
            f"served {stats['jobs_observed']} jobs, expected {len(jobs)}"
        )
    if stats["partition_checksum"] != offline:
        failures.append("served partition diverged from offline find_filecules")
    if stats["sites"] != ref_sites:
        failures.append(
            "advisor site statistics diverged from the FileLRU replay"
        )
    if jobs_per_s < MIN_JOBS_PER_S:
        failures.append(
            f"ingest throughput {jobs_per_s:,.0f} jobs/s "
            f"below floor {MIN_JOBS_PER_S:,}"
        )
    if mean_batch < MIN_MEAN_JOBS_PER_BATCH:
        failures.append(
            f"mean writer batch {mean_batch:.2f} jobs — actor not coalescing"
        )

    payload = {
        "smoke": "service-ingest",
        "seed": SEED,
        "host": host_info(),
        "slice_jobs": len(jobs),
        "slice_accesses": sum(len(j["files"]) for j in jobs),
        "capacity_bytes": capacity,
        "jobs_per_second": round(jobs_per_s, 2),
        "min_jobs_per_second": MIN_JOBS_PER_S,
        "writer_batches": batches,
        "mean_jobs_per_batch": round(mean_batch, 2),
        "partition_checksum": stats["partition_checksum"],
        "partition_checksum_matches_offline": stats["partition_checksum"]
        == offline,
        "n_classes": stats["n_classes"],
        "timings": timings,
        "failures": failures,
    }
    OUTPUT.parent.mkdir(parents=True, exist_ok=True)
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")

    print(
        f"service ingest smoke: {len(jobs)} jobs at {jobs_per_s:,.0f} jobs/s "
        f"(floor {MIN_JOBS_PER_S:,}), mean batch {mean_batch:.1f} jobs, "
        f"checksum {'ok' if payload['partition_checksum_matches_offline'] else 'DIVERGED'}"
    )
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
