"""Windowed ingest, end to end: state window, actor runs, loadgen knob.

The contract under test: every ingest is a window through
``ServiceState.ingest_batch`` (``ingest`` is a window of one job), and
any window split returns the *same receipts* and leaves the *same
state* — the partition, per-site advisor caches and metrics — as an
independent reference built only from reference parts: per-job
``observe_job`` and the registry's per-access policies.  On top of it,
the server actor's runs keep per-request answers, and the observability
layer faithfully reports what grouping achieved (batch counters, size
histogram, per-request latency accounting).
"""

import asyncio
import json
import math

import pytest

from repro import registry
from repro.cache.base import BYPASS_CODE, HIT_CODE, CacheMetrics
from repro.core.incremental import IncrementalFileculeIdentifier
from repro.service import (
    AsyncServiceClient,
    FileculeServer,
    ServiceState,
    run_load,
)
from repro.service.loadgen import jobs_from_trace
from repro.service.protocol import encode_request
from repro.service.server import _batch_bucket
from repro.service.state import partition_checksum
from repro.util.units import TB

#: An adversarial little stream: duplicates, unsorted segments, empty
#: jobs, missing sizes, a size refinement (file 3 shrinks), three sites.
JOBS = [
    ([5, 3, 5, 2], [10, 20, 10, 30], 0),
    ([], None, 1),
    ([2, 3], [30, 25], 1),
    ([7, 8, 9, 1], None, 0),
    ([1, 2, 3, 4, 5], [5, 5, 5, 5, 5], 2),
    ([4, 6], [5, 40], 0),
    ([9, 7], [2, 2], 0),
    ([6, 4, 6], None, 2),
]


class ReferenceService:
    """What the service must compute, from reference parts only.

    ``observe_job`` gives the partition and the receipts; a
    registry-built policy per site, told each job's de-duplicated files
    with ``begin_job`` and then fed them one request at a time at clock
    ``i + 1`` (job ``i`` of the stream), gives the site stats.
    ``stats`` has the keys ``state_fingerprint`` reads.
    """

    def __init__(
        self,
        policy="lru",
        capacity_bytes=1 * TB,
        default_size=1,
        decay_half_life=math.inf,
    ):
        self.policy = policy
        self.capacity_bytes = capacity_bytes
        self.default_size = default_size
        self.ident = IncrementalFileculeIdentifier(half_life=decay_half_life)
        self.sizes = {}
        self.sites = {}

    def ingest(self, files, sizes=None, site=0):
        if sizes is not None:
            self.sizes.update(zip(files, sizes))
        clock = self.ident.n_jobs_observed + 1.0
        self.ident.observe_job(files, now=clock)
        if site not in self.sites:
            self.sites[site] = (
                registry.build(self.policy, self.capacity_bytes),
                CacheMetrics(
                    name=f"{self.policy}@site{site}",
                    capacity_bytes=self.capacity_bytes,
                ),
            )
        cache, metrics = self.sites[site]
        hits = 0
        unique = list(dict.fromkeys(files))
        cache.begin_job(unique, clock)
        for f in unique:
            size = self.sizes.get(f, self.default_size)
            code = cache.request(f, size, clock)
            hit = code == HIT_CODE
            bypassed = code == BYPASS_CODE
            # A miss fetches what it admitted, a bypass its own size.
            fetched = size if bypassed else 0 if hit else code
            metrics.record_totals(1, hit, size, size * hit, fetched, bypassed)
            hits += hit
        return {
            "job_seq": self.ident.n_jobs_observed,
            "n_files": self.ident.n_files_observed,
            "n_classes": self.ident.n_classes,
            "site_hits": hits,
        }

    def stats(self):
        return {
            "partition_checksum": partition_checksum(self.ident.classes()),
            "jobs_observed": self.ident.n_jobs_observed,
            "n_classes": self.ident.n_classes,
            "sites": {
                str(site): {
                    "policy": metrics.name,
                    "requests": metrics.requests,
                    "hits": metrics.hits,
                    "hit_rate": metrics.hit_rate,
                    "byte_miss_rate": metrics.byte_miss_rate,
                    "used_bytes": cache.used_bytes,
                }
                for site, (cache, metrics) in sorted(self.sites.items())
            },
        }


def state_fingerprint(state):
    stats = state.stats()
    return (
        stats["partition_checksum"],
        stats["jobs_observed"],
        stats["n_classes"],
        stats["sites"],
    )


def replay_sequential(jobs, **kwargs):
    ref = ReferenceService(capacity_bytes=64, **kwargs)
    return ref, [ref.ingest(f, s, site) for f, s, site in jobs]


class TestStateIngestBatch:
    @pytest.mark.parametrize("window", [1, 3, len(JOBS)])
    def test_matches_sequential(self, window):
        ref, want = replay_sequential(JOBS)
        state = ServiceState(capacity_bytes=64)
        got = []
        for i in range(0, len(JOBS), window):
            got.extend(state.ingest_batch(JOBS[i : i + window]))
        assert got == want
        assert state_fingerprint(state) == state_fingerprint(ref)

    def test_matches_sequential_with_decay(self):
        ref, want = replay_sequential(JOBS, decay_half_life=3.0)
        state = ServiceState(capacity_bytes=64, decay_half_life=3.0)
        got = state.ingest_batch(JOBS)
        assert got == want
        assert state_fingerprint(state) == state_fingerprint(ref)

    def test_matches_sequential_without_kernel(self):
        # Advisors without a residency loop take the base class's
        # per-access request_window inside ingest_batch; the receipts
        # must not change.
        for policy in ("gds", "file-bundle", "arc"):
            ref, want = replay_sequential(JOBS, policy=policy)
            state = ServiceState(policy=policy, capacity_bytes=64)
            assert state.ingest_batch(JOBS) == want, policy
            assert state_fingerprint(state) == state_fingerprint(ref), policy

    @pytest.mark.parametrize("fraction", [0.05, 0.2, 0.5])
    @pytest.mark.parametrize(
        "policy", ["lru", "file-fifo", "gds", "file-bundle", "arc"]
    )
    def test_windowed_advisor_matches_reference_on_stream(
        self, small_trace, policy, fraction
    ):
        # 64-job windows of a generated stream — the residency loop for
        # lru/file-fifo, the base class's per-access window for the
        # rest — against the registry's policies fed job by job.
        jobs = [
            (job["files"], job["sizes"], job["site"])
            for job in jobs_from_trace(small_trace)
        ]
        capacity = int(fraction * int(small_trace.file_sizes.sum()))
        ref = ReferenceService(policy=policy, capacity_bytes=capacity)
        want = [ref.ingest(*job) for job in jobs]
        state = ServiceState(policy=policy, capacity_bytes=capacity)
        got = []
        for i in range(0, len(jobs), 64):
            got.extend(state.ingest_batch(jobs[i : i + 64]))
        assert got == want
        assert state_fingerprint(state) == state_fingerprint(ref)

    def test_empty_batch(self):
        assert ServiceState().ingest_batch([]) == []

    def test_file_id_beyond_int64_with_bundle_advisor(self):
        # The bundle advisor keys a job's input set by its ids; an id
        # past int64 must not fail the ingest after the partition took it.
        jobs = [([2**63, 7], [1, 1], 0), ([7, 2**63], [1, 1], 0)] * 2
        ref = ReferenceService(policy="file-bundle")
        want = [ref.ingest(*job) for job in jobs]
        state = ServiceState(policy="file-bundle")
        assert state.ingest_batch(jobs) == want
        assert state_fingerprint(state) == state_fingerprint(ref)

    def test_file_id_beyond_any_dense_table(self):
        # File ids are keys, not indices: an id of 2**40 costs one entry
        # (a table sized by the largest id would need 8 TiB).
        jobs = [([2**40, 7], [1, 1], 0), ([7], [1], 0)]
        ref = ReferenceService()
        want = [ref.ingest(*job) for job in jobs]
        state = ServiceState()
        assert state.ingest_batch(jobs) == want
        assert state_fingerprint(state) == state_fingerprint(ref)


class TestBatchBucket:
    def test_power_of_two_buckets(self):
        assert [_batch_bucket(n) for n in (1, 2, 3, 4, 5, 8, 9, 64, 65)] == [
            "1", "2", "3-4", "3-4", "5-8", "5-8", "9-16", "33-64", "65+",
        ]


def run(coro):
    return asyncio.run(coro)


async def _serve(state=None, **kwargs):
    server = FileculeServer(
        state if state is not None else ServiceState(),
        log_interval=None,
        **kwargs,
    )
    await server.start()
    return server


def loadgen_jobs():
    return [
        {"files": files, "sizes": sizes, "site": site}
        for files, sizes, site in JOBS * 6
    ]


class TestServerCoalescing:
    def test_coalesced_run_matches_per_job_server(self):
        async def scenario(ingest_batch):
            state = ServiceState(capacity_bytes=64)
            server = await _serve(state)
            try:
                report = await run_load(
                    "127.0.0.1",
                    server.port,
                    loadgen_jobs(),
                    connections=1,
                    ingest_batch=ingest_batch,
                )
                snapshot = server.metrics.snapshot()
            finally:
                await server.stop()
            assert report.errors == 0
            return state_fingerprint(state), report, snapshot

        # Closed loop (one request in flight) gives runs of one job;
        # groups of 8 queue together and run as longer windows.
        base_fp, base_report, base_snap = run(scenario(1))
        coal_fp, coal_report, coal_snap = run(scenario(8))
        # Same single-connection arrival order: everything the daemon
        # models — partition AND per-site cache advisors — must match.
        assert coal_fp == base_fp
        # The actor really coalesced: fewer batches than requests, and
        # the latency histogram still counts one sample per request.
        n = len(loadgen_jobs())
        assert coal_snap["counters"]["ingest_batches"] < n
        assert base_snap["counters"]["ingest_batches"] == n
        assert coal_snap["latency"]["op.ingest"]["count"] == n
        batching = coal_report.writer_batching()
        assert batching is not None
        assert batching["mean_jobs_per_batch"] > 1
        assert sum(
            count * (int(label.rstrip("+").split("-")[0]))
            for label, count in batching["batch_size_histogram"].items()
        ) <= n
        assert coal_report.as_dict()["writer_batching"] == batching

    def test_interleaved_read_breaks_run_and_sees_prior_ingests(self):
        async def scenario(server):
            async with await AsyncServiceClient.connect(
                "127.0.0.1", server.port
            ) as client:
                results = await client.pipeline(
                    [
                        ("ingest", {"files": [1, 2]}),
                        ("ingest", {"files": [3, 4]}),
                        ("stats", {}),
                        ("ingest", {"files": [5]}),
                        ("stats", {}),
                    ]
                )
            # The mid-pipeline stats must observe exactly the two
            # ingests queued before it — coalescing may not reorder a
            # read past the writes behind it.
            assert results[0]["job_seq"] == 1
            assert results[1]["job_seq"] == 2
            assert results[2]["jobs_observed"] == 2
            assert results[3]["job_seq"] == 3
            assert results[4]["jobs_observed"] == 3
            return None

        run(_with_coalescing_server(scenario))

    def test_pipelined_large_file_ids_answer_ok(self):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                # One write: the two ingests queue together and run as
                # one window.
                writer.write(
                    encode_request("ingest", 1, files=[2**40, 7], sizes=[1, 1])
                    + encode_request("ingest", 2, files=[7], sizes=[1])
                )
                await writer.drain()
                responses = [json.loads(await reader.readline()) for _ in "12"]
            finally:
                writer.close()
                await writer.wait_closed()
            assert [r["id"] for r in responses] == [1, 2]
            assert [r["ok"] for r in responses] == [True, True]
            assert [r["result"]["job_seq"] for r in responses] == [1, 2]
            return None

        run(_with_coalescing_server(scenario))

    def test_mixed_ops_with_rids_take_slow_path_but_agree(self):
        async def scenario(server):
            async with await AsyncServiceClient.connect(
                "127.0.0.1", server.port
            ) as client:
                first = await client.request(
                    "ingest", files=[1, 2, 3], rid="tagged-1"
                )
                rest = await client.pipeline(
                    [
                        ("ingest", {"files": [2, 3]}),
                        ("ingest", {"files": [4]}),
                    ]
                )
            assert first["job_seq"] == 1
            assert [r["job_seq"] for r in rest] == [2, 3]
            return None

        run(_with_coalescing_server(scenario))


async def _with_coalescing_server(fn):
    server = await _serve()
    try:
        return await fn(server)
    finally:
        await server.stop()


class TestLoadgenKnob:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="ingest_batch"):
            run(run_load("127.0.0.1", 1, [], ingest_batch=0))
        with pytest.raises(ValueError, match="mutually exclusive"):
            run(
                run_load(
                    "127.0.0.1", 1, [], ingest_batch=4, pipeline_depth=4
                )
            )

    def test_writer_batching_none_without_final_stats(self):
        async def scenario(server):
            return await run_load(
                "127.0.0.1",
                server.port,
                loadgen_jobs()[:8],
                connections=1,
                fetch_final_stats=False,
            )

        report = run(_with_coalescing_server(scenario))
        assert report.writer_batching() is None
        assert "writer_batching" not in report.as_dict()
