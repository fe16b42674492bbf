"""Coalesced ingest, end to end: state kernel, actor runs, loadgen knob.

The contract under test: a window of ingest requests processed through
``ServiceState.ingest_batch`` (and the server actor's coalescing on top
of it) returns the *same receipts* and leaves the *same state* — the
partition, size catalog, per-site advisor caches and metrics — as the
per-job path, while the observability layer faithfully reports what
coalescing actually achieved (batch counters, size histogram, per-request
latency accounting).
"""

import asyncio

import pytest

from repro.service import (
    AsyncServiceClient,
    FileculeServer,
    ServiceState,
    run_load,
)
from repro.service.loadgen import jobs_from_trace
from repro.service.server import _batch_bucket

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


def state_fingerprint(state):
    stats = state.stats()
    return (
        stats["partition_checksum"],
        stats["jobs_observed"],
        stats["n_classes"],
        stats["sites"],
    )


def replay_sequential(jobs, **kwargs):
    state = ServiceState(capacity_bytes=64, **kwargs)
    return state, [state.ingest(f, s, site) for f, s, site in jobs]


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
        # ingest_kernel=False advisors take the per-access fallback
        # inside ingest_batch; the receipts must not change.
        ref, want = replay_sequential(JOBS)
        state = ServiceState(capacity_bytes=64, ingest_kernel=False)
        assert state.ingest_batch(JOBS) == want
        assert state_fingerprint(state) == state_fingerprint(ref)

    @pytest.mark.parametrize("fraction", [0.05, 0.2, 0.5])
    @pytest.mark.parametrize("policy", ["lru", "file-fifo"])
    def test_windowed_advisor_matches_reference_on_stream(
        self, small_trace, policy, fraction
    ):
        # The windowed advisor, fed 64-job windows of a generated
        # stream, against the registry's FileLRU/FileFIFO fed job by job.
        jobs = [
            (job["files"], job["sizes"], job["site"])
            for job in jobs_from_trace(small_trace)
        ]
        capacity = int(fraction * int(small_trace.file_sizes.sum()))
        ref = ServiceState(
            policy=policy, capacity_bytes=capacity, ingest_kernel=False
        )
        want = [ref.ingest(*job) for job in jobs]
        state = ServiceState(policy=policy, capacity_bytes=capacity)
        got = []
        for i in range(0, len(jobs), 64):
            got.extend(state.ingest_batch(jobs[i : i + 64]))
        assert got == want
        assert state_fingerprint(state) == state_fingerprint(ref)

    def test_empty_batch(self):
        assert ServiceState().ingest_batch([]) == []


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
        async def scenario(coalesce, ingest_batch):
            state = ServiceState(capacity_bytes=64)
            server = await _serve(state, coalesce_ingest=coalesce)
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

        base_fp, base_report, base_snap = run(scenario(False, 1))
        coal_fp, coal_report, coal_snap = run(scenario(True, 8))
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
    server = await _serve(coalesce_ingest=True)
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
