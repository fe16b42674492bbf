"""Flight recorder end to end: history/spans ops, sampler task,
cluster-wide merging, paced loadgen timelines, and the CLI surfaces.

Same in-process daemon pattern as test_service_observability.py, plus
fork-gated cluster tests for :func:`aggregate_history` /
:func:`aggregate_spans` and a subprocess-free exercise of the
``repro-serve spans`` subcommand against a live server.
"""

import asyncio
import json
import multiprocessing
import os
import time
from unittest import mock

import pytest

from repro.service import (
    AsyncServiceClient,
    FileculeServer,
    ServiceClient,
    ServiceState,
    run_load,
)
from repro.service.loadgen import jobs_from_trace
from repro.workload.calibration import tiny_config
from repro.workload.generator import generate_trace

HAS_FORK = (
    os.name == "posix"
    and "fork" in multiprocessing.get_all_start_methods()
)


def run(coro):
    return asyncio.run(coro)


async def _with_server(fn, state=None, **server_kwargs):
    server = FileculeServer(state or ServiceState(), **server_kwargs)
    await server.start()
    try:
        return await fn(server)
    finally:
        await server.stop()


@pytest.fixture(scope="module")
def tiny_trace():
    return generate_trace(tiny_config(), seed=47)


class TestHistoryOp:
    def test_history_serves_series_and_health(self):
        async def scenario(server):
            async with await AsyncServiceClient.connect(
                "127.0.0.1", server.port
            ) as client:
                for batch in range(4):
                    await client.ingest(
                        [batch * 2, batch * 2 + 1], sizes=[10, 10], site=0
                    )
                    server.sample_once(now=batch * 60.0)
                payload = await client.request("history")
            assert payload["enabled"] is True
            assert payload["health"]["enabled"] is True
            names = {s["name"] for s in payload["series"]}
            assert "rate:requests" in names
            assert "gauge:jobs_observed" not in names  # cumulative -> rate
            assert "rate:jobs_observed" in names
            rates = next(
                s for s in payload["series"] if s["name"] == "rate:requests"
            )
            # 3 emitting samples after the baseline tick
            assert len(rates["points"]) == 3
            # the payload is a recorder state_dict superset
            from repro.obs.timeseries import TimeSeriesRecorder

            clone = TimeSeriesRecorder.from_state_dict(payload)
            assert clone.samples == payload["samples"] == 3

        run(_with_server(scenario, sample_interval=60.0, health=True))

    def test_last_caps_points_per_series(self):
        async def scenario(server):
            async with await AsyncServiceClient.connect(
                "127.0.0.1", server.port
            ) as client:
                for tick in range(8):
                    await client.ingest([tick], sizes=[5])
                    server.sample_once(now=tick * 60.0)
                capped = await client.request("history", last=2)
            assert all(len(s["points"]) <= 2 for s in capped["series"])

        run(_with_server(scenario, sample_interval=60.0))

    def test_sampler_task_ticks_on_its_own(self):
        async def scenario(server):
            async with await AsyncServiceClient.connect(
                "127.0.0.1", server.port
            ) as client:
                await client.ingest([1, 2], sizes=[10, 10])
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    payload = await client.request("history")
                    if payload["samples"] >= 2:
                        return payload
                    await asyncio.sleep(0.02)
                raise AssertionError("sampler task never ticked")

        payload = run(_with_server(scenario, sample_interval=0.05))
        assert payload["interval"] == 0.05

    def test_health_log_exported_on_stop(self, tmp_path):
        path = tmp_path / "health.jsonl"

        async def scenario(server):
            # Hand-feed an anomaly the hit-rate detector must flag.
            hit = server.recorder.series("derived:hit_rate", "mean")
            for t in range(12):
                hit.add(t * 60.0, 0.5, weight=100.0)
            for t in range(12, 18):
                hit.add(t * 60.0, 0.95, weight=100.0)
            assert server.health.observe()

        run(
            _with_server(
                scenario,
                sample_interval=60.0,
                health=True,
                health_log_path=str(path),
            )
        )
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records
        assert all(r["detector"] == "hit-rate-divergence" for r in records)


class TestSampleCost:
    def test_samples_and_scrapes_skip_the_partition_checksum(self, tiny_trace):
        """A sample and a metrics scrape publish the state's counts and
        per-site stats without hashing the partition: with the checksum
        made to fail they succeed and publish the same gauges."""
        state = ServiceState()
        for job in jobs_from_trace(tiny_trace)[:200]:
            state.ingest(job["files"], job["sizes"], job["site"])

        def publish():
            server = FileculeServer(state)
            server.sample_once(now=0.0)
            lines = server.expose_metrics().splitlines()
            untimed = [x for x in lines if not x.startswith("repro_uptime")]
            return server.metrics.snapshot()["gauges"], untimed

        want = publish()
        assert want[0]["jobs_observed"] == 200
        with mock.patch(
            "repro.service.state.partition_checksum",
            side_effect=AssertionError("partition hashed"),
        ):
            with pytest.raises(AssertionError, match="partition hashed"):
                state.stats()
            assert publish() == want


class TestSpansOp:
    def test_spans_ring_over_the_protocol(self):
        async def scenario(server):
            async with await AsyncServiceClient.connect(
                "127.0.0.1", server.port
            ) as client:
                for i in range(5):
                    await client.ingest([i], sizes=[5], rid=f"req-{i}")
                payload = await client.request("spans")
                assert payload["count"] >= 5
                names = {s["name"] for s in payload["spans"]}
                assert "op.ingest" in names
                rids = {s.get("rid") for s in payload["spans"]}
                assert "req-0" in rids and "req-4" in rids
                tail = await client.request("spans", last=2)
                assert tail["count"] == 2
                # newest spans, still time-ordered
                assert tail["spans"][0]["ts"] <= tail["spans"][-1]["ts"]

        run(_with_server(scenario))

    def test_bad_last_rejected(self):
        async def scenario(server):
            async with await AsyncServiceClient.connect(
                "127.0.0.1", server.port
            ) as client:
                from repro.service import ServiceError

                with pytest.raises(ServiceError):
                    await client.request("spans", last=0)
                with pytest.raises(ServiceError):
                    await client.request("history", last=-3)

        run(_with_server(scenario))


class TestLoadgenPacingAndTimeline:
    def test_offsets_pace_the_replay(self, tiny_trace):
        jobs = jobs_from_trace(tiny_trace)[:30]
        offsets = [i * 0.02 for i in range(len(jobs))]

        async def scenario(server):
            return await run_load(
                "127.0.0.1",
                server.port,
                jobs,
                connections=2,
                offsets=offsets,
                timeline_interval=0.1,
                fetch_final_stats=False,
            )

        report = run(_with_server(scenario))
        assert report.jobs == len(jobs)
        assert report.errors == 0
        # the schedule stretches the replay to ~the last offset
        assert report.duration_seconds >= offsets[-1]
        summary = report.timeline_summary()
        assert len(summary) >= 3
        assert sum(b["requests"] for b in summary) == report.requests
        assert all(b["p99_ms"] >= 0.0 for b in summary)
        assert [b["t"] for b in summary] == sorted(b["t"] for b in summary)

    def test_offsets_must_match_job_count(self, tiny_trace):
        jobs = jobs_from_trace(tiny_trace)[:5]

        async def scenario(server):
            with pytest.raises(ValueError, match="offsets"):
                await run_load(
                    "127.0.0.1", server.port, jobs, offsets=[0.0, 1.0]
                )

        run(_with_server(scenario))


class TestSpansSubcommand:
    def test_jsonl_to_stdout_and_file(self, tmp_path, capsys):
        from repro.service.__main__ import main as service_main

        server = FileculeServer(ServiceState(), port=0)

        async def run_against_live():
            await server.start()
            try:
                async with await AsyncServiceClient.connect(
                    "127.0.0.1", server.port
                ) as client:
                    for i in range(4):
                        await client.ingest([i], sizes=[5], rid=f"cli-{i}")
                out_path = tmp_path / "spans.jsonl"
                code = await asyncio.to_thread(
                    service_main,
                    [
                        "spans",
                        "--port",
                        str(server.port),
                        "--last",
                        "3",
                        "--out",
                        str(out_path),
                    ],
                )
                assert code == 0
                return [
                    json.loads(line)
                    for line in out_path.read_text().splitlines()
                ]
            finally:
                await server.stop()

        records = run(run_against_live())
        assert len(records) == 3
        assert all(r["name"] == "op.ingest" for r in records)
        assert records[-1]["rid"] == "cli-3"


@pytest.mark.skipif(not HAS_FORK, reason="pre-fork cluster needs POSIX fork")
class TestClusterFlightRecorder:
    def test_history_and_spans_merge_across_workers(self, tiny_trace):
        from repro.service.aggregate import (
            aggregate_history,
            aggregate_spans,
            worker_ports,
        )
        from repro.service.cluster import (
            ClusterConfig,
            ClusterServer,
            pick_free_port_block,
        )

        jobs = jobs_from_trace(tiny_trace)[:60]
        config = ClusterConfig(
            workers=2,
            metrics_port=pick_free_port_block("127.0.0.1", 2),
            log_interval=None,
            sample_interval=0.05,
            health=True,
        )
        with ClusterServer(config) as cluster:
            with ServiceClient("127.0.0.1", cluster.port) as client:
                for job in jobs:
                    client.ingest(
                        job["files"], sizes=job["sizes"], site=job["site"]
                    )
            time.sleep(0.3)  # a few sampler ticks on every worker
            ports = worker_ports(config.metrics_port, 2)
            history = aggregate_history("127.0.0.1", ports)
            spans = aggregate_spans("127.0.0.1", ports)

        assert history["workers"] == 2
        assert history["enabled"] is True and history["health"]["enabled"]
        merged = {s["name"]: s for s in history["series"]}
        assert "rate:requests" in merged
        # cluster-total request rate integrates back to ~the job count
        total = sum(
            acc * history["interval"]
            for _, acc, _ in merged["rate:requests"]["points"]
        )
        assert total == pytest.approx(len(jobs), rel=0.35)

        assert spans["workers"] == 2
        assert spans["count"] == len(spans["spans"]) >= len(jobs)
        # Every span is worker-tagged; the kernel decides the connection
        # split, so one connection may land entirely on one worker.
        assert {s["worker"] for s in spans["spans"]} <= {0, 1}
        timestamps = [s["ts"] for s in spans["spans"]]
        assert timestamps == sorted(timestamps)
