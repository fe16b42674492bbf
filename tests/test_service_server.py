"""End-to-end tests: daemon, clients, load generator, graceful shutdown.

Everything runs in-process — the server binds an ephemeral port on
loopback and the clients connect to it for real, so the wire protocol,
backpressure plumbing and shutdown paths are all exercised; only process
boundaries are skipped (covered by the CLI smoke test below via a
background thread running the blocking client).
"""

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.core.identify import find_filecules
from repro.service import (
    AsyncServiceClient,
    FileculeServer,
    ServiceClient,
    ServiceError,
    ServiceState,
    jobs_from_trace,
    run_load,
)
from repro.service.state import partition_checksum
from repro.workload.calibration import tiny_config
from repro.workload.generator import generate_trace


@pytest.fixture(scope="module")
def tiny_trace():
    return generate_trace(tiny_config(), seed=42)


def offline_checksum(trace):
    return partition_checksum(
        fc.file_ids.tolist() for fc in find_filecules(trace)
    )


def run(coro):
    return asyncio.run(coro)


async def _with_server(state, fn, **server_kwargs):
    """Start a server, run ``fn(server)``, always stop the server."""
    server = FileculeServer(state, **server_kwargs)
    await server.start()
    try:
        return await fn(server)
    finally:
        await server.stop()


class TestProtocolOverTheWire:
    def test_ping_ingest_query_stats(self):
        async def scenario(server):
            async with await AsyncServiceClient.connect(
                "127.0.0.1", server.port
            ) as client:
                assert (await client.ping())["pong"] is True
                receipt = await client.ingest([1, 2, 3], sizes=[10, 10, 10])
                assert receipt == {
                    "job_seq": 1,
                    "n_files": 3,
                    "n_classes": 1,
                    "site_hits": 0,
                }
                await client.ingest([2, 3])
                info = await client.filecule_of(2)
                assert info["filecule"]["files"] == [2, 3]
                assert info["filecule"]["requests"] == 2
                none = await client.filecule_of(999)
                assert none["filecule"] is None
                stats = await client.stats()
                assert stats["n_classes"] == 2
                assert stats["server"]["counters"]["requests"] >= 5

        run(_with_server(ServiceState(), scenario))

    def test_errors_are_typed_and_connection_survives(self):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(b"this is not json\n")
            writer.write(b'{"op": "launch-missiles"}\n')
            writer.write(b'{"v": 31, "op": "ping"}\n')
            writer.write(b'{"op": "ping"}\n')  # still served afterwards
            await writer.drain()
            codes = []
            for _ in range(3):
                codes.append(
                    json.loads(await reader.readline())["error"]["code"]
                )
            assert codes == ["bad-request", "unknown-op", "unsupported-version"]
            last = json.loads(await reader.readline())
            assert last["ok"] and last["result"]["pong"]
            writer.close()
            await writer.wait_closed()

        run(_with_server(ServiceState(), scenario))

    def test_pipelined_requests_answered_in_order(self):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            n = 300  # > pending_per_connection: exercises backpressure
            for i in range(n):
                writer.write(
                    json.dumps(
                        {"op": "ingest", "id": i, "files": [i, i + 1]}
                    ).encode()
                    + b"\n"
                )
            await writer.drain()
            for i in range(n):
                response = json.loads(await reader.readline())
                assert response["id"] == i
                assert response["result"]["job_seq"] == i + 1
            writer.close()
            await writer.wait_closed()

        run(_with_server(ServiceState(), scenario))

    def test_sync_client_in_thread(self):
        async def scenario(server):
            def blocking_session():
                with ServiceClient("127.0.0.1", server.port) as client:
                    client.ingest([5, 6], sizes=[2, 2])
                    plan = client.advise([5])
                    assert plan["plan"][0]["prefetch"] == [6]
                    with pytest.raises(ServiceError) as excinfo:
                        client.request("snapshot")  # no path configured
                    assert excinfo.value.code == "bad-request"

            await asyncio.to_thread(blocking_session)

        run(_with_server(ServiceState(), scenario))

    def test_shutdown_op_stops_serve_forever(self):
        state = ServiceState()

        async def scenario():
            server = FileculeServer(state)
            serve_task = asyncio.create_task(server.serve_forever())
            while server._server is None:  # wait for the bind
                await asyncio.sleep(0.01)
            async with await AsyncServiceClient.connect(
                "127.0.0.1", server.port
            ) as client:
                await client.ingest([1])
                assert (await client.shutdown())["stopping"] is True
            await asyncio.wait_for(serve_task, timeout=10)

        run(scenario())


class TestLoadGeneratorEndToEnd:
    def test_replay_matches_offline_partition(self, tiny_trace):
        """Acceptance demo: replay the synthetic stream through loadgen;
        the served partition equals offline identification."""
        jobs = jobs_from_trace(tiny_trace)

        async def scenario(server):
            report = await run_load(
                "127.0.0.1",
                server.port,
                jobs,
                connections=5,
                advise_every=7,
            )
            assert report.errors == 0
            assert report.jobs == tiny_trace.n_jobs
            assert report.requests > tiny_trace.n_jobs  # ingests + advises
            assert report.requests_per_second > 0
            assert set(report.latencies_ms) == {"ingest", "advise"}
            for stats in report.latencies_ms.values():
                assert stats["p50"] <= stats["p99"] <= stats["max"]
            assert (
                report.final_stats["partition_checksum"]
                == offline_checksum(tiny_trace)
            )
            assert report.final_stats["jobs_observed"] == tiny_trace.n_jobs

            # full-partition comparison, not just the checksum
            async with await AsyncServiceClient.connect(
                "127.0.0.1", server.port
            ) as client:
                served = await client.partition()
            assert sorted(tuple(c["files"]) for c in served["classes"]) == sorted(
                tuple(fc.file_ids.tolist()) for fc in find_filecules(tiny_trace)
            )

        run(_with_server(ServiceState(), scenario))

    def test_paced_replay_respects_target_rate(self, tiny_trace):
        jobs = jobs_from_trace(tiny_trace)[:60]

        async def scenario(server):
            report = await run_load(
                "127.0.0.1",
                server.port,
                jobs,
                connections=3,
                target_rate=400.0,
                fetch_final_stats=False,
            )
            # 60 jobs at 400/s should take ≈ 0.15 s; allow generous slack
            assert report.duration_seconds >= 0.12
            return report

        run(_with_server(ServiceState(), scenario))

    @pytest.mark.parametrize("pipeline_depth", [1, 4])
    def test_paced_latency_counts_a_server_stall(self, pipeline_depth):
        """A stall that holds up paced sends shows in their latencies,
        timed from when each send was due, and in max_send_lag_ms."""
        jobs = [{"files": [k], "sizes": [1]} for k in range(30)]

        class StallingState(ServiceState):
            stalled = False

            def stall_once(self):
                if not self.stalled:
                    self.stalled = True
                    time.sleep(0.3)  # blocks the loop the generator shares

            def ingest(self, *args, **kwargs):
                self.stall_once()
                return super().ingest(*args, **kwargs)

            def ingest_batch(self, *args, **kwargs):
                self.stall_once()
                return super().ingest_batch(*args, **kwargs)

        async def scenario(server):
            return await run_load(
                "127.0.0.1",
                server.port,
                jobs,
                connections=1,
                target_rate=200.0,
                pipeline_depth=pipeline_depth,
                fetch_final_stats=False,
            )

        report = run(_with_server(StallingState(), scenario))
        assert report.errors == 0
        # Every job was due within 0.15 s; none could go out before the
        # stall ended at ~0.3 s.
        assert report.max_send_lag_ms >= 200
        assert report.latencies_ms["ingest"]["p50"] >= 100
        assert report.as_dict()["max_send_lag_ms"] == report.max_send_lag_ms

    def test_unpaced_run_reports_no_send_lag(self, tiny_trace):
        async def scenario(server):
            return await run_load(
                "127.0.0.1",
                server.port,
                jobs_from_trace(tiny_trace)[:20],
                connections=2,
                fetch_final_stats=False,
            )

        assert run(_with_server(ServiceState(), scenario)).max_send_lag_ms == 0.0

    def test_loadgen_rejects_empty_stream(self):
        with pytest.raises(ValueError, match="no jobs"):
            run(run_load("127.0.0.1", 1, []))


class TestServerSnapshotIntegration:
    def test_snapshot_op_and_restart_resumes(self, tiny_trace, tmp_path):
        snap = tmp_path / "svc.jsonl"
        jobs = jobs_from_trace(tiny_trace)
        half = len(jobs) // 2

        async def first_run(server):
            await run_load(
                "127.0.0.1",
                server.port,
                jobs[:half],
                connections=2,
                fetch_final_stats=False,
            )

        run(
            _with_server(
                ServiceState(), first_run, snapshot_path=str(snap)
            )
        )  # stop() writes the final snapshot
        assert snap.exists()

        async def second_run(server):
            await run_load(
                "127.0.0.1",
                server.port,
                jobs[half:],
                connections=2,
                fetch_final_stats=False,
            )
            async with await AsyncServiceClient.connect(
                "127.0.0.1", server.port
            ) as client:
                return await client.stats()

        stats = run(_with_server(ServiceState.restore(snap), second_run))
        assert stats["jobs_observed"] == len(jobs)
        assert stats["partition_checksum"] == offline_checksum(tiny_trace)

    def test_explicit_snapshot_op(self, tmp_path):
        target = tmp_path / "explicit.jsonl"

        async def scenario(server):
            async with await AsyncServiceClient.connect(
                "127.0.0.1", server.port
            ) as client:
                await client.ingest([1, 2])
                receipt = await client.snapshot(str(target))
                assert receipt["n_jobs"] == 1

        run(_with_server(ServiceState(), scenario))
        assert target.exists()


class TestCliSmoke:
    def test_main_serve_and_loadgen_threads(self, tmp_path):
        """Drive the real CLI entry points: serve in a thread, loadgen
        + stats against it, then shutdown over the wire."""
        from repro.service.__main__ import main

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]

        server_thread = threading.Thread(
            target=main,
            args=(
                [
                    "serve",
                    "--port",
                    str(port),
                    "--policy",
                    "lru",
                    "--capacity",
                    "1GB",
                    "--snapshot",
                    str(tmp_path / "cli.jsonl"),
                ],
            ),
            daemon=True,
        )
        server_thread.start()
        # wait for the listener
        for _ in range(100):
            try:
                client = ServiceClient("127.0.0.1", port, timeout=5)
                break
            except OSError:
                time.sleep(0.05)
        else:
            pytest.fail("server did not come up")
        try:
            rc = main(
                [
                    "loadgen",
                    "--port",
                    str(port),
                    "--scale",
                    "tiny",
                    "--seed",
                    "3",
                    "--jobs",
                    "50",
                    "--connections",
                    "2",
                    "--json",
                    str(tmp_path / "load.json"),
                ]
            )
            assert rc == 0
            report = json.loads((tmp_path / "load.json").read_text())
            assert report["jobs"] == 50 and report["errors"] == 0
            assert main(["stats", "--port", str(port)]) == 0
        finally:
            client.shutdown()
            client.close()
            server_thread.join(timeout=15)
        assert not server_thread.is_alive()
        assert (tmp_path / "cli.jsonl").exists()
