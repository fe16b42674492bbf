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
    encode_request,
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


class TestJobsFromTrace:
    def test_one_event_per_job(self, tiny_trace):
        """Each job's event carries its files, their sizes and its site,
        as plain ints."""
        events = jobs_from_trace(tiny_trace)
        assert len(events) == tiny_trace.n_jobs
        sizes = tiny_trace.file_sizes
        for job_id, files in tiny_trace.iter_jobs():
            event = events[job_id]
            assert event["files"] == files.tolist()
            assert event["sizes"] == [int(sizes[f]) for f in files]
            assert event["site"] == int(tiny_trace.job_sites[job_id])
            assert all(
                type(v) is int
                for v in (*event["files"], *event["sizes"], event["site"])
            )


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

    def test_every_snapshot_is_counted(self, tmp_path):
        async def scenario(server):
            async with await AsyncServiceClient.connect(
                "127.0.0.1", server.port
            ) as client:
                await client.ingest([1, 2])
                await client.snapshot(str(tmp_path / "op.jsonl"))
                return server, await client.stats()

        server, stats = run(
            _with_server(
                ServiceState(),
                scenario,
                snapshot_path=str(tmp_path / "final.jsonl"),
            )
        )
        assert stats["server"]["counters"]["snapshots"] == 1
        # stop() writes the final snapshot through the same writer.
        assert server.metrics.get("snapshots") == 2


class _FailsOn666(ServiceState):
    """A state whose request handlers raise when asked about file 666."""

    def ingest(self, files, sizes=None, site=0):
        if 666 in files:
            raise RuntimeError("boom on 666")
        return super().ingest(files, sizes, site)

    def ingest_batch(self, batch):
        if any(666 in files for files, _, _ in batch):
            raise RuntimeError("boom on 666")
        return super().ingest_batch(batch)

    def filecule_of_json(self, file_id):
        if file_id == 666:
            raise RuntimeError("boom on 666")
        return super().filecule_of_json(file_id)

    def advise(self, files, site=0):
        if 666 in files:
            raise RuntimeError("boom on 666")
        return super().advise(files, site)


class TestInternalErrorBarrier:
    def test_every_path_answers_internal_with_its_own_id(self):
        """A state exception becomes an ``internal`` error on each path:
        the per-job ingest, a coalesced ingest run, the ``filecule_of``
        read and the generic handler; the daemon keeps serving."""

        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )

            async def exchange(*requests):
                # One write per call: requests sent together queue
                # together, so consecutive ingests coalesce.
                writer.write(
                    b"".join(
                        encode_request(op, request_id, **fields)
                        for op, request_id, fields in requests
                    )
                )
                await writer.drain()
                return [json.loads(await reader.readline()) for _ in requests]

            try:
                responses = [
                    *await exchange(("ingest", 1, {"files": [666]})),
                    *await exchange(
                        ("ingest", 2, {"files": [666, 1]}),
                        ("ingest", 3, {"files": [2, 666]}),
                    ),
                    *await exchange(("filecule_of", 4, {"file": 666})),
                    *await exchange(("advise", 5, {"files": [666]})),
                    *await exchange(("ping", 6, {})),
                ]
            finally:
                writer.close()
                await writer.wait_closed()
            return responses, server.metrics

        responses, metrics = run(_with_server(_FailsOn666(), scenario))
        for request_id, response in enumerate(responses[:5], start=1):
            assert response["id"] == request_id
            assert response["ok"] is False
            assert response["error"]["code"] == "internal"
            assert "boom on 666" in response["error"]["message"]
        assert responses[5]["id"] == 6 and responses[5]["ok"] is True
        assert metrics.get("errors") == 5
        assert metrics.get("ingest_batch_jobs", jobs="2") == 1

    def test_unencodable_result_answers_internal_and_serving_continues(self):
        """The barrier covers encoding: a result json cannot encode gets
        an ``internal`` error with its own id, the pipelined request
        behind it is answered, and the server still stops."""

        class _AdviseReturnsASet(ServiceState):
            def advise(self, files, site=0):
                return {"files": set(files)}

        async def scenario():
            server = FileculeServer(_AdviseReturnsASet())
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(
                    encode_request("advise", 1, files=[1, 2])
                    + encode_request("ping", 2)
                )
                responses = [
                    json.loads(await asyncio.wait_for(reader.readline(), 5))
                    for _ in range(2)
                ]
                writer.close()
                await writer.wait_closed()
            finally:
                await asyncio.wait_for(server.stop(), 5)
            return responses, server.metrics.get("errors")

        responses, errors = run(scenario())
        assert responses[0]["id"] == 1 and responses[0]["ok"] is False
        assert responses[0]["error"]["code"] == "internal"
        assert "TypeError" in responses[0]["error"]["message"]
        assert responses[1]["id"] == 2 and responses[1]["ok"] is True
        assert errors == 1


class TestGracefulStop:
    def test_idle_client_does_not_hold_up_stop(self):
        async def scenario():
            server = FileculeServer(ServiceState())
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            try:
                writer.write(encode_request("ping", 1))
                await asyncio.wait_for(reader.readline(), 5)
                await asyncio.wait_for(server.stop(), 5)
                return await asyncio.wait_for(reader.read(), 5)
            finally:
                writer.close()

        assert run(scenario()) == b""

    def test_unread_pipelined_ingests_are_answered_before_eof(self):
        n = 50

        async def scenario():
            # One request per drain, so most are still queued at stop().
            server = FileculeServer(ServiceState(), batch_max=1)
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            try:
                writer.write(
                    b"".join(
                        encode_request("ingest", i, files=[i, i + 1])
                        for i in range(n)
                    )
                )
                while not server.metrics.get("requests"):
                    await asyncio.sleep(0)
                await asyncio.wait_for(server.stop(), 5)
                answers = [
                    json.loads(await asyncio.wait_for(reader.readline(), 5))
                    for _ in range(n)
                ]
                tail = await asyncio.wait_for(reader.read(), 5)
            finally:
                writer.close()
            return answers, tail, server.state.jobs_observed

        answers, tail, jobs_observed = run(asyncio.wait_for(scenario(), 30))
        assert [a["id"] for a in answers] == list(range(n))
        assert all(a["ok"] for a in answers)
        assert tail == b""
        assert jobs_observed == n


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

    @pytest.mark.parametrize(
        "head",
        [
            {"format": "bogus"},
            # The manifest line that 1.14's ``serve --shards`` snapshots wrote.
            {
                "format": "repro-service-sharded-snapshot",
                "version": 1,
                "n_shards": 2,
                "policy": "lru",
                "capacity_bytes": 1,
                "default_size": 1,
                "shards": ["snap.jsonl.shard0", "snap.jsonl.shard1"],
            },
        ],
        ids=["bogus", "sharded-manifest"],
    )
    def test_serve_restore_of_bad_snapshot_exits_2(self, tmp_path, capsys, head):
        """The restore runs before the bind, so no server comes up."""
        from repro.service.__main__ import main

        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(head) + "\n")
        rc = main(
            ["serve", "--port", "0", "--snapshot", str(path), "--restore"]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert str(path) in err
        assert "Traceback" not in err

    def test_cluster_restore_of_bad_snapshot_exits_2(self, tmp_path, capfd):
        """A worker that cannot restore its snapshot stops the cluster,
        which exits 2 with one line naming that worker's file."""
        from repro.service.__main__ import main

        base = tmp_path / "S"
        bad = tmp_path / "S.w0"
        bad.write_text(json.dumps({"format": "bogus"}) + "\n")
        rc = main(
            [
                "serve",
                "--workers",
                "2",
                "--port",
                "0",
                "--snapshot",
                str(base),
                "--restore",
            ]
        )
        err = capfd.readouterr().err
        assert rc == 2
        (line,) = [line for line in err.splitlines() if str(bad) in line]
        assert line.startswith(f"cannot restore {bad}: ")
        assert "Traceback" not in err
