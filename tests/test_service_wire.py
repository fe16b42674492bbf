"""Wire plumbing of the daemon: line framing, half-close, backpressure.

Every test talks to an in-process :class:`FileculeServer` over real
loopback sockets and checks only what a client can see (answers, their
order, EOF) plus the server's ``requests`` counter and state, so the
same tests hold for any connection plumbing.
"""

import asyncio
import json
import socket

import pytest

from repro.core.identify import find_filecules
from repro.service import FileculeServer, ServiceState, encode_request, jobs_from_trace
from repro.service.protocol import MAX_LINE_BYTES
from repro.service.state import partition_checksum
from repro.workload.calibration import tiny_config
from repro.workload.generator import generate_trace

TIMEOUT = 10.0


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, TIMEOUT * 3))


async def with_server(fn, state=None, **server_kwargs):
    server = FileculeServer(state or ServiceState(), **server_kwargs)
    await server.start()
    try:
        return await fn(server)
    finally:
        await asyncio.wait_for(server.stop(), TIMEOUT)


async def connect(server):
    return await asyncio.open_connection("127.0.0.1", server.port)


async def read_answers(reader, n):
    answers = []
    for _ in range(n):
        line = await asyncio.wait_for(reader.readline(), TIMEOUT)
        assert line, f"EOF after {len(answers)} of {n} answers"
        answers.append(json.loads(line))
    return answers


async def close(writer):
    writer.close()
    try:
        await writer.wait_closed()
    except ConnectionError:
        pass


def ping(request_id):
    return encode_request("ping", request_id)


async def settled_requests(server, *, quiet_polls=5, interval=0.05):
    """The ``requests`` counter once it has not moved for a few polls."""
    last, quiet = -1, 0
    while quiet < quiet_polls:
        await asyncio.sleep(interval)
        now = server.metrics.get("requests")
        quiet = quiet + 1 if now == last else 0
        last = now
    return last


class TestLineFraming:
    def test_request_sent_one_byte_at_a_time_is_answered_once(self):
        async def scenario(server):
            reader, writer = await connect(server)
            try:
                for byte in ping(1):
                    writer.write(bytes([byte]))
                    await writer.drain()
                    await asyncio.sleep(0.001)
                # A second request: the next answer must be its own,
                # not a duplicate of the first.
                writer.write(ping(2))
                answers = await read_answers(reader, 2)
            finally:
                await close(writer)
            return answers, server.metrics.get("requests")

        answers, requests = run(with_server(scenario))
        assert [a["id"] for a in answers] == [1, 2]
        assert all(a["ok"] for a in answers)
        assert requests == 2

    def test_segment_ending_mid_line(self):
        async def scenario(server):
            reader, writer = await connect(server)
            third = encode_request("ingest", 3, files=[5, 6], sizes=[1, 1])
            try:
                writer.write(
                    ping(1)
                    + encode_request("ingest", 2, files=[1, 2], sizes=[1, 1])
                    + third[:7]
                )
                first = await read_answers(reader, 2)
                held = await settled_requests(server)
                writer.write(third[7:] + ping(4))
                rest = await read_answers(reader, 2)
            finally:
                await close(writer)
            return first + rest, held

        answers, held = run(with_server(scenario))
        assert [a["id"] for a in answers] == [1, 2, 3, 4]
        assert all(a["ok"] for a in answers)
        assert held == 2  # the incomplete line waited for its newline
        assert answers[2]["result"]["job_seq"] == 2

    def test_blank_lines_ignored_and_crlf_accepted(self):
        async def scenario(server):
            reader, writer = await connect(server)
            try:
                writer.write(
                    b"\n   \n\r\n"
                    + ping(1).rstrip(b"\n")
                    + b"\r\n\r\n\t\n"
                    + ping(2).rstrip(b"\n")
                    + b"\r\n"
                )
                answers = await read_answers(reader, 2)
                writer.write(ping(3))
                answers += await read_answers(reader, 1)
            finally:
                await close(writer)
            return answers, server.metrics.get("errors")

        answers, errors = run(with_server(scenario))
        assert [a["id"] for a in answers] == [1, 2, 3]
        assert all(a["ok"] for a in answers)
        assert errors == 0


class TestHalfCloseAndBackpressure:
    def test_half_closed_client_reads_every_answer_then_eof(self):
        n = 300  # more than the default window of 128

        async def scenario(server):
            reader, writer = await connect(server)
            try:
                writer.write(
                    b"".join(
                        encode_request("ingest", i, files=[i, i + 1])
                        if i % 3
                        else ping(i)
                        for i in range(n)
                    )
                )
                writer.write_eof()  # shutdown(SHUT_WR)
                answers = await read_answers(reader, n)
                tail = await asyncio.wait_for(reader.read(), TIMEOUT)
            finally:
                await close(writer)
            return answers, tail

        answers, tail = run(with_server(scenario))
        assert [a["id"] for a in answers] == list(range(n))
        assert all(a["ok"] for a in answers)
        assert tail == b""

    def test_unread_pipeline_is_held_back_then_answered_in_order(self):
        """A client that never reads is pushed back: the server stops
        handling its requests well short of N and stays there."""
        n = 1000
        members = list(range(4000))  # each answer lists all 4000 members

        async def scenario(server):
            reader, writer = await connect(server)
            try:
                writer.write(encode_request("ingest", 0, files=members))
                await read_answers(reader, 1)
                writer.write(
                    b"".join(
                        encode_request("filecule_of", i, file=i % 4000)
                        for i in range(1, n + 1)
                    )
                )
                held = await settled_requests(server)
                await asyncio.sleep(0.3)
                still = server.metrics.get("requests")
                answers = await read_answers(reader, n)
            finally:
                await close(writer)
            return held, still, answers, server.metrics.get("requests")

        held, still, answers, final = run(with_server(scenario))
        assert held < n + 1
        assert still == held
        assert [a["id"] for a in answers] == list(range(1, n + 1))
        assert all(a["result"]["filecule"]["n_files"] == 4000 for a in answers)
        assert final == n + 1


class TestConnectionFaults:
    def test_over_long_line_closes_only_its_own_connection(self):
        async def scenario(server):
            reader_a, writer_a = await connect(server)
            reader_b, writer_b = await connect(server)
            try:
                writer_b.write(ping(10))
                before = await read_answers(reader_b, 1)
                # No newline: the line is over the limit once the server
                # holds MAX_LINE_BYTES + 1 of its bytes.
                writer_a.write(ping(1) + b"x" * (MAX_LINE_BYTES + 1))
                answers_a = await read_answers(reader_a, 2)
                tail_a = await asyncio.wait_for(reader_a.read(), TIMEOUT)
                writer_b.write(ping(11))
                after = await read_answers(reader_b, 1)
            finally:
                await close(writer_a)
                await close(writer_b)
            return answers_a, tail_a, before + after

        answers_a, tail_a, answers_b = run(with_server(scenario))
        assert answers_a[0]["id"] == 1 and answers_a[0]["ok"] is True
        assert answers_a[1]["ok"] is False
        assert answers_a[1]["error"]["code"] == "too-large"
        assert tail_a == b""
        assert [a["id"] for a in answers_b] == [10, 11]
        assert all(a["ok"] for a in answers_b)

    @pytest.mark.parametrize(
        "poison",
        [
            # json.loads raises ValueError past the int digit limit and
            # RecursionError past the nesting limit, not a decode error.
            b'{"op":"ping","id":1,"x":' + b"7" * 5000 + b"}\n",
            b"[" * 100_000 + b"]" * 100_000 + b"\n",
        ],
        ids=["int-over-digit-limit", "nested-past-recursion-limit"],
    )
    def test_undecodable_line_parsed_after_a_held_window(self, poison):
        """A line that breaks json.loads, reached only once the drain
        answers a pipeline held at ``pending_per_connection``, is
        answered ``bad-request``; other clients and stop() go on."""
        n = 200  # more than the default window of 128

        async def scenario(server):
            reader_a, writer_a = await connect(server)
            reader_b, writer_b = await connect(server)
            try:
                writer_a.write(b"".join(ping(i) for i in range(n)) + poison)
                answers_a = await read_answers(reader_a, n + 1)
                writer_b.write(ping("b"))
                answers_b = await read_answers(reader_b, 1)
                writer_a.write(ping(n))
                answers_a += await read_answers(reader_a, 1)
            finally:
                await close(writer_a)
                await close(writer_b)
            return answers_a, answers_b, server.metrics.get("errors")

        answers_a, answers_b, errors = run(with_server(scenario))
        assert [a["id"] for a in answers_a] == [*range(n), None, n]
        bad = answers_a[n]
        assert bad["ok"] is False and bad["error"]["code"] == "bad-request"
        assert all(a["ok"] for a in answers_a[:n] + answers_a[n + 1 :])
        assert answers_b[0]["id"] == "b" and answers_b[0]["ok"] is True
        assert errors == 1

    def test_fault_while_answering_closes_only_its_connection(self, monkeypatch):
        """Any other exception raised while a drain answers a connection
        closes that connection alone; the drain keeps serving."""
        from repro.service import server as server_module

        decode = server_module.decode_request

        def faulty_decode(line):
            if b'"boom"' in line:
                raise TypeError("boom")
            return decode(line)

        monkeypatch.setattr(server_module, "decode_request", faulty_decode)
        n = 200  # the faulty line is parsed by the drain, not on receipt

        async def scenario(server):
            reader_a, writer_a = await connect(server)
            reader_b, writer_b = await connect(server)
            try:
                writer_a.write(b"".join(ping(i) for i in range(n)) + ping("boom"))
                try:
                    await asyncio.wait_for(reader_a.read(), TIMEOUT)
                except ConnectionError:
                    pass  # aborted: unsent answers may be dropped
                writer_b.write(ping("b"))
                answers_b = await read_answers(reader_b, 1)
            finally:
                await close(writer_a)
                await close(writer_b)
            return answers_b

        answers_b = run(with_server(scenario))
        assert answers_b[0]["id"] == "b" and answers_b[0]["ok"] is True

    def test_ingests_of_a_disconnected_client_are_applied(self):
        k = 40

        async def scenario(server):
            sock = socket.create_connection(("127.0.0.1", server.port))
            sock.sendall(
                b"".join(
                    encode_request("ingest", i, files=[2 * i, 2 * i + 1])
                    for i in range(k)
                )
            )
            sock.close()  # never reads a receipt
            reader, writer = await connect(server)
            try:
                for attempt in range(200):
                    writer.write(ping(attempt))
                    (answer,) = await read_answers(reader, 1)
                    if answer["result"]["jobs_observed"] == k:
                        break
                    await asyncio.sleep(0.01)
            finally:
                await close(writer)
            return server.state.jobs_observed

        assert run(with_server(scenario)) == k


class TestInterleavedConnections:
    def test_two_pipelining_connections_keep_their_own_order(self):
        trace = generate_trace(tiny_config(), seed=42)
        jobs = jobs_from_trace(trace)
        chunk = 16

        async def scenario(server):
            conns = [await connect(server), await connect(server)]
            sent = [[], []]
            try:
                for start in range(0, len(jobs), chunk):
                    side = (start // chunk) % 2
                    lines = []
                    for k in range(start, min(start + chunk, len(jobs))):
                        job = jobs[k]
                        lines.append(
                            encode_request(
                                "ingest",
                                k,
                                files=job["files"],
                                sizes=job["sizes"],
                                site=job["site"],
                            )
                        )
                        sent[side].append(k)
                    conns[side][1].write(b"".join(lines))
                got = [
                    await read_answers(reader, len(ids))
                    for (reader, _), ids in zip(conns, sent)
                ]
                conns[0][1].write(encode_request("partition", "p"))
                (partition,) = await read_answers(conns[0][0], 1)
            finally:
                for _, writer in conns:
                    await close(writer)
            return sent, got, partition

        sent, got, partition = run(with_server(scenario))
        for ids, answers in zip(sent, got):
            assert [a["id"] for a in answers] == ids
            assert all(a["ok"] for a in answers)
        offline = partition_checksum(
            fc.file_ids.tolist() for fc in find_filecules(trace)
        )
        assert partition["result"]["checksum"] == offline
