"""Process-level tests: pre-fork cluster, crash recovery, aggregation.

These fork real worker processes that accept on one shared TCP port
(SO_REUSEPORT where available, inherited parent socket otherwise), drive
them through the shared data port, and read them back through their
per-worker admin HTTP ports.  The headline assertion mirrors the
benchmark's equivalence gate: the partition merged across workers has
exactly the offline :func:`find_filecules` checksum — including after a
worker is SIGKILLed mid-run and the supervisor restarts it from its
snapshot.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.identify import find_filecules
from repro.service.aggregate import (
    aggregate_partition,
    aggregate_registry,
    aggregate_stats,
    fetch_json,
    worker_ports,
)
from repro.service.cluster import (
    ClusterConfig,
    ClusterServer,
    pick_free_port_block,
)
from repro.service.client import ServiceClient
from repro.service.loadgen import jobs_from_trace
from repro.service.state import partition_checksum
from repro.workload.calibration import tiny_config
from repro.workload.generator import generate_trace

pytestmark = pytest.mark.skipif(
    os.name != "posix"
    or "fork" not in multiprocessing.get_all_start_methods(),
    reason="pre-fork cluster needs POSIX fork",
)


@pytest.fixture(scope="module")
def tiny_trace():
    return generate_trace(tiny_config(), seed=23)


@pytest.fixture(scope="module")
def tiny_jobs(tiny_trace):
    return jobs_from_trace(tiny_trace)


def offline_checksum(trace):
    return partition_checksum(
        fc.file_ids.tolist() for fc in find_filecules(trace)
    )


def replay_jobs(port, jobs, batch=32):
    """Pipelined replay through the shared data port."""
    with ServiceClient("127.0.0.1", port) as client:
        for start in range(0, len(jobs), batch):
            client.pipeline(
                [
                    (
                        "ingest",
                        {
                            "files": job["files"],
                            "sizes": job["sizes"],
                            "site": job["site"],
                        },
                    )
                    for job in jobs[start : start + batch]
                ]
            )


def make_config(workers, tmp_path=None, **overrides):
    kwargs = dict(
        workers=workers,
        metrics_port=pick_free_port_block("127.0.0.1", workers),
        log_interval=None,
    )
    if tmp_path is not None:
        kwargs["snapshot_path"] = str(tmp_path / "cluster.jsonl")
    kwargs.update(overrides)
    return ClusterConfig(**kwargs)


class TestClusterEndToEnd:
    def test_partition_merged_across_workers_matches_offline(
        self, tiny_trace, tiny_jobs
    ):
        config = make_config(workers=2)
        with ClusterServer(config) as cluster:
            replay_jobs(cluster.port, tiny_jobs)
            ports = worker_ports(config.metrics_port, 2)
            merged = aggregate_partition("127.0.0.1", ports)
            stats = aggregate_stats("127.0.0.1", ports)
        assert merged["checksum"] == offline_checksum(tiny_trace)
        assert stats["partition_checksum"] == merged["checksum"]
        assert stats["jobs_observed"] == len(tiny_jobs)
        assert len(stats["workers"]) == 2

    def test_per_worker_admin_endpoints(self, tiny_jobs):
        config = make_config(workers=2)
        with ClusterServer(config) as cluster:
            replay_jobs(cluster.port, tiny_jobs[:40])
            ports = worker_ports(config.metrics_port, 2)
            total_requests = 0
            for index, port in enumerate(ports):
                health = fetch_json("127.0.0.1", port, "/healthz")
                assert health["ok"] is True
                assert health["worker"] == index
                registry = fetch_json("127.0.0.1", port, "/registry")
                counters = dict(
                    ((name, tuple(map(tuple, labels))), value)
                    for name, labels, value in registry["counters"]
                )
                total_requests += counters.get(("requests", ()), 0)
            # The kernel decides the split, but nothing may be lost:
            # every data-port request was counted by exactly one worker.
            assert total_requests >= 40
            merged = aggregate_registry("127.0.0.1", ports)
            assert merged.get("requests") == total_requests

    def test_worker_pids_are_distinct_processes(self):
        config = make_config(workers=2)
        with ClusterServer(config) as cluster:
            pids = cluster.pids()
            assert len(pids) == 2
            assert len(set(pids.values())) == 2
            assert os.getpid() not in pids.values()

    def test_graceful_stop_writes_final_snapshots(self, tiny_jobs, tmp_path):
        config = make_config(workers=2, tmp_path=tmp_path)
        with ClusterServer(config) as cluster:
            replay_jobs(cluster.port, tiny_jobs[:50])
        for index in range(2):
            assert os.path.exists(config.worker_snapshot_path(index))


class TestCrashRecovery:
    def test_sigkill_worker_restart_restores_partition(
        self, tiny_trace, tiny_jobs, tmp_path
    ):
        """Kill a worker between snapshots; the cluster still converges.

        Phase 1 ingests half the stream and snapshots every worker (so
        nothing is in flight and nothing post-snapshot is lost); then one
        worker is SIGKILLed.  The supervisor restarts it from its
        snapshot, phase 2 ingests the rest, and the merged partition must
        equal the offline answer over the whole trace.
        """
        config = make_config(workers=2, tmp_path=tmp_path)
        half = len(tiny_jobs) // 2
        with ClusterServer(config) as cluster:
            replay_jobs(cluster.port, tiny_jobs[:half])
            ports = worker_ports(config.metrics_port, 2)
            for port in ports:
                receipt = fetch_json("127.0.0.1", port, "/snapshot")
                assert receipt["ok"] is True

            victim = cluster.workers[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.process.join(timeout=10.0)
            assert victim.process.exitcode is not None

            # One supervision step notices the crash and restarts the
            # worker with restore=True from its snapshot.
            assert cluster.supervise_once() is True
            assert cluster.restarts == 1
            replacement = cluster.workers[0]
            assert replacement.pid != victim.pid
            health = fetch_json("127.0.0.1", ports[0], "/healthz")
            assert health["ok"] is True

            replay_jobs(cluster.port, tiny_jobs[half:])
            merged = aggregate_partition("127.0.0.1", ports)
            stats = aggregate_stats("127.0.0.1", ports)

        assert stats["jobs_observed"] == len(tiny_jobs)
        assert merged["checksum"] == offline_checksum(tiny_trace)

    def test_clean_exit_stops_cluster(self, tiny_jobs):
        config = make_config(workers=2)
        with ClusterServer(config) as cluster:
            with ServiceClient("127.0.0.1", cluster.port) as client:
                client.shutdown()
            # The worker that handled the op exits cleanly (code 0);
            # the supervisor turns that into a coordinated stop.
            deadline = time.monotonic() + 10.0
            stopped = False
            while time.monotonic() < deadline:
                if not cluster.supervise_once():
                    stopped = True
                    break
                time.sleep(0.05)
            assert stopped


class TestStopSignalDuringStart:
    @pytest.mark.parametrize(
        "sig", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"]
    )
    def test_group_signal_while_workers_build_state_is_a_clean_stop(
        self, tmp_path, sig
    ):
        """A terminal's Ctrl-C, or a service manager's SIGTERM, reaches
        the whole process group: workers still building their state die
        of it, and ``serve --workers`` treats that as the stop it was
        asked for — exit 0, no traceback — not as a failed start."""
        src = Path(__file__).resolve().parent.parent / "src"
        script = f"""
import sys, time
sys.path.insert(0, {str(src)!r})
from pathlib import Path
from repro.service import cluster
from repro.service.__main__ import main

def slow_build(config, index, restore):
    Path({str(tmp_path)!r}, f"building.{{index}}").touch()
    time.sleep(60)

cluster._build_state = slow_build
sys.exit(main(["serve", "--workers", "2", "--port", "0"]))
"""
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,  # its own process group to signal
        )
        try:
            deadline = time.monotonic() + 30
            while len(list(tmp_path.glob("building.*"))) < 2:
                assert time.monotonic() < deadline, "workers never started"
                assert proc.poll() is None, proc.stderr.read()
                time.sleep(0.02)
            os.killpg(proc.pid, sig)
            _, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        assert proc.returncode == 0, err
        assert "Traceback" not in err
