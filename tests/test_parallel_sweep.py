"""Process-parallel sweep engine: equivalence and failure handling.

The central contract of :mod:`repro.parallel` is that ``sweep(jobs=N)``
is *bit-identical* to the serial path — same :class:`CacheMetrics`
dataclasses, field for field — for every policy in the repository, since
each forked worker runs the very same
:func:`~repro.cache.simulator.simulate` over the trace columns it
inherits from the parent.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

import repro
from repro.cache.arc import AdaptiveReplacementCache
from repro.cache.belady import BeladyMIN, FileculeBeladyMIN
from repro.cache.bundle import FileBundleCache
from repro.cache.fifo import FileFIFO
from repro.cache.filecule_lru import FileculeLRU
from repro.cache.filecule_variants import FileculeGDS, FileculeLFU
from repro.cache.frequency import FileLFU
from repro.cache.gds import GreedyDualSize, Landlord
from repro.cache.lru import FileLRU
from repro.cache.prefetch import GroupPrefetchLRU
from repro.cache.simulator import sweep
from repro.cache.size import LargestFirst
from repro.cache.working_set import WorkingSetPrefetchLRU
from repro.experiments.fig10 import capacities_for
from repro.obs.instrument import (
    Instrumentation,
    MultiInstrumentation,
    ProgressReporter,
    SimStats,
)
from repro.parallel import SweepCellError


@pytest.fixture(autouse=True)
def _force_parallel(monkeypatch):
    """Keep ``jobs>1`` tests on the pool even on small hosts.

    ``parallel_sweep`` auto-serializes when the plan says a pool cannot
    win (one CPU, tiny grid).  These tests exist to exercise the pool
    machinery itself, so force the parallel path regardless of host
    shape; the auto-serial decision is covered by its own suite.
    """
    monkeypatch.setenv("REPRO_PARALLEL_FORCE", "1")


def all_policy_factories(trace, partition) -> dict:
    """One factory per replacement policy shipped in the repository."""
    return {
        "file-fifo": lambda c: FileFIFO(c),
        "file-lru": lambda c: FileLRU(c),
        "file-lfu": lambda c: FileLFU(c),
        "largest-first": lambda c: LargestFirst(c),
        "greedy-dual-size": lambda c: GreedyDualSize(c),
        "landlord": lambda c: Landlord(c),
        "arc": lambda c: AdaptiveReplacementCache(c),
        "file-bundle": lambda c: FileBundleCache(c),
        "group-prefetch-lru": lambda c: GroupPrefetchLRU(
            c, trace.file_datasets.astype("int64"), trace.file_sizes
        ),
        "working-set-prefetch": lambda c: WorkingSetPrefetchLRU(
            c, trace.file_sizes
        ),
        "file-belady-min": lambda c: BeladyMIN(c, trace),
        "filecule-lru": lambda c: FileculeLRU(c, partition),
        "filecule-lfu": lambda c: FileculeLFU(c, partition),
        "filecule-gds": lambda c: FileculeGDS(c, partition),
        "filecule-belady-min": lambda c: FileculeBeladyMIN(
            c, trace, partition
        ),
    }


class KernelRefusingLRU(FileLRU):
    """File-LRU that fails the cell if asked for its batch kernel."""

    def batch_kernel(self, trace, hit_out=None):
        raise AssertionError("batch=False must not ask for a kernel")


def progress_by_cell(stream: io.StringIO) -> dict[str, list[str]]:
    """A reporter's lines grouped by ``[label run]``, each cut before the
    wall-clock rate and ETA."""
    cells: dict[str, list[str]] = {}
    for line in stream.getvalue().splitlines():
        label_run, rest = line.split("] ", 1)
        fields = rest.split(" acc/s")[0].rsplit(" ", 1)[0]
        cells.setdefault(label_run, []).append(fields)
    return cells


def assert_results_identical(serial, parallel) -> None:
    assert parallel.capacities == serial.capacities
    assert set(parallel.metrics) == set(serial.metrics)
    for name, cells in serial.metrics.items():
        for ref, got in zip(cells, parallel.metrics[name]):
            assert got == ref, f"{name}@{ref.capacity_bytes} diverged"


class TestEquivalence:
    def test_every_policy_bit_identical(self, tiny_trace, tiny_partition):
        factories = all_policy_factories(tiny_trace, tiny_partition)
        total = tiny_trace.total_bytes()
        caps = [max(int(f * total), 1) for f in (0.01, 0.05)]
        serial = sweep(tiny_trace, factories, caps)
        parallel = sweep(tiny_trace, factories, caps, jobs=2)
        assert_results_identical(serial, parallel)

    def test_fig10_grid_bit_identical(self, tiny_trace, tiny_partition):
        factories = {
            "file-lru": lambda c: FileLRU(c),
            "filecule-lru": lambda c: FileculeLRU(c, tiny_partition),
        }
        caps = capacities_for(tiny_trace.total_bytes())
        serial = sweep(tiny_trace, factories, caps)
        for jobs in (2, 4):
            assert_results_identical(
                serial, sweep(tiny_trace, factories, caps, jobs=jobs)
            )

    def test_instrumented_parallel_matches_uninstrumented_serial(
        self, tiny_trace
    ):
        factories = {"file-lru": lambda c: FileLRU(c)}
        caps = [tiny_trace.total_bytes() // 50]
        serial = sweep(tiny_trace, factories, caps)
        parallel = sweep(
            tiny_trace, factories, caps, instrumentation=SimStats(), jobs=2
        )
        assert_results_identical(serial, parallel)


class TestSpecDispatch:
    """Registry spec strings as the worker wire format (no closures)."""

    def test_spec_grid_matches_factory_grid_in_parallel(
        self, tiny_trace, tiny_partition
    ):
        total = tiny_trace.total_bytes()
        caps = [max(int(f * total), 1) for f in (0.01, 0.05)]
        factories = all_policy_factories(tiny_trace, tiny_partition)
        by_factory = sweep(tiny_trace, factories, caps, jobs=2)
        by_spec = sweep(
            tiny_trace,
            {name: name for name in factories},
            caps,
            jobs=2,
            partition=tiny_partition,
        )
        assert_results_identical(by_factory, by_spec)

    def test_unknown_spec_rejected_in_parent_before_any_worker(
        self, tiny_trace
    ):
        from repro.registry import UnknownPolicyError

        with pytest.raises(UnknownPolicyError, match="unknown policy"):
            sweep(tiny_trace, ("definitely-not-a-policy",), [100], jobs=2)


class TestFailureAndLeaks:
    def test_worker_exception_names_the_cell(self, tiny_trace):
        def exploding(capacity):
            raise RuntimeError("policy construction exploded")

        capacity = tiny_trace.total_bytes() // 100
        with pytest.raises(
            SweepCellError, match=r"policy 'boom' at capacity \d+"
        ) as excinfo:
            sweep(
                tiny_trace,
                {"file-lru": lambda c: FileLRU(c), "boom": exploding},
                [capacity],
                jobs=2,
            )
        assert excinfo.value.policy == "boom"
        assert excinfo.value.capacity == capacity

    def test_failure_with_progress_forwarding(self, tiny_trace):
        """A failing cell still raises promptly while the other cells
        forward progress."""

        def exploding(capacity):
            raise RuntimeError("boom")

        reporter = ProgressReporter(
            "ptest", progress_every=64, min_interval_s=0, stream=io.StringIO()
        )
        with pytest.raises(SweepCellError, match="policy 'boom'"):
            sweep(
                tiny_trace,
                {"file-lru": lambda c: FileLRU(c), "boom": exploding},
                [tiny_trace.total_bytes() // 100],
                instrumentation=reporter,
                jobs=2,
            )

    @pytest.mark.parametrize("force", ["1", "0"], ids=["pool", "serial"])
    def test_failed_sweep_leaves_no_progress_thread(
        self, tiny_trace, monkeypatch, force
    ):
        """A failed sweep stops its progress drain as a finished one
        does: no ``sweep-progress`` thread outlives it, whether the
        cells ran in a pool or on the auto-serial loop."""
        monkeypatch.setenv("REPRO_PARALLEL_FORCE", force)

        def exploding(capacity):
            raise RuntimeError("boom")

        def drains() -> set:
            return {
                thread
                for thread in threading.enumerate()
                if thread.name == "sweep-progress"
            }

        before = drains()
        stream = io.StringIO()
        for _ in range(3):
            reporter = ProgressReporter(
                "ptest", progress_every=64, min_interval_s=0, stream=stream
            )
            with pytest.raises(SweepCellError, match="policy 'boom'"):
                sweep(
                    tiny_trace,
                    {"file-lru": lambda c: FileLRU(c), "boom": exploding},
                    [tiny_trace.total_bytes() // 100],
                    instrumentation=reporter,
                    jobs=2,
                )
        assert drains() - before == set()

    def test_worker_killed_by_a_signal_fails_the_sweep(self):
        """A worker killed outright (as the OOM killer does) fails the
        map with the dead chunk's first cell instead of hanging it."""
        script = textwrap.dedent(
            """
            import os
            import signal

            from repro.parallel import map_trace_cells
            from repro.workload.calibration import tiny_config
            from repro.workload.generator import generate_trace


            def kill_own_worker(trace, resources, payload):
                os.kill(os.getpid(), signal.SIGKILL)


            trace = generate_trace(tiny_config(), seed=3)
            map_trace_cells(trace, kill_own_worker, [0, 1, 2, 3], jobs=2)
            """
        )
        src = Path(repro.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
            env={
                **os.environ,
                "PYTHONPATH": str(src),
                "REPRO_PARALLEL_FORCE": "1",
            },
        )
        assert proc.returncode != 0
        assert "BrokenProcessPool" in proc.stderr, proc.stderr
        assert "CellError: trace cell 0 failed" in proc.stderr, proc.stderr


class TestObservability:
    def test_progress_forwarded_from_workers(self, tiny_trace):
        stream = io.StringIO()
        reporter = ProgressReporter(
            "ptest", progress_every=512, min_interval_s=0.0, stream=stream
        )
        sweep(
            tiny_trace,
            {"file-lru": lambda c: FileLRU(c)},
            [tiny_trace.total_bytes() // 50],
            instrumentation=reporter,
            jobs=2,
        )
        out = stream.getvalue()
        assert "[ptest file-lru@" in out
        assert f"{tiny_trace.n_accesses}/{tiny_trace.n_accesses}" in out

    def test_pool_progress_matches_serial(self, tiny_trace):
        """Every cell's checkpoints reach the caller's own reporter: the
        pool yields the serial path's per-cell lines on a stream, and the
        same number of ``sim-progress`` records through the logger."""
        from repro.obs import log

        # A kernel policy and a per-access one (evictions forwarded one
        # by one); 64-access marks push more checkpoints through the
        # queue than a pipe buffer holds, so cells wait on the parent.
        factories = {
            "file-lru": lambda c: FileLRU(c),
            "greedy-dual-size": lambda c: GreedyDualSize(c),
        }
        caps = [tiny_trace.total_bytes() // 50, tiny_trace.total_bytes() // 5]

        def per_cell_lines(jobs):
            stream = io.StringIO()
            reporter = ProgressReporter(
                "ptest", progress_every=64, min_interval_s=0, stream=stream
            )
            sweep(
                tiny_trace, factories, caps, instrumentation=reporter, jobs=jobs
            )
            return progress_by_cell(stream)

        serial = per_cell_lines(1)
        assert len(serial) == len(factories) * len(caps)
        assert per_cell_lines(2) == serial

        def log_records(jobs):
            sink = io.StringIO()
            log.configure(stream=sink)
            try:
                reporter = ProgressReporter(
                    "ptest", progress_every=1000, min_interval_s=0
                )
                sweep(
                    tiny_trace,
                    factories,
                    caps,
                    instrumentation=reporter,
                    jobs=jobs,
                )
            finally:
                log.configure()
            return sink.getvalue().count('"sim-progress"')

        expected = len(factories) * len(caps) * (
            -(-tiny_trace.n_accesses // 1000)
        )
        assert log_records(1) == expected
        assert log_records(2) == expected

    def test_every_reporter_matches_serial(self, tiny_trace):
        """Each of two reporters writes the serial path's lines from a
        pool: checkpoints are forwarded at the smaller interval, as
        ``MultiInstrumentation`` does serially, into a per-cell copy of
        every reporter."""
        factories = {
            "file-lru": lambda c: FileLRU(c),
            "greedy-dual-size": lambda c: GreedyDualSize(c),
        }
        caps = [tiny_trace.total_bytes() // 50]

        def per_reporter_lines(jobs):
            streams = [io.StringIO(), io.StringIO()]
            reporters = [
                ProgressReporter(
                    label, progress_every=every, min_interval_s=0, stream=out
                )
                for label, every, out in zip("ab", (1000, 64), streams)
            ]
            sweep(
                tiny_trace,
                factories,
                caps,
                instrumentation=MultiInstrumentation(*reporters),
                jobs=jobs,
            )
            return [progress_by_cell(stream) for stream in streams]

        serial = per_reporter_lines(1)
        assert all(len(cells) == len(factories) for cells in serial)
        assert per_reporter_lines(2) == serial

    def test_simstats_merged_across_workers(self, tiny_trace):
        caps = [tiny_trace.total_bytes() // 100, tiny_trace.total_bytes() // 10]
        factories = {"file-lru": lambda c: FileLRU(c)}
        serial_stats = SimStats()
        sweep(tiny_trace, factories, caps, instrumentation=serial_stats)
        parallel_stats = SimStats()
        sweep(
            tiny_trace,
            factories,
            caps,
            instrumentation=parallel_stats,
            jobs=2,
        )
        assert parallel_stats.accesses == serial_stats.accesses
        assert parallel_stats.hits == serial_stats.hits
        assert parallel_stats.misses == serial_stats.misses
        assert parallel_stats.bytes_fetched == serial_stats.bytes_fetched
        assert parallel_stats.bytes_evicted == serial_stats.bytes_evicted


class TestValidationAndClamping:
    def test_jobs_must_be_positive(self, tiny_trace):
        with pytest.raises(ValueError, match="jobs"):
            sweep(
                tiny_trace, {"file-lru": lambda c: FileLRU(c)}, [100], jobs=0
            )

    def test_unsupported_instrumentation_rejected(self, tiny_trace):
        class PerAccessHook(Instrumentation):
            pass

        with pytest.raises(ValueError, match="unsupported instrumentation"):
            sweep(
                tiny_trace,
                {"file-lru": lambda c: FileLRU(c)},
                [100],
                instrumentation=PerAccessHook(),
                jobs=2,
            )

    @pytest.mark.parametrize("force", ["1", "0"], ids=["pool", "serial"])
    def test_batch_true_without_kernel_fails_the_cell(
        self, tiny_trace, monkeypatch, force
    ):
        """``batch`` reaches every cell: demanding a kernel from a policy
        without one fails that cell, as ``simulate`` does serially."""
        monkeypatch.setenv("REPRO_PARALLEL_FORCE", force)
        capacity = tiny_trace.total_bytes() // 100
        with pytest.raises(SweepCellError, match="no batch kernel") as excinfo:
            sweep(
                tiny_trace,
                ["greedy-dual-size"],
                [capacity],
                jobs=2,
                batch=True,
            )
        assert excinfo.value.policy == "greedy-dual-size"
        assert excinfo.value.capacity == capacity

    @pytest.mark.parametrize("force", ["1", "0"], ids=["pool", "serial"])
    def test_batch_false_skips_the_kernel(self, tiny_trace, monkeypatch, force):
        monkeypatch.setenv("REPRO_PARALLEL_FORCE", force)
        caps = [tiny_trace.total_bytes() // 100, tiny_trace.total_bytes() // 10]
        serial = sweep(tiny_trace, {"file-lru": lambda c: FileLRU(c)}, caps)
        per_access = sweep(
            tiny_trace,
            {"file-lru": lambda c: KernelRefusingLRU(c)},
            caps,
            jobs=2,
            batch=False,
        )
        assert_results_identical(serial, per_access)
