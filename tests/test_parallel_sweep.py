"""Process-parallel sweep engine: equivalence, failure and leak hygiene.

The central contract of :mod:`repro.parallel` is that ``sweep(jobs=N)``
is *bit-identical* to the serial path — same :class:`CacheMetrics`
dataclasses, field for field — for every policy in the repository, since
each worker runs the very same :func:`~repro.cache.simulator.simulate`
over byte-identical shared-memory columns.
"""

from __future__ import annotations

import io
import os
from pathlib import Path

import numpy as np
import pytest

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
from repro.obs.instrument import Instrumentation, ProgressReporter, SimStats
from repro.parallel import (
    SEGMENT_PREFIX,
    ParallelSweepRunner,
    SharedTraceBuffers,
    SweepCellError,
    attach_trace,
)

SHM_DIR = Path("/dev/shm")


@pytest.fixture(autouse=True)
def _force_parallel(monkeypatch):
    """Keep ``jobs>1`` tests on the pool even on small hosts.

    ``parallel_sweep`` auto-serializes when the plan says a pool cannot
    win (one CPU, tiny grid).  These tests exist to exercise the pool
    machinery itself, so force the parallel path regardless of host
    shape; the auto-serial decision is covered by its own suite.
    """
    monkeypatch.setenv("REPRO_PARALLEL_FORCE", "1")


def _leaked_segments() -> list[str]:
    if not SHM_DIR.is_dir():  # pragma: no cover - non-Linux
        return []
    return sorted(p.name for p in SHM_DIR.glob(f"{SEGMENT_PREFIX}*"))


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

    def test_spec_grid_ships_names_not_closures(
        self, tiny_trace, tiny_partition, monkeypatch
    ):
        """Spec-mode initargs are plain picklable data: the worker table
        is ``{display name: spec string}``, never factory callables."""
        import multiprocessing
        import pickle

        from repro.parallel import runner as runner_mod

        captured = {}

        class SpyingContext:
            """Parent-side wrapper recording the Pool initargs."""

            def __init__(self, real):
                self._real = real

            def Pool(self, processes, initializer=None, initargs=()):
                captured["initargs"] = initargs
                return self._real.Pool(
                    processes, initializer=initializer, initargs=initargs
                )

            def __getattr__(self, name):
                return getattr(self._real, name)

        runner = runner_mod.ParallelSweepRunner(1)
        monkeypatch.setattr(
            runner,
            "_pick_context",
            lambda spec_mode: SpyingContext(
                multiprocessing.get_context("fork")
            ),
        )
        runner.run(
            tiny_trace,
            ("file-lru", "filecule-lru?intra_job_hits=false"),
            [tiny_trace.total_bytes() // 100],
            partition=tiny_partition,
        )
        _spec, policy_defs, _progress, _stats = captured["initargs"]
        pickle.dumps(policy_defs)  # plain data: survives any start method
        mode, table, _partition = policy_defs
        assert mode == "specs"
        assert table == {
            "file-lru": "file-lru",
            "filecule-lru?intra_job_hits=false": (
                "filecule-lru?intra_job_hits=false"
            ),
        }
        for value in table.values():
            assert isinstance(value, str)

    def test_unknown_spec_rejected_in_parent_before_any_worker(
        self, tiny_trace
    ):
        from repro.registry import UnknownPolicyError

        before = _leaked_segments()
        with pytest.raises(UnknownPolicyError, match="unknown policy"):
            sweep(tiny_trace, ("definitely-not-a-policy",), [100], jobs=2)
        assert _leaked_segments() == before


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

    def test_shm_unlinked_even_on_failure(self, tiny_trace):
        before = _leaked_segments()

        def exploding(capacity):
            raise RuntimeError("boom")

        with pytest.raises(SweepCellError):
            sweep(
                tiny_trace,
                {"boom": exploding},
                [tiny_trace.total_bytes() // 100],
                jobs=2,
            )
        assert _leaked_segments() == before

    def test_shm_unlinked_on_success(self, tiny_trace):
        before = _leaked_segments()
        sweep(
            tiny_trace,
            {"file-lru": lambda c: FileLRU(c)},
            [tiny_trace.total_bytes() // 100],
            jobs=2,
        )
        assert _leaked_segments() == before


class TestSharedTrace:
    def test_roundtrip_is_zero_copy_and_equal(self, tiny_trace):
        with SharedTraceBuffers(tiny_trace) as buffers:
            rebuilt, shm = attach_trace(buffers.spec)
            try:
                assert rebuilt.n_jobs == tiny_trace.n_jobs
                assert rebuilt.n_files == tiny_trace.n_files
                assert rebuilt.n_accesses == tiny_trace.n_accesses
                np.testing.assert_array_equal(
                    rebuilt.access_files, tiny_trace.access_files
                )
                np.testing.assert_array_equal(
                    rebuilt.access_jobs, tiny_trace.access_jobs
                )
                np.testing.assert_array_equal(
                    rebuilt.file_sizes, tiny_trace.file_sizes
                )
                np.testing.assert_array_equal(
                    rebuilt.job_access_ptr, tiny_trace.job_access_ptr
                )
                assert rebuilt.site_names == tiny_trace.site_names
                # Views into the segment, not copies.
                assert not rebuilt.access_files.flags["OWNDATA"]
                assert not rebuilt.file_sizes.flags["OWNDATA"]
            finally:
                shm.close()


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

    def test_forwarded_empty_run_reports_complete(self):
        """The parent's printer, like ProgressReporter, reports a cell
        with no accesses as complete instead of dividing by zero."""
        from repro.parallel.runner import _ProgressPrinter

        stream = io.StringIO()
        printer = _ProgressPrinter("ptest", stream)
        printer.handle(("run", "file-lru", 100, 0))
        printer.handle(("tick", "file-lru", 100, 0, 0, 1.0, 0))
        assert "100.0% 0/0" in stream.getvalue()

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

    def test_worker_registries_merged(self, tiny_trace):
        runner = ParallelSweepRunner(2)
        caps = [tiny_trace.total_bytes() // 100, tiny_trace.total_bytes() // 10]
        runner.run(
            tiny_trace, {"file-lru": lambda c: FileLRU(c)}, caps
        )
        assert runner.registry.get("sweep_cells", policy="file-lru") == len(caps)
        assert (
            runner.registry.get("sweep_accesses", policy="file-lru")
            == tiny_trace.n_accesses * len(caps)
        )
        exposition = runner.registry.expose()
        assert "repro_sweep_cells_total" in exposition
        assert "repro_sweep_cell_seconds" in exposition


class TestValidationAndClamping:
    def test_jobs_must_be_positive(self, tiny_trace):
        with pytest.raises(ValueError, match="jobs"):
            sweep(
                tiny_trace, {"file-lru": lambda c: FileLRU(c)}, [100], jobs=0
            )
        with pytest.raises(ValueError, match="jobs"):
            ParallelSweepRunner(0)

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

    def test_pool_clamped_to_cpus_unless_oversubscribed(self, tiny_trace):
        factories = {"file-lru": lambda c: FileLRU(c)}
        caps = [tiny_trace.total_bytes() // 100, tiny_trace.total_bytes() // 10]
        clamped = ParallelSweepRunner(64)
        clamped.run(tiny_trace, factories, caps)
        assert clamped.effective_jobs == min(len(caps), os.cpu_count() or 64)
        forced = ParallelSweepRunner(64, oversubscribe=True)
        forced.run(tiny_trace, factories, caps)
        assert forced.effective_jobs == len(caps)  # cell count still caps
