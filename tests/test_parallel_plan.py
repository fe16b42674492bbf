"""Sweep dispatch planning and the auto-serial fallback.

:func:`repro.parallel.plan_sweep` decides whether a grid is worth a
process pool and how cells batch into worker chunks; ``sweep(jobs=N)``
consults it so ``--jobs`` is a ceiling, never a demand to go slower.
These tests pin the decision table, the env knob, the chunk
arithmetic, and that the fallback is observably equivalent to the pool
path (same results, same error wrapping, same progress output).
"""

from __future__ import annotations

import io
import os

import pytest

from repro.cache.lru import FileLRU
from repro.cache.simulator import sweep
from repro.obs.instrument import (
    MultiInstrumentation,
    ProgressReporter,
    SimStats,
)
from repro.parallel import (
    DEFAULT_MIN_ACCESSES,
    MIN_CHUNK_ACCESSES,
    SweepCellError,
    plan_sweep,
)
from repro.util.host import host_info


# ----------------------------------------------------------------------
# plan_sweep decision table
# ----------------------------------------------------------------------


def test_jobs_one_is_always_serial():
    plan = plan_sweep(100, 10**9, 1, cpus=64)
    assert not plan.use_parallel
    assert plan.reason == "jobs=1 requested"


def test_small_grid_goes_serial_even_with_cpus():
    plan = plan_sweep(14, 5_000, 4, cpus=8)
    assert not plan.use_parallel
    assert "grid too small" in plan.reason
    assert plan.total_accesses == 14 * 5_000


def test_large_grid_uses_pool():
    per_cell = DEFAULT_MIN_ACCESSES  # one cell alone clears the bar
    plan = plan_sweep(14, per_cell, 4, cpus=8)
    assert plan.use_parallel
    assert plan.workers == 4


def test_one_cpu_means_serial():
    plan = plan_sweep(14, 10**9, 8, cpus=1)
    assert not plan.use_parallel
    assert "one worker" in plan.reason


def test_default_cpus_follow_the_affinity_mask(monkeypatch):
    """Under ``taskset -c 0`` on a many-CPU host, the default plan and
    ``host_info`` count the one CPU the process may run on."""
    monkeypatch.delenv("REPRO_PARALLEL_FORCE", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    plan = plan_sweep(6, 10**7, 4)
    assert not plan.use_parallel
    assert "only one worker available" in plan.reason
    assert host_info()["cpus"] == 1


def test_workers_clamped_to_cells():
    plan = plan_sweep(3, 10**9, 16, cpus=32)
    assert plan.workers == 3


def test_invalid_shapes_rejected():
    with pytest.raises(ValueError):
        plan_sweep(0, 1000, 2)
    with pytest.raises(ValueError):
        plan_sweep(5, 1000, 0)


# ----------------------------------------------------------------------
# chunking arithmetic
# ----------------------------------------------------------------------


def test_tiny_cells_are_batched_into_chunks():
    # 1k-access cells: ~263 cells would fit MIN_CHUNK_ACCESSES, but the
    # per-worker ceiling keeps every worker busy.
    plan = plan_sweep(1000, 1_000, 4, cpus=8)
    want = -(-MIN_CHUNK_ACCESSES // 1_000)
    per_worker = -(-1000 // plan.workers)
    assert plan.cells_per_chunk == min(want, per_worker)
    assert plan.n_chunks == -(-1000 // plan.cells_per_chunk)


def test_big_cells_get_one_chunk_each():
    plan = plan_sweep(14, 13_000_000, 4, cpus=8)
    assert plan.cells_per_chunk == 1
    assert plan.n_chunks == 14


def test_chunks_cover_all_cells():
    for n_cells in (1, 2, 7, 14, 99, 1000):
        for per_cell in (1, 100, 5_000, 13_000_000):
            plan = plan_sweep(n_cells, per_cell, 4, cpus=8)
            covered = plan.n_chunks * plan.cells_per_chunk
            assert covered >= n_cells
            # the last chunk is the only one allowed to be short
            assert (plan.n_chunks - 1) * plan.cells_per_chunk < n_cells


# ----------------------------------------------------------------------
# env knob
# ----------------------------------------------------------------------


def test_force_env_overrides_everything(monkeypatch):
    monkeypatch.setenv("REPRO_PARALLEL_FORCE", "1")
    plan = plan_sweep(2, 10, 4, cpus=1)
    assert plan.use_parallel
    assert plan.reason == "REPRO_PARALLEL_FORCE=1"
    # jobs=1 still means serial, forced or not
    assert not plan_sweep(2, 10, 1, cpus=1).use_parallel


def test_no_fork_means_serial_even_when_forced(tiny_trace, monkeypatch):
    """Pool workers must fork: without the ``fork`` start method the
    plan is serial whatever ``REPRO_PARALLEL_FORCE`` says, and
    ``sweep(jobs=2)`` runs the serial loop without starting a process."""
    import repro.parallel.cells as cells_mod
    import repro.parallel.plan as plan_mod

    monkeypatch.setattr(plan_mod, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setenv("REPRO_PARALLEL_FORCE", "1")
    plan = plan_sweep(14, 10**9, 4, cpus=8)
    assert not plan.use_parallel
    assert "'fork' start method" in plan.reason

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool started without the fork start method")

    monkeypatch.setattr(cells_mod, "ProcessPoolExecutor", no_pool)
    caps = [tiny_trace.total_bytes() // 50, tiny_trace.total_bytes() // 5]
    factories = {"file-lru": lambda c: FileLRU(c)}
    serial = sweep(tiny_trace, factories, caps)
    pooled = sweep(tiny_trace, factories, caps, jobs=2)
    assert pooled.capacities == serial.capacities
    assert pooled.metrics == serial.metrics


# ----------------------------------------------------------------------
# auto-serial fallback through sweep(jobs=N)
# ----------------------------------------------------------------------


def test_serial_fallback_matches_serial(tiny_trace, monkeypatch):
    monkeypatch.delenv("REPRO_PARALLEL_FORCE", raising=False)
    caps = [tiny_trace.total_bytes() // 50, tiny_trace.total_bytes() // 5]
    factories = {"file-lru": lambda c: FileLRU(c)}
    serial = sweep(tiny_trace, factories, caps)
    # a tiny grid: the planner must refuse the pool and fall back
    auto = sweep(tiny_trace, factories, caps, jobs=4)
    assert auto.capacities == serial.capacities
    assert auto.metrics == serial.metrics


def test_serial_fallback_wraps_cell_failures(tiny_trace, monkeypatch):
    monkeypatch.delenv("REPRO_PARALLEL_FORCE", raising=False)

    class Boom(FileLRU):
        def batch_kernel(self, trace, hit_out=None):
            return None  # force the per-access path so request() runs

        def request(self, file_id, size, now):
            raise RuntimeError("kaput")

    caps = [10**9]
    with pytest.raises(SweepCellError) as err:
        sweep(tiny_trace, {"boom": lambda c: Boom(c)}, caps, jobs=2)
    assert err.value.policy == "boom"
    assert err.value.capacity == caps[0]


def test_serial_fallback_keeps_instrumentation(tiny_trace, monkeypatch):
    """The fallback runs the same cells in-process: SimStats sees every
    access and the caller's ProgressReporter writes its labelled lines,
    exactly as it would for a pool."""
    monkeypatch.delenv("REPRO_PARALLEL_FORCE", raising=False)
    stats = SimStats()
    stream = io.StringIO()
    reporter = ProgressReporter(
        label="ptest", stream=stream, progress_every=1000, min_interval_s=0.0
    )
    caps = [tiny_trace.total_bytes() // 10]
    sweep(
        tiny_trace,
        {"file-lru": lambda c: FileLRU(c)},
        caps,
        instrumentation=MultiInstrumentation(stats, reporter),
        jobs=4,
    )
    assert stats.accesses == tiny_trace.n_accesses
    out = stream.getvalue()
    assert "[ptest file-lru@" in out


def test_serial_fallback_rejects_unsupported_instrumentation(tiny_trace):
    """Hook validation happens before the fallback decision: a custom
    per-access hook fails at jobs=2 whether or not a pool would run."""
    from repro.obs.instrument import Instrumentation

    class Custom(Instrumentation):
        pass

    with pytest.raises(ValueError, match="unsupported instrumentation"):
        sweep(
            tiny_trace,
            {"file-lru": lambda c: FileLRU(c)},
            [10**9],
            instrumentation=Custom(),
            jobs=2,
        )
