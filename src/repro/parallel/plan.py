"""Dispatch planning for parallel sweeps: when to fan out, how to chunk.

Process-parallel replay has real fixed costs — forking workers, copying
the trace into shared memory, round-tripping results through a pickle
queue — that only amortize when the grid carries enough replay work.
The measured crossover sits in the low millions of accesses (see
``docs/PERFORMANCE.md``); below it a pool is *slower* than the serial
loop, which is exactly the trap a small default grid walks into.

:func:`plan_sweep` centralizes that decision.  Given the grid shape and
the per-cell access count it returns a :class:`SweepPlan` saying whether
to parallelize at all (``use_parallel``), how many workers the pool
would use, and how cells are batched into worker tasks
(``cells_per_chunk``) so that tiny cells don't pay one pickle round trip
each.  :func:`repro.parallel.cells.map_trace_cells` — the fan-out behind
``sweep(jobs=N)`` and hierarchy sweeps — consults the plan to fall back
to the serial loop (the ``--jobs`` flag is a ceiling, never a demand to
go slower), and the ``sweep --dry-run`` CLI prints it.

One environment knob, read at call time so tests and operators can
override it without re-importing: ``REPRO_PARALLEL_FORCE`` set to
``1``/``true`` forces ``use_parallel`` for any ``jobs > 1`` request,
bypassing the threshold and the worker-count check.  A testing and
benchmarking knob — it is how the equivalence suite exercises the pool
on small traces and how the crossover itself gets measured.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.util.host import usable_cpus
from repro.util.specs import TRUE_SPELLINGS

#: Total grid accesses below which a pool is assumed slower than the
#: serial loop.  Calibrated against the measured fork+shm+pickle fixed
#: cost of roughly a second against ~1M accesses/s serial replay speed.
DEFAULT_MIN_ACCESSES = 4_000_000

#: Minimum accesses a single worker task should carry: cells smaller
#: than this are batched together so the per-task dispatch overhead
#: (pickle round trip, pool bookkeeping) stays amortized.
MIN_CHUNK_ACCESSES = 262_144

@dataclass(frozen=True)
class SweepPlan:
    """How one sweep grid should be dispatched.

    ``workers`` is what the pool would actually use (the ``jobs``
    ceiling clamped to cell and CPU counts); ``cells_per_chunk`` /
    ``n_chunks`` describe the batching of cells into worker tasks; and
    ``use_parallel`` is the go/no-go — when ``False``, ``reason`` says
    why in one human-readable sentence (surfaced by ``sweep
    --dry-run``).
    """

    n_cells: int
    jobs: int
    workers: int
    use_parallel: bool
    cells_per_chunk: int
    n_chunks: int
    total_accesses: int
    reason: str


def parallel_forced() -> bool:
    """Whether ``REPRO_PARALLEL_FORCE`` demands the pool regardless."""
    value = os.environ.get("REPRO_PARALLEL_FORCE", "")
    return value.strip().lower() in TRUE_SPELLINGS


def plan_sweep(
    n_cells: int,
    accesses_per_cell: int,
    jobs: int,
    *,
    cpus: int | None = None,
) -> SweepPlan:
    """Plan the dispatch of an ``n_cells`` grid under a ``jobs`` ceiling.

    ``cpus`` defaults to :func:`~repro.util.host.usable_cpus`; pass it
    explicitly for deterministic tests.
    """
    if n_cells < 1:
        raise ValueError(f"need at least one cell, got {n_cells}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    accesses_per_cell = max(0, int(accesses_per_cell))
    if cpus is None:
        cpus = usable_cpus()
    workers = max(1, min(jobs, n_cells, cpus))
    total = n_cells * accesses_per_cell

    # Batch cells into chunks: enough work per task to amortize dispatch,
    # but never so coarse that workers idle (at least one chunk each).
    if accesses_per_cell > 0:
        want = -(-MIN_CHUNK_ACCESSES // accesses_per_cell)  # ceil div
    else:
        want = n_cells
    per_worker = -(-n_cells // workers)
    cells_per_chunk = max(1, min(want, per_worker))
    n_chunks = -(-n_cells // cells_per_chunk)

    if jobs == 1:
        use_parallel = False
        reason = "jobs=1 requested"
    elif parallel_forced():
        use_parallel = True
        reason = "REPRO_PARALLEL_FORCE=1"
    elif workers == 1:
        use_parallel = False
        reason = (
            f"only one worker available (jobs={jobs}, cells={n_cells}, "
            f"cpus={cpus}); a one-worker pool is strictly slower than the "
            f"serial loop"
        )
    else:
        if total < DEFAULT_MIN_ACCESSES:
            use_parallel = False
            reason = (
                f"grid too small ({total:,} accesses < "
                f"{DEFAULT_MIN_ACCESSES:,} threshold); pool setup would "
                f"dominate"
            )
        else:
            use_parallel = True
            reason = (
                f"{total:,} accesses across {n_cells} cells on "
                f"{workers} workers"
            )
    return SweepPlan(
        n_cells=n_cells,
        jobs=jobs,
        workers=workers,
        use_parallel=use_parallel,
        cells_per_chunk=cells_per_chunk,
        n_chunks=n_chunks,
        total_accesses=total,
        reason=reason,
    )
