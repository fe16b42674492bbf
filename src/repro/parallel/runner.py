"""``sweep(jobs=N)``: a (policy, capacity) grid as cells of one fan-out.

The Figure 10 grid — and every experiment built on
:func:`repro.engine.sweep` — is embarrassingly parallel: each cell
replays the identical immutable trace against a fresh policy instance.
:func:`parallel_sweep` runs that grid through the generic
:func:`~repro.parallel.cells.map_trace_cells` fan-out, so the forked
workers, chunking, auto-serial fallback and error wrapping are the
ones every shared-trace grid uses:

* the payload is ``(display name, capacity)``; the resources shared by
  every cell are the policy table, the partition, ``batch`` and an
  optional progress queue, all inherited by the forked workers;
* each cell calls :func:`~repro.engine.simulate`, which accepts a
  factory or a spec, so factory callables and specs run alike;
* each cell observes its run with a private
  :class:`~repro.obs.instrument.SimStats`, which the parent merges into
  the caller's ``SimStats`` sinks;
* a caller's :class:`~repro.obs.instrument.ProgressReporter` sees the
  checkpoints of every cell: cells forward them over a queue, and the
  parent replays each cell's stream into its own copy of the reporter,
  so lines, logger and throttle match the serial path;
* a failing cell raises :class:`SweepCellError` naming the (policy,
  capacity) cell.

Results are **identical** to the serial path by construction: the same
:func:`~repro.engine.simulate` code runs over the same columns, and the
tests assert equality cell by cell.
"""

from __future__ import annotations

import copy
import multiprocessing
import os
import threading

from repro.engine.replay import simulate
from repro.engine.sweep import SweepResult, resolve_policies
from repro.obs.instrument import (
    Instrumentation,
    MultiInstrumentation,
    ProgressReporter,
    SimStats,
)
from repro.parallel.cells import CellError, map_trace_cells
from repro.traces.trace import Trace
from repro.util.units import format_bytes


class SweepCellError(RuntimeError):
    """A worker failed while simulating one (policy, capacity) cell."""

    def __init__(self, policy: str, capacity: int, cause: BaseException):
        self.policy = policy
        self.capacity = capacity
        super().__init__(
            f"sweep cell failed: policy {policy!r} at capacity {capacity} "
            f"({format_bytes(capacity, 1)}): {cause!r}"
        )


class _ForwardProgress(Instrumentation):
    """Cell-side hook sending one process's run events to the parent.

    Messages are ``(pid, hook name, args)``; a process runs one cell at
    a time, so the pid keys the cell.  Evicted bytes are summed here and
    sent before the checkpoint that covers them, so the per-access route
    does not pay one queue write per eviction.
    """

    def __init__(self, queue, progress_every: int) -> None:
        self.queue = queue
        self.progress_every = progress_every
        self._pid = os.getpid()
        self._evicted = 0

    def on_run_start(self, name: str, capacity: int, total_accesses: int) -> None:
        self.queue.put(
            (self._pid, "on_run_start", (name, capacity, total_accesses))
        )

    def on_evict(self, bytes_evicted: int) -> None:
        self._evicted += bytes_evicted

    def on_progress(self, done: int, total: int, metrics) -> None:
        if self._evicted:
            self.queue.put((self._pid, "on_evict", (self._evicted,)))
            self._evicted = 0
        self.queue.put((self._pid, "on_progress", (done, total, metrics)))


def _sweep_cell(trace: Trace, resources, payload):
    """One (policy, capacity) cell: ``simulate()`` under a private SimStats."""
    name, capacity = payload
    policies, partition, batch, progress = resources
    stats = SimStats()
    hook = stats
    if progress is not None:
        hook = MultiInstrumentation(stats, _ForwardProgress(*progress))
    metrics = simulate(
        trace,
        policies[name],
        capacity,
        name=name,
        instrumentation=hook,
        partition=partition,
        batch=batch,
    )
    return metrics, stats


def _replay_progress(queue, reporter: ProgressReporter) -> None:
    """Replay forwarded run events into a per-cell copy of ``reporter``.

    Reads until the ``None`` sentinel.  If the reporter raises, the rest
    of the stream is still drained so no cell blocks on a full pipe.
    """
    runs: dict[int, ProgressReporter] = {}
    messages = iter(queue.get, None)
    try:
        for pid, hook, args in messages:
            if hook == "on_run_start":
                runs[pid] = copy.copy(reporter)
            getattr(runs[pid], hook)(*args)
    finally:
        for _ in messages:
            pass


def parallel_sweep(
    trace: Trace,
    policies,
    capacities,
    *,
    jobs: int,
    instrumentation: Instrumentation | None = None,
    partition=None,
    batch: bool | None = None,
) -> SweepResult:
    """``sweep(jobs=N)`` backend: the grid as cells of
    :func:`~repro.parallel.cells.map_trace_cells`.

    ``jobs`` is a ceiling with :func:`~repro.parallel.plan.plan_sweep`
    semantics: grids too small to amortize a pool (or with one usable
    CPU) run the same cells on the serial loop, with identical results
    and observation; ``REPRO_PARALLEL_FORCE=1`` forces the pool.

    Custom hooks cannot cross process boundaries, so only the two
    shipped observation types (and combinations of them) are supported:
    a :class:`~repro.obs.instrument.ProgressReporter` receives every
    cell's checkpoints through a per-cell copy of itself, and a
    :class:`~repro.obs.instrument.SimStats` receives the merged cell
    collectors after the run.  Anything else raises ``ValueError`` —
    run serially for custom instrumentation.
    """
    hooks: tuple[Instrumentation, ...]
    if instrumentation is None:
        hooks = ()
    elif isinstance(instrumentation, MultiInstrumentation):
        hooks = instrumentation.children
    else:
        hooks = (instrumentation,)
    reporter: ProgressReporter | None = None
    sinks: list[SimStats] = []
    for hook in hooks:
        if isinstance(hook, ProgressReporter):
            reporter = hook
        elif isinstance(hook, SimStats):
            sinks.append(hook)
        else:
            raise ValueError(
                "parallel sweeps forward progress checkpoints and SimStats "
                "only; got unsupported instrumentation "
                f"{type(hook).__name__} — use jobs=1 for custom hooks"
            )
    caps = tuple(int(c) for c in capacities)
    if not caps:
        raise ValueError("need at least one capacity")
    table = resolve_policies(policies)
    progress = queue = drain = None
    if reporter is not None:
        # Workers inherit the queue by fork.  Its puts are synchronous,
        # so a cell's checkpoints are in the pipe before the cell's
        # result is.
        queue = multiprocessing.SimpleQueue()
        progress = (queue, reporter.progress_every)
        drain = threading.Thread(
            target=_replay_progress,
            args=(queue, reporter),
            name="sweep-progress",
            daemon=True,
        )
        drain.start()
    try:
        cells = map_trace_cells(
            trace,
            _sweep_cell,
            [(name, cap) for name in table for cap in caps],
            jobs=jobs,
            resources=(table, partition, batch, progress),
        )
    except CellError as err:
        name, capacity = err.payload
        raise SweepCellError(name, capacity, err.__cause__) from err.__cause__
    # Success only: a worker killed by a signal, or terminated with its
    # broken pool, may have held the queue's write lock, so on failure
    # the drain is left to the process.
    if queue is not None:
        queue.put(None)
        drain.join()
        queue.close()
    for _, stats in cells:
        for sink in sinks:
            sink.merge(stats)
    rows = iter(metrics for metrics, _ in cells)
    return SweepResult(
        capacities=caps,
        metrics={name: tuple(next(rows) for _ in caps) for name in table},
    )
