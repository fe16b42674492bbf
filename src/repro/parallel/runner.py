"""Process-parallel (policy, capacity) sweep engine.

The Figure 10 grid — and every experiment built on
:func:`repro.engine.sweep` — is embarrassingly parallel: each cell
replays the identical immutable trace against a fresh policy instance.
:class:`ParallelSweepRunner` fans the grid out over a
:class:`multiprocessing.Pool`:

* the trace's columns travel **zero-copy** through one shared-memory
  segment (:mod:`repro.parallel.shm`), reconstructed once per worker in
  the pool initializer — never per cell;
* policies given as :mod:`repro.registry` spec strings are dispatched
  **by name**: workers receive the plain ``{display name: spec string}``
  table (plus the pickled filecule partition, if any) and build each
  policy locally against the shared-memory trace.  Spec dispatch is
  start-method agnostic — it works under ``spawn`` as well as ``fork``;
* legacy factory callables (arbitrary closures over partitions/traces)
  are still supported, but only under the ``fork`` start method, where
  the workers inherit them — closures are deliberately never pickled;
* each cell returns its :class:`~repro.cache.base.CacheMetrics` plus a
  per-cell :class:`~repro.obs.metrics.MetricsRegistry`, which the parent
  folds together with the existing
  :meth:`~repro.obs.metrics.MetricsRegistry.merge`;
* with progress enabled (``REPRO_PROGRESS=1`` through the drivers, or a
  :class:`~repro.obs.instrument.ProgressReporter` passed to ``sweep``),
  workers forward periodic checkpoints over a queue and the parent
  prints throttled live hit-rate/ETA lines exactly like the serial path;
* a failing cell raises :class:`SweepCellError` naming the (policy,
  capacity) cell — including the case of an unknown spec name reaching
  a worker, which surfaces the registry's "unknown policy" message —
  and the shared-memory segment is unlinked in a ``finally`` — no leaks
  even on failure.

Results are **identical** to the serial path by construction: the same
:func:`~repro.engine.simulate` code runs over byte-identical columns,
and the property tests assert equality cell by cell.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
import time
from typing import IO

from repro.cache.base import CacheMetrics
from repro.engine.replay import PolicyFactory, simulate
from repro.engine.sweep import SweepResult, resolve_policies
from repro.obs.instrument import (
    Instrumentation,
    MultiInstrumentation,
    ProgressReporter,
    SimStats,
)
from repro.obs.metrics import MetricsRegistry
from repro.parallel.plan import plan_sweep
from repro.parallel.shm import SharedTraceBuffers, SharedTraceSpec, attach_trace
from repro.traces.trace import Trace
from repro.util.units import format_bytes

#: Default accesses between forwarded progress checkpoints (matches
#: :class:`~repro.obs.instrument.ProgressReporter`).
DEFAULT_PROGRESS_EVERY = 65536


class SweepCellError(RuntimeError):
    """A worker failed while simulating one (policy, capacity) cell."""

    def __init__(self, policy: str, capacity: int, cause: BaseException):
        self.policy = policy
        self.capacity = capacity
        super().__init__(
            f"sweep cell failed: policy {policy!r} at capacity {capacity} "
            f"({format_bytes(capacity, 1)}): {cause!r}"
        )


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------

#: Per-worker state installed by the pool initializer.  Spec-mode grids
#: ship a plain ``{name: spec string}`` table (picklable, so it survives
#: any start method); legacy factory grids rely on fork inheritance.
_WORKER: dict = {}


def _init_worker(
    spec: SharedTraceSpec,
    policy_defs: tuple,
    progress: tuple | None,
    collect_stats: bool,
) -> None:
    trace, shm = attach_trace(spec)
    _WORKER["trace"] = trace
    _WORKER["shm"] = shm  # keep the mapping alive for the process lifetime
    mode = policy_defs[0]
    _WORKER["mode"] = mode
    if mode == "specs":
        _WORKER["specs"] = policy_defs[1]
        _WORKER["partition"] = policy_defs[2]
    else:
        _WORKER["factories"] = policy_defs[1]
    _WORKER["progress"] = progress
    _WORKER["collect_stats"] = collect_stats


def _policy_factory(name: str) -> PolicyFactory:
    """Resolve one cell's policy factory inside a worker.

    Spec mode builds through :func:`repro.registry.build` against the
    worker's shared-memory trace; an unknown display name (or a spec
    string naming a policy this registry doesn't know) raises the
    registry's clear ``unknown policy`` error, which the parent wraps in
    :class:`SweepCellError` naming the cell.
    """
    if _WORKER.get("mode") == "specs":
        specs: dict[str, str] = _WORKER["specs"]
        try:
            spec_str = specs[name]
        except KeyError:
            from repro.registry import UnknownPolicyError

            raise UnknownPolicyError(
                f"unknown policy {name!r} reached a sweep worker; specs "
                f"shipped to this worker: {sorted(specs)}"
            ) from None
        from repro import registry

        trace = _WORKER["trace"]
        partition = _WORKER["partition"]
        return lambda cap: registry.build(
            spec_str, cap, trace=trace, partition=partition
        )
    return _WORKER["factories"][name]


class _QueueProgress(Instrumentation):
    """Worker-side hook forwarding progress checkpoints to the parent."""

    def __init__(self, queue, progress_every: int) -> None:
        self.queue = queue
        self.progress_every = progress_every
        self._name = ""
        self._capacity = 0
        self._evicted = 0

    def on_run_start(self, name: str, capacity: int, total_accesses: int) -> None:
        self._name = name
        self._capacity = capacity
        self._evicted = 0
        self.queue.put(("run", name, capacity, total_accesses))

    def on_evict(self, bytes_evicted: int) -> None:
        self._evicted += bytes_evicted

    def on_progress(self, done: int, total: int, metrics) -> None:
        self.queue.put(
            (
                "tick",
                self._name,
                self._capacity,
                done,
                total,
                metrics.hit_rate,
                self._evicted,
            )
        )


def _run_cells(chunk: tuple) -> list:
    """Run a batch of (name, index, capacity) cells in this worker.

    Cells are chunked by :func:`repro.parallel.plan.plan_sweep` so small
    cells share one pickle round trip instead of paying one each.  A
    failing cell is captured as an ``("err", name, index, exc)`` entry —
    the chunk's remaining cells still run, and the parent raises
    :class:`SweepCellError` for the first error in cell order.
    """
    out = []
    for name, index, capacity in chunk:
        try:
            out.append(("ok", *_run_cell(name, index, capacity)))
        except Exception as exc:
            out.append(("err", name, index, exc))
    return out


def _run_cell(name: str, index: int, capacity: int):
    trace: Trace = _WORKER["trace"]
    factory = _policy_factory(name)
    hooks: list[Instrumentation] = []
    stats = SimStats() if _WORKER["collect_stats"] else None
    if stats is not None:
        hooks.append(stats)
    progress = _WORKER["progress"]
    if progress is not None:
        hooks.append(_QueueProgress(*progress))
    instrumentation: Instrumentation | None
    if not hooks:
        instrumentation = None
    elif len(hooks) == 1:
        instrumentation = hooks[0]
    else:
        instrumentation = MultiInstrumentation(*hooks)
    t0 = time.perf_counter()
    metrics = simulate(
        trace, factory, capacity, name=name, instrumentation=instrumentation
    )
    wall = time.perf_counter() - t0
    registry = MetricsRegistry()
    registry.inc("sweep_cells", policy=name)
    registry.inc("sweep_accesses", metrics.requests, policy=name)
    registry.inc("sweep_hits", metrics.hits, policy=name)
    registry.inc("sweep_misses", metrics.misses, policy=name)
    registry.inc("sweep_bytes_fetched", metrics.bytes_fetched, policy=name)
    registry.observe("sweep_cell", wall, policy=name)
    return name, index, metrics, stats, registry


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------


class _ProgressPrinter:
    """Parent-side consumer of forwarded checkpoints.

    Cells from several workers interleave, so lines are labeled per cell
    (``policy@capacity``) and rate/ETA are computed from the parent's
    clock per cell; output is throttled globally like the serial
    :class:`~repro.obs.instrument.ProgressReporter`.
    """

    def __init__(
        self,
        label: str,
        stream: IO[str] | None,
        min_interval_s: float = 1.0,
    ) -> None:
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval_s = min_interval_s
        self._started: dict[tuple[str, int], float] = {}
        self._t_last = float("-inf")

    def handle(self, message: tuple) -> None:
        kind = message[0]
        if kind == "run":
            _, name, capacity, _total = message
            self._started[(name, capacity)] = time.perf_counter()
            return
        _, name, capacity, done, total, hit_rate, evicted = message
        now = time.perf_counter()
        if done < total and now - self._t_last < self.min_interval_s:
            return
        self._t_last = now
        t0 = self._started.get((name, capacity), now)
        elapsed = now - t0
        rate = done / elapsed if elapsed > 0 else 0.0
        eta = (total - done) / rate if rate > 0 and done < total else 0.0
        self.stream.write(
            f"[{self.label} {name}@{format_bytes(capacity, 1)}] "
            f"{done / total if total else 1.0:6.1%} {done}/{total} "
            f"hit={hit_rate:.3f} "
            f"evicted={format_bytes(evicted, 1)} "
            f"{rate:,.0f} acc/s eta={eta:.0f}s\n"
        )
        self.stream.flush()


class ParallelSweepRunner:
    """Fan a (policy, capacity) grid out over a process pool.

    Parameters
    ----------
    jobs:
        Worker process *ceiling*.  The pool never exceeds the cell count
        and — unless ``oversubscribe`` — never exceeds the machine's CPU
        count either: the replay is CPU-bound, so extra workers on the
        same core only add context-switch and cache-thrash cost (measured
        ~2.4× slower at 4 workers on 1 core; see ``BENCH_sweep.json``).
        The worker count actually used is exposed as
        :attr:`effective_jobs` after :meth:`run`.
    start_method:
        Multiprocessing start method.  ``None`` (default) picks ``fork``
        where available, falling back to ``spawn`` for spec-based grids.
        Grids containing factory *callables* require ``fork`` (closures
        cross the process boundary by inheritance, never by pickling);
        spec-string grids work under any method because workers rebuild
        policies by name through :mod:`repro.registry`.
    progress, progress_stream, progress_every, label:
        Enable live progress forwarding from workers (off by default;
        ``sweep`` turns it on when handed a ``ProgressReporter``).
    collect_stats:
        Run every cell under a :class:`~repro.obs.instrument.SimStats`
        collector and merge the workers' collectors into :attr:`stats`.
        Cells replay on the same route (kernel or per-access) as
        uninstrumented ones, exactly as they would serially.
    oversubscribe:
        Allow more workers than CPUs (up to ``jobs``).  A diagnostic /
        benchmarking knob — the default clamp is the right call for real
        runs.

    After :meth:`run`, :attr:`registry` holds the merged per-cell worker
    registries (cell counters plus a ``sweep_cell`` wall-time histogram,
    combined with :meth:`~repro.obs.metrics.MetricsRegistry.merge`) and
    :attr:`stats` the merged :class:`~repro.obs.instrument.SimStats`
    (``None`` unless ``collect_stats``).
    """

    def __init__(
        self,
        jobs: int,
        *,
        start_method: str | None = None,
        progress: bool = False,
        progress_stream: IO[str] | None = None,
        progress_every: int = DEFAULT_PROGRESS_EVERY,
        label: str = "psweep",
        collect_stats: bool = False,
        oversubscribe: bool = False,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.start_method = start_method
        self.progress = progress
        self.progress_stream = progress_stream
        self.progress_every = progress_every
        self.label = label
        self.collect_stats = collect_stats
        self.oversubscribe = oversubscribe
        self.registry = MetricsRegistry()
        self.stats: SimStats | None = None
        #: Worker count the last :meth:`run` actually used.
        self.effective_jobs = 0

    def _pick_context(self, spec_mode: bool):
        available = multiprocessing.get_all_start_methods()
        method = self.start_method
        if method is None:
            if "fork" in available:
                method = "fork"
            elif spec_mode:  # pragma: no cover - non-POSIX platforms
                method = "spawn"
            else:  # pragma: no cover - non-POSIX platforms
                raise RuntimeError(
                    "parallel sweeps over factory callables need the 'fork' "
                    "start method; pass registry spec strings (spawn-safe) "
                    "or run sweep(jobs=1) on this platform"
                )
        elif method not in available:
            raise RuntimeError(
                f"start method {method!r} is not available on this "
                f"platform (have: {available})"
            )
        if method != "fork" and not spec_mode:
            raise ValueError(
                "policy factory callables cannot cross a "
                f"{method!r}-context process boundary; pass registry spec "
                "strings (see repro.registry) for spawn-safe dispatch"
            )
        return multiprocessing.get_context(method)

    def run(
        self,
        trace: Trace,
        policies,
        capacities,
        *,
        partition=None,
        buffers: SharedTraceBuffers | None = None,
    ) -> SweepResult:
        """Run the grid; identical results to serial ``sweep``.

        ``policies`` takes the same forms as serial
        :func:`~repro.engine.sweep` — registry spec strings (preferred:
        dispatched to workers as plain picklable names) or ``name ->
        factory`` mappings (fork-only).  Spec grids that include
        filecule-granularity policies need ``partition=...``; it is
        pickled once into each worker.

        ``buffers`` optionally reuses an existing
        :class:`~repro.parallel.shm.SharedTraceBuffers` built from this
        same trace — repeated runs (benchmark repeats, back-to-back
        grids) then skip the copy-into-shared-memory setup cost.  A
        caller-provided segment is left open: its owner closes and
        unlinks it.
        """
        factories, specs = resolve_policies(policies, trace, partition)
        caps = tuple(int(c) for c in capacities)
        if not caps:
            raise ValueError("need at least one capacity")
        ctx = self._pick_context(spec_mode=specs is not None)
        cells = [
            (name, index, cap)
            for name in factories
            for index, cap in enumerate(caps)
        ]
        plan = plan_sweep(
            len(cells),
            trace.n_accesses,
            self.jobs,
            oversubscribe=self.oversubscribe,
        )
        chunks = [
            tuple(cells[k : k + plan.cells_per_chunk])
            for k in range(0, len(cells), plan.cells_per_chunk)
        ]
        processes = max(1, min(plan.workers, len(chunks)))
        self.effective_jobs = processes
        queue = ctx.Queue() if self.progress else None
        printer_thread = None
        if queue is not None:
            printer = _ProgressPrinter(self.label, self.progress_stream)

            def drain() -> None:
                while True:
                    message = queue.get()
                    if message is None:
                        return
                    printer.handle(message)

            printer_thread = threading.Thread(
                target=drain, name="psweep-progress", daemon=True
            )
            printer_thread.start()

        if specs is not None:
            policy_defs = (
                "specs",
                {name: str(bound) for name, bound in specs.items()},
                partition,
            )
        else:
            policy_defs = ("factories", dict(factories))
        grid: dict[str, list[CacheMetrics | None]] = {
            name: [None] * len(caps) for name in factories
        }
        merged_stats = SimStats() if self.collect_stats else None
        owns_buffers = buffers is None
        if owns_buffers:
            buffers = SharedTraceBuffers(trace)
        try:
            progress_cfg = (
                (queue, self.progress_every) if queue is not None else None
            )
            with ctx.Pool(
                processes,
                initializer=_init_worker,
                initargs=(
                    buffers.spec,
                    policy_defs,
                    progress_cfg,
                    self.collect_stats,
                ),
            ) as pool:
                pending = [
                    (chunk, pool.apply_async(_run_cells, (chunk,)))
                    for chunk in chunks
                ]
                for chunk, handle in pending:
                    try:
                        results = handle.get()
                    except Exception as exc:
                        # The whole chunk failed to round-trip (e.g. an
                        # unpicklable result); blame its first cell.
                        name, index, _cap = chunk[0]
                        raise SweepCellError(name, caps[index], exc) from exc
                    for entry in results:
                        if entry[0] == "err":
                            _, name, index, exc = entry
                            raise SweepCellError(name, caps[index], exc) from exc
                        _, name, index, metrics, stats, registry = entry
                        grid[name][index] = metrics
                        self.registry.merge(registry)
                        if merged_stats is not None and stats is not None:
                            merged_stats.merge(stats)
        finally:
            if queue is not None:
                queue.put(None)
                printer_thread.join(timeout=5.0)
                queue.close()
            if owns_buffers:
                buffers.close()
                buffers.unlink()
        self.stats = merged_stats
        return SweepResult(
            capacities=caps,
            metrics={name: tuple(grid[name]) for name in factories},
        )


def parallel_sweep(
    trace: Trace,
    policies,
    capacities,
    *,
    jobs: int,
    instrumentation: Instrumentation | None = None,
    partition=None,
    start_method: str | None = None,
    auto_serial: bool = True,
) -> SweepResult:
    """``sweep(jobs=N)`` backend: map the instrumentation contract onto a
    :class:`ParallelSweepRunner`.

    Custom hooks cannot cross process boundaries, so only the two
    shipped observation types (and combinations of them) are supported:
    a :class:`~repro.obs.instrument.ProgressReporter` has its checkpoint
    stream forwarded from the workers over a queue, and a
    :class:`~repro.obs.instrument.SimStats` receives the merged worker
    collectors after the run.  Anything else raises ``ValueError`` —
    run serially for custom instrumentation.

    ``jobs`` is a ceiling, never a demand to go slower: with
    ``auto_serial`` (the default), grids whose
    :func:`~repro.parallel.plan.plan_sweep` says a pool cannot win —
    too few total accesses to amortize the fork/shared-memory setup, or
    only one usable worker — run on the ordinary serial loop instead,
    with identical results, the same instrumentation objects observing,
    and per-cell failures still wrapped in :class:`SweepCellError`.
    Set ``REPRO_PARALLEL_FORCE=1`` (or ``auto_serial=False``) to force
    the pool for crossover measurements.
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
    if auto_serial:
        factories, _ = resolve_policies(policies, trace, partition)
        plan = plan_sweep(len(factories) * len(caps), trace.n_accesses, jobs)
        if not plan.use_parallel:
            metrics: dict[str, tuple[CacheMetrics, ...]] = {}
            for name, factory in factories.items():
                row = []
                for cap in caps:
                    try:
                        row.append(
                            simulate(
                                trace,
                                factory,
                                cap,
                                name=name,
                                instrumentation=instrumentation,
                            )
                        )
                    except Exception as exc:
                        raise SweepCellError(name, cap, exc) from exc
                metrics[name] = tuple(row)
            return SweepResult(capacities=caps, metrics=metrics)
    runner = ParallelSweepRunner(
        jobs=jobs,
        start_method=start_method,
        progress=reporter is not None,
        progress_stream=reporter.stream if reporter is not None else None,
        progress_every=(
            reporter.progress_every
            if reporter is not None
            else DEFAULT_PROGRESS_EVERY
        ),
        label=reporter.label if reporter is not None else "psweep",
        collect_stats=bool(sinks),
    )
    result = runner.run(trace, policies, capacities, partition=partition)
    if sinks and runner.stats is not None:
        for sink in sinks:
            sink.merge(runner.stats)
    return result
