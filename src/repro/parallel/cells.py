"""Shared-trace fan-out: map picklable payloads over one trace.

Every trace-bound grid in the repository — the (policy, capacity) sweep
behind ``sweep(jobs=N)`` (:mod:`repro.parallel.runner`), hierarchy
sweeps — is a list of independent cells over one immutable trace.
:func:`map_trace_cells` is the one fan-out they share: the trace
shipped zero-copy through shared memory, cells chunked by
:func:`~repro.parallel.plan.plan_sweep`, and the serial loop below the
crossover, with the cell body abstracted out:

* ``runner(trace, resources, payload) -> result`` is a **module-level
  function** (dispatched by reference, so it pickles by qualified name
  under ``spawn`` and is inherited under ``fork`` — never a closure);
* ``payloads`` must pickle (they ride the task queue), ``resources``
  must pickle under ``spawn`` (under ``fork`` the pool initializer
  inherits them), and each ``result`` must pickle back;
* results come back **in payload order**, exactly as the serial loop
  would produce them — the equivalence tests assert list equality;
* a failing cell raises :class:`CellError` naming its payload, and the
  shared-memory segment is unlinked in a ``finally`` even on failure.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Callable, Sequence

from repro.parallel.plan import plan_sweep
from repro.parallel.shm import SharedTraceBuffers, attach_trace
from repro.traces.trace import Trace

__all__ = ["CellError", "map_trace_cells", "pool_context"]

#: Runner contract: ``(trace, resources, payload) -> result``.
CellRunner = Callable[[Trace, Any, Any], Any]


class CellError(RuntimeError):
    """A cell failed while mapping payloads over the shared trace."""

    def __init__(self, index: int, payload, cause: BaseException):
        self.index = index
        self.payload = payload
        super().__init__(
            f"trace cell {index} failed for payload {payload!r}: {cause!r}"
        )


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------

_WORKER: dict = {}


def _init_cell_worker(spec, runner: CellRunner, resources) -> None:
    trace, shm = attach_trace(spec)
    _WORKER["trace"] = trace
    _WORKER["shm"] = shm  # keep the mapping alive for the process lifetime
    _WORKER["runner"] = runner
    _WORKER["resources"] = resources


def _run_cell_chunk(chunk: tuple) -> list:
    """Run a batch of (index, payload) cells in this worker.

    A failing cell becomes an ``("err", index, exc)`` entry, the
    chunk's remaining cells still run, and the parent raises
    :class:`CellError` for the first error in payload order.
    """
    trace = _WORKER["trace"]
    runner = _WORKER["runner"]
    resources = _WORKER["resources"]
    out = []
    for index, payload in chunk:
        try:
            out.append(("ok", index, runner(trace, resources, payload)))
        except Exception as exc:
            out.append(("err", index, exc))
    return out


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------


def pool_context(start_method: str | None = None):
    """The multiprocessing context a pool of ``start_method`` runs in.

    ``None`` picks ``fork`` where available, else ``spawn``; an
    unavailable method raises ``RuntimeError``.
    """
    available = multiprocessing.get_all_start_methods()
    if start_method is None:
        start_method = "fork" if "fork" in available else "spawn"
    elif start_method not in available:
        raise RuntimeError(
            f"start method {start_method!r} is not available on this "
            f"platform (have: {available})"
        )
    return multiprocessing.get_context(start_method)


def map_trace_cells(
    trace: Trace,
    runner: CellRunner,
    payloads: Sequence,
    *,
    jobs: int = 1,
    resources=None,
    start_method: str | None = None,
) -> list:
    """Map ``runner`` over ``payloads`` against one shared trace.

    ``jobs`` is a worker ceiling with :func:`repro.parallel.plan.
    plan_sweep` semantics, each cell counted as one full trace replay:
    grids too small to amortize the pool's fixed costs run on the plain
    serial loop instead (identical results), unless
    ``REPRO_PARALLEL_FORCE=1``.  ``start_method`` is resolved by
    :func:`pool_context`.

    ``runner`` must be a module-level function and ``payloads`` /
    ``resources`` / results must pickle; see the module docstring.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    items = list(payloads)
    if not items:
        return []
    plan = plan_sweep(len(items), trace.n_accesses, jobs)
    if not plan.use_parallel:
        results = []
        for index, payload in enumerate(items):
            try:
                results.append(runner(trace, resources, payload))
            except Exception as exc:
                raise CellError(index, payload, exc) from exc
        return results

    ctx = pool_context(start_method)
    cells = list(enumerate(items))
    chunks = [
        tuple(cells[k : k + plan.cells_per_chunk])
        for k in range(0, len(cells), plan.cells_per_chunk)
    ]
    processes = max(1, min(plan.workers, len(chunks)))
    results: list = [None] * len(items)
    buffers = SharedTraceBuffers(trace)
    try:
        with ctx.Pool(
            processes,
            initializer=_init_cell_worker,
            initargs=(buffers.spec, runner, resources),
        ) as pool:
            pending = [
                (chunk, pool.apply_async(_run_cell_chunk, (chunk,)))
                for chunk in chunks
            ]
            for chunk, handle in pending:
                try:
                    entries = handle.get()
                except Exception as exc:
                    # The whole chunk failed to round-trip (e.g. an
                    # unpicklable result); blame its first cell.
                    index, payload = chunk[0]
                    raise CellError(index, payload, exc) from exc
                for entry in entries:
                    if entry[0] == "err":
                        _, index, exc = entry
                        raise CellError(index, items[index], exc) from exc
                    _, index, result = entry
                    results[index] = result
    finally:
        buffers.close()
        buffers.unlink()
    return results
