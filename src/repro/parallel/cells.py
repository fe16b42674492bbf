"""Shared-trace fan-out: map payloads over one trace in forked workers.

Every trace-bound grid in the repository — the (policy, capacity) sweep
behind ``sweep(jobs=N)`` (:mod:`repro.parallel.runner`), hierarchy
sweeps — is a list of independent cells over one immutable trace.
:func:`map_trace_cells` is the one fan-out they share: workers are
forked, so each reads the trace, the cell function and the shared
resources from its inherited copy of the parent's memory; cells are
chunked by :func:`~repro.parallel.plan.plan_sweep`, and the serial
loop runs below the crossover, with the cell body abstracted out:

* ``runner(trace, resources, payload) -> result`` is a **module-level
  function** (chunks are dispatched to it by reference);
* ``payloads`` must pickle (they ride the task queue) and each
  ``result`` must pickle back; ``trace``, ``runner`` and ``resources``
  never pickle, as the pool initializer inherits them;
* results come back **in payload order**, exactly as the serial loop
  would produce them — the equivalence tests assert list equality;
* a failing cell raises :class:`CellError` naming its payload, and so
  does a worker killed by a signal: the first unanswered chunk's first
  cell is blamed.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Sequence

from repro.parallel.plan import plan_sweep
from repro.traces.trace import Trace

__all__ = ["CellError", "map_trace_cells"]

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


def _init_cell_worker(trace: Trace, runner: CellRunner, resources) -> None:
    _WORKER["trace"] = trace
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


def map_trace_cells(
    trace: Trace,
    runner: CellRunner,
    payloads: Sequence,
    *,
    jobs: int = 1,
    resources=None,
) -> list:
    """Map ``runner`` over ``payloads`` against one shared trace.

    ``jobs`` is a worker ceiling with :func:`repro.parallel.plan.
    plan_sweep` semantics, each cell counted as one full trace replay:
    grids too small to amortize the pool's fixed costs, and platforms
    without the ``fork`` start method, run on the plain serial loop
    instead (identical results); ``REPRO_PARALLEL_FORCE=1`` forces the
    pool wherever it can fork.

    ``runner`` must be a module-level function and ``payloads`` and
    results must pickle; see the module docstring.
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

    cells = list(enumerate(items))
    chunks = [
        tuple(cells[k : k + plan.cells_per_chunk])
        for k in range(0, len(cells), plan.cells_per_chunk)
    ]
    results: list = [None] * len(items)
    with ProcessPoolExecutor(
        min(plan.workers, len(chunks)),
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_cell_worker,
        initargs=(trace, runner, resources),
    ) as pool:
        pending = [
            (chunk, pool.submit(_run_cell_chunk, chunk)) for chunk in chunks
        ]
        try:
            for chunk, future in pending:
                try:
                    entries = future.result()
                except Exception as exc:
                    # The whole chunk failed to round-trip (an
                    # unpicklable result, a worker killed by a
                    # signal); blame its first cell.
                    index, payload = chunk[0]
                    raise CellError(index, payload, exc) from exc
                for status, index, value in entries:
                    if status == "err":
                        raise CellError(index, items[index], value) from value
                    results[index] = value
        except BaseException:
            # On a failed cell or an interrupt, chunks not yet started
            # never run; leaving the block would wait for all of them.
            pool.shutdown(cancel_futures=True)
            raise
    return results
