"""Process-parallel grids over one trace, in forked workers.

``repro.parallel`` makes the repository's dominant compute pattern — a
grid of independent cells over one immutable trace (Figure 10's
(policy, capacity) cache replays, the null model, robustness, the
ablations, hierarchy sweeps) — N-core fast through one fan-out:

* :func:`map_trace_cells` — maps a module-level cell function over
  picklable payloads against one trace that forked workers inherit,
  chunked and planned by :func:`plan_sweep` (serial below the measured
  crossover, or without the ``fork`` start method), results in payload
  order;
* :func:`parallel_sweep` — ``sweep(jobs=N)``: a (policy, capacity)
  grid as cells of :func:`map_trace_cells`, merged into a
  :class:`~repro.engine.sweep.SweepResult` identical to the serial
  path;
* :class:`CellError` / :class:`SweepCellError` — failure wrappers
  naming the failing cell.

Most callers never touch this module directly: pass ``jobs=N`` to
:func:`repro.cache.simulator.sweep` or
:func:`repro.hierarchy.hierarchy_sweep` (or ``--jobs N`` to
``repro-experiments`` and the sweep-backed benchmark drivers).

See ``docs/PERFORMANCE.md`` for the design, the equivalence guarantees
and how to read ``BENCH_sweep.json``.
"""

from repro.parallel.cells import CellError, map_trace_cells
from repro.parallel.plan import (
    DEFAULT_MIN_ACCESSES,
    MIN_CHUNK_ACCESSES,
    SweepPlan,
    plan_sweep,
)
from repro.parallel.runner import SweepCellError, parallel_sweep

__all__ = [
    "CellError",
    "map_trace_cells",
    "DEFAULT_MIN_ACCESSES",
    "MIN_CHUNK_ACCESSES",
    "SweepCellError",
    "SweepPlan",
    "parallel_sweep",
    "plan_sweep",
]
