"""Hierarchy sweeps: replay one trace through many hierarchies.

The hierarchy-scale Figure 10 question — does filecule granularity
still beat file granularity when the cache is a *stack* of tiers? —
is a grid of independent hierarchy replays over one immutable trace,
the same embarrassing parallelism as the flat sweep.
:func:`hierarchy_sweep` fans it out through the generic
:func:`repro.parallel.map_trace_cells` machinery: forked workers
inherit the trace, each cell ships as its canonical wire string, and
grids below the measured parallel crossover run on the serial loop
with identical results.
"""

from __future__ import annotations

from typing import Iterable

from repro.engine.hierarchy import HierarchyResult, simulate_hierarchy
from repro.hierarchy.spec import HierarchySpec, parse_hierarchy
from repro.parallel.cells import map_trace_cells
from repro.traces.trace import Trace

__all__ = ["hierarchy_sweep"]


def _hierarchy_cell(trace: Trace, resources, payload: str) -> HierarchyResult:
    """One sweep cell: replay the shared trace through one hierarchy.

    Module-level so chunks dispatch to it by reference; ``payload`` is
    the hierarchy's canonical wire string and ``resources`` the
    (partition, batch, total_bytes) shared by every cell.
    """
    partition, batch, total_bytes = resources
    return simulate_hierarchy(
        trace,
        payload,
        partition=partition,
        batch=batch,
        total_bytes=total_bytes,
    )


def hierarchy_sweep(
    trace: Trace,
    hierarchies: Iterable[HierarchySpec | str],
    *,
    jobs: int = 1,
    partition=None,
    batch: bool | None = None,
    total_bytes: int | None = None,
) -> dict[str, HierarchyResult]:
    """Replay ``trace`` through each hierarchy; keyed by canonical string.

    Results are identical to calling
    :func:`~repro.engine.simulate_hierarchy` in a loop (the equivalence
    tests assert it); ``jobs`` is a worker ceiling with the usual
    :func:`~repro.parallel.plan_sweep` auto-serial semantics.  Note a
    hierarchy cell replays the trace once *per tier*, so the crossover
    estimate (based on one trace length per cell) is conservative.
    """
    specs = [parse_hierarchy(h) for h in hierarchies]
    keys = [str(spec) for spec in specs]
    if len(set(keys)) != len(keys):
        dupes = sorted({k for k in keys if keys.count(k) > 1})
        raise ValueError(f"duplicate hierarchies in sweep: {dupes}")
    if not keys:
        return {}
    if total_bytes is None:
        # Resolve once so fractional capacities agree across cells and
        # workers never each recompute the reduction.
        total_bytes = trace.total_bytes()
    results = map_trace_cells(
        trace,
        _hierarchy_cell,
        keys,
        jobs=jobs,
        resources=(partition, batch, total_bytes),
    )
    return dict(zip(keys, results))
