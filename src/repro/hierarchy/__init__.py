"""Tiered cache hierarchies: topology model, replay, metrics, sweeps.

The paper evaluates single caches; the deployments its filecule idea
targets are *stacks* — a site cache over a regional cache over the
origin (the ESnet XRootD topology in the related work).  This package
is the declarative model of that stack and the entry points for
replaying it:

* :class:`HierarchySpec` / :func:`parse_hierarchy` — the tier topology
  and its canonical wire format
  (``site:lru@10%+regional:filecule-lru@5%+origin``);
* :func:`~repro.engine.simulate_hierarchy` (re-exported here) — the
  miss-through replay core, which collapses bit-identically to the
  flat :func:`~repro.engine.simulate` for single-tier hierarchies;
* :func:`fold_hierarchy_metrics` — per-tier byte hit rate, origin
  offload, and inter-tier link traffic as shared
  :class:`~repro.obs.metrics.MetricsRegistry` counters;
* :func:`hierarchy_sweep` — many hierarchies over one trace, with
  ``jobs=N`` fan-out to forked workers.

See ``docs/HIERARCHY.md`` for the model, the wire grammar, and the
Figure-10-at-hierarchy-scale results.
"""

from repro.engine.hierarchy import (
    HierarchyResult,
    TierReplay,
    simulate_hierarchy,
)
from repro.hierarchy.metrics import (
    estimate_transfer_seconds,
    fold_hierarchy_metrics,
)
from repro.hierarchy.spec import (
    HierarchySpec,
    HierarchySpecError,
    TierCapacity,
    TierSpec,
    parse_hierarchy,
)
from repro.hierarchy.sweep import hierarchy_sweep

__all__ = [
    "HierarchyResult",
    "HierarchySpec",
    "HierarchySpecError",
    "TierCapacity",
    "TierReplay",
    "TierSpec",
    "estimate_transfer_seconds",
    "fold_hierarchy_metrics",
    "hierarchy_sweep",
    "parse_hierarchy",
    "simulate_hierarchy",
]
