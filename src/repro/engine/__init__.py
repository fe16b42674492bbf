"""The shared trace-replay engine.

One replay loop (:func:`simulate`) and one grid runner (:func:`sweep`)
serve every consumer in the repository — the serial simulator façade
(:mod:`repro.cache.simulator`), the cells of a parallel sweep
(:mod:`repro.parallel`), the online service's benchmarks, and all
sweep-backed experiment drivers.  Policies are selected declaratively
through :mod:`repro.registry` spec strings wherever possible, so the
grid definition is plain data: :func:`resolve_policies` turns
a ``policies`` argument into one ``{display name: BoundSpec | factory}``
table, and :func:`simulate` accepts either kind of entry.

Layering (see ``docs/ARCHITECTURE.md``): the engine sits directly above
the policy *interface* (:mod:`repro.cache.base`) and below the policy
catalog (:mod:`repro.registry`); it reaches the registry and
:func:`repro.parallel.parallel_sweep` only through lazy, call-time
imports.
"""

from repro.engine.hierarchy import (
    HierarchyResult,
    TierReplay,
    simulate_hierarchy,
)
from repro.engine.replay import PolicyFactory, simulate
from repro.engine.sweep import SweepResult, resolve_policies, sweep

__all__ = [
    "HierarchyResult",
    "PolicyFactory",
    "SweepResult",
    "TierReplay",
    "resolve_policies",
    "simulate",
    "simulate_hierarchy",
    "sweep",
]
