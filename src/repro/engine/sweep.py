"""Policy × capacity sweep over one trace: the grid engine.

:func:`sweep` runs every (policy, capacity) combination of a grid
(Figure 10 is a two-policy, seven-capacity sweep) over the same trace
and collects the per-cell :class:`~repro.cache.base.CacheMetrics` into a
:class:`SweepResult`.  Policies are selected *declaratively*: the
``policies`` argument accepts registry spec strings (the preferred,
picklable form used by every experiment driver) as well as legacy
``name -> factory`` mappings.  With ``jobs=N`` the grid fans out over a
process pool (:mod:`repro.parallel`) with the trace shipped zero-copy
through shared memory, and the result is guaranteed identical to the
serial path.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping, Sequence

from repro.cache.base import CacheMetrics
from repro.engine.replay import PolicyFactory, simulate
from repro.obs.instrument import Instrumentation

#: The forms one policy selection may take in a ``policies`` argument.
PolicyLike = "PolicyFactory | str | BoundSpec"


@dataclass(frozen=True, slots=True)
class SweepResult:
    """Outcome grid of a policies × capacities sweep."""

    capacities: tuple[int, ...]
    metrics: dict[str, tuple[CacheMetrics, ...]]  # policy name -> per capacity

    def miss_rates(self, policy: str) -> list[float]:
        return [m.miss_rate for m in self.metrics[policy]]

    def byte_miss_rates(self, policy: str) -> list[float]:
        return [m.byte_miss_rate for m in self.metrics[policy]]

    def improvement_factor(
        self, baseline: str, contender: str
    ) -> list[float]:
        """Per-capacity ratio baseline miss rate / contender miss rate.

        The paper's headline is a 4–5× factor of file-LRU over
        filecule-LRU at large caches.  Capacities where only the
        contender has a zero miss rate report ``inf``; where *both*
        policies have zero miss rate (e.g. an empty or fully-cached
        cell) the factor is undefined and reports ``nan`` so downstream
        tables don't render a spurious ``inf×``.
        """
        out = []
        for b, c in zip(self.metrics[baseline], self.metrics[contender]):
            if c.miss_rate > 0:
                out.append(b.miss_rate / c.miss_rate)
            elif b.miss_rate > 0:
                out.append(float("inf"))
            else:
                out.append(float("nan"))
        return out


def resolve_policies(
    policies, trace=None, partition=None
) -> tuple[dict[str, PolicyFactory], dict[str, object] | None]:
    """Normalize a ``policies`` argument into named factories (+ specs).

    Accepted forms:

    * a mapping ``display name -> factory callable`` (legacy);
    * a mapping ``display name -> spec string or BoundSpec``;
    * a sequence of spec strings / BoundSpecs (display name = canonical
      spec string).

    Returns ``(factories, specs)`` where ``specs`` maps display names to
    canonical :class:`~repro.registry.BoundSpec` objects if and only if
    *every* policy was given as a spec — the condition under which the
    parallel runner can dispatch by name (plain picklable data) instead
    of relying on fork-inherited closures.
    """
    if isinstance(policies, str):
        raise TypeError(
            "policies must be a mapping or a sequence of specs, not a "
            "single string; wrap it in a list"
        )
    if isinstance(policies, Mapping):
        items = list(policies.items())
    elif isinstance(policies, Sequence):
        items = [(None, p) for p in policies]
    else:
        raise TypeError(
            f"unsupported policies argument of type {type(policies).__name__}"
        )
    if not items:
        raise ValueError("need at least one policy")

    factories: dict[str, PolicyFactory] = {}
    specs: dict[str, object] = {}
    all_specs = True
    for display, entry in items:
        if callable(entry):
            if display is None:
                raise TypeError(
                    "factory callables need a display name; pass a mapping"
                )
            all_specs = False
            factories[display] = entry
            continue
        # Spec-based selection resolves through the registry — a lazy
        # upcall, since the registry sits above the engine (it must see
        # every policy class); see docs/ARCHITECTURE.md.
        from repro import registry

        bound = registry.parse(entry)
        name = display if display is not None else str(bound)
        if name in factories:
            raise ValueError(f"duplicate policy name {name!r}")
        specs[name] = bound
        factories[name] = (
            lambda cap, _b=bound: registry.build(
                _b, cap, trace=trace, partition=partition
            )
        )
    if len(factories) != len(items):
        raise ValueError("duplicate policy names in the grid")
    return factories, (specs if all_specs else None)


def sweep(
    trace,
    policies,
    capacities: Sequence[int],
    instrumentation: Instrumentation | None = None,
    jobs: int = 1,
    *,
    partition=None,
    batch: bool | None = None,
) -> SweepResult:
    """Run every (policy, capacity) combination over the same trace.

    ``policies`` takes spec strings or factories — see
    :func:`resolve_policies`.  Spec-based grids that include
    filecule-granularity policies need ``partition=...``.

    A single ``instrumentation`` instance observes every run in turn —
    :meth:`~repro.obs.instrument.Instrumentation.on_run_start` announces
    each (policy, capacity) cell, so a progress reporter labels its
    output per run while a stats collector aggregates the whole grid.

    ``jobs > 1`` dispatches the grid to
    :class:`repro.parallel.ParallelSweepRunner`: each cell replays the
    identical immutable trace in a worker process (columns shared via
    :mod:`multiprocessing.shared_memory`, reconstructed once per worker)
    and the per-cell metrics are merged into a :class:`SweepResult`
    identical to the serial one.  ``jobs`` is a ceiling — the pool is
    clamped to the cell count and the machine's CPU count (the replay is
    CPU-bound; oversubscribing cores only slows it down).  Custom
    hooks cannot cross process boundaries, so only ``None``,
    :class:`~repro.obs.instrument.SimStats`,
    :class:`~repro.obs.instrument.ProgressReporter` (progress checkpoints
    forwarded over a queue) and combinations of those are supported in
    parallel mode.

    ``batch`` is forwarded to :func:`~repro.engine.replay.simulate` on
    the serial path; parallel workers always use the default (kernels
    whenever the policy offers one, instrumented or not) — results are
    identical either way.
    """
    caps = tuple(int(c) for c in capacities)
    if not caps:
        raise ValueError("need at least one capacity")
    if jobs is None:
        jobs = 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs > 1:
        from repro.parallel.runner import parallel_sweep

        return parallel_sweep(
            trace,
            policies,
            caps,
            jobs=jobs,
            instrumentation=instrumentation,
            partition=partition,
        )
    factories, _ = resolve_policies(policies, trace, partition)
    metrics: dict[str, tuple[CacheMetrics, ...]] = {}
    for name, factory in factories.items():
        metrics[name] = tuple(
            simulate(
                trace,
                factory,
                cap,
                name=name,
                instrumentation=instrumentation,
                batch=batch,
            )
            for cap in caps
        )
    return SweepResult(capacities=caps, metrics=metrics)
