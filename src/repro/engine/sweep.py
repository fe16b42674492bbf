"""Policy × capacity sweep over one trace: the grid engine.

:func:`sweep` runs every (policy, capacity) combination of a grid
(Figure 10 is a two-policy, seven-capacity sweep) over the same trace
and collects the per-cell :class:`~repro.cache.base.CacheMetrics` into a
:class:`SweepResult`.  Policies are selected *declaratively*: the
``policies`` argument accepts registry spec strings (the preferred
form, used by every experiment) as well as legacy
``name -> factory`` mappings, normalized by :func:`resolve_policies`
into one table that every cell hands to :func:`simulate`.  With
``jobs=N`` the grid's cells fan out through
:func:`repro.parallel.map_trace_cells` to forked workers that inherit
the trace, and the result is guaranteed identical to the serial path.
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


def resolve_policies(policies) -> dict[str, PolicyFactory | BoundSpec]:
    """Normalize a ``policies`` argument into one ``{display name: policy}``
    table.

    Accepted forms:

    * a mapping ``display name -> factory callable`` (legacy);
    * a mapping ``display name -> spec string or BoundSpec``;
    * a sequence of spec strings / BoundSpecs (display name = canonical
      spec string).

    Each value is either the factory callable as given or the entry's
    canonical :class:`~repro.registry.BoundSpec`; :func:`simulate`
    accepts both.  A parallel sweep's workers fork and inherit the
    table, so specs and factories reach them alike.
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

    table: dict[str, PolicyFactory | BoundSpec] = {}
    for display, entry in items:
        if callable(entry):
            if display is None:
                raise TypeError(
                    "factory callables need a display name; pass a mapping"
                )
            table[display] = entry
            continue
        # Spec-based selection resolves through the registry — a lazy
        # upcall, since the registry sits above the engine (it must see
        # every policy class); see docs/ARCHITECTURE.md.
        from repro import registry

        bound = registry.parse(entry)
        name = display if display is not None else str(bound)
        if name in table:
            raise ValueError(f"duplicate policy name {name!r}")
        table[name] = bound
    return table


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

    ``jobs > 1`` runs the grid through
    :func:`repro.parallel.parallel_sweep`: each (policy, capacity) cell
    is one cell of :func:`repro.parallel.map_trace_cells`, replaying the
    identical immutable trace in a forked worker process (which inherits
    the trace from the parent's memory), and the per-cell metrics are
    merged into a :class:`SweepResult` identical to the serial one.
    ``jobs`` is a ceiling — grids too small to amortize a pool, hosts
    with one usable CPU and platforms without the ``fork`` start method
    run the same cells serially.  Custom hooks cannot cross process
    boundaries, so only ``None``,
    :class:`~repro.obs.instrument.SimStats` (merged from the cells),
    :class:`~repro.obs.instrument.ProgressReporter` (each cell's
    checkpoints replayed into a copy of it) and combinations of those
    are supported in parallel mode.

    ``batch`` is forwarded to :func:`~repro.engine.replay.simulate` for
    every cell, serial or parallel.
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
            batch=batch,
        )
    metrics: dict[str, tuple[CacheMetrics, ...]] = {}
    for name, policy in resolve_policies(policies).items():
        metrics[name] = tuple(
            simulate(
                trace,
                policy,
                cap,
                name=name,
                instrumentation=instrumentation,
                partition=partition,
                batch=batch,
            )
            for cap in caps
        )
    return SweepResult(capacities=caps, metrics=metrics)
