"""Hierarchical trace replay: a miss at tier *k* falls through to *k+1*.

The ESnet XRootD deployments the related work characterizes (arXiv
2205.05598, 2307.11069) layer a site cache in front of a regional
in-network cache in front of the origin.  :func:`simulate_hierarchy`
replays that topology tier-sequentially: tier 0 serves the full demand
stream; the accesses it misses — including bypasses, whose bytes must
still be streamed from below — become tier 1's demand stream
(:meth:`~repro.traces.trace.Trace.subset_accesses` keeps job identity
and timestamps intact); whatever the innermost caching tier misses is
served by the origin, which holds everything.

Every tier replays through :func:`simulate`; an outer tier passes a
``hit_out`` mask, and its misses become the next tier's demand stream.
Two properties anchor the model:

* **Flat collapse.**  A single-tier hierarchy *is* the flat replay,
  bit-identical for every registry policy (gated by the test suite).
  Origin totals are pure arithmetic on the innermost tier's metrics.
* **Demand-miss propagation.**  A deeper tier sees one request per
  missed *access*, not per fetched byte: group-granularity prefetch
  (a filecule load) and bypass streams inflate the tier's
  ``bytes_fetched`` — priced on the inter-tier link — but do not
  install state into, or count as demand at, the tier below.  Per-tier
  request streams therefore obey the conservation law
  ``tier[k+1].requests == tier[k].misses``.

Layering: the tier topology model (:mod:`repro.hierarchy`) builds on
the registry and therefore ranks above the engine; it is resolved
lazily at call time, exactly like :func:`simulate`'s registry upcall.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.base import CacheMetrics
from repro.engine.replay import simulate
from repro.traces.trace import Trace


@dataclass(frozen=True, slots=True)
class TierReplay:
    """One caching tier's outcome inside a hierarchy replay.

    ``metrics`` is exactly what a flat :func:`simulate` of this tier's
    demand stream would report; ``link_bytes`` (= ``bytes_fetched``) is
    what the tier pulled over its upstream link — demand misses plus
    group-prefetch overhead plus bypass streams.
    """

    tier: str
    policy: str
    capacity_bytes: int
    link_cost: float
    metrics: CacheMetrics

    @property
    def link_bytes(self) -> int:
        """Bytes pulled into this tier from the tier below it."""
        return self.metrics.bytes_fetched

    @property
    def byte_hit_rate(self) -> float:
        return 1.0 - self.metrics.byte_miss_rate


@dataclass(frozen=True, slots=True)
class HierarchyResult:
    """Outcome of one hierarchy replay.

    ``hierarchy`` is the canonical wire string
    (``parse_hierarchy(result.hierarchy)`` rebuilds the spec); ``tiers``
    are the caching tiers outermost-first; the ``origin_*`` totals
    describe the stream that fell through every cache.
    """

    hierarchy: str
    tiers: tuple[TierReplay, ...]
    origin_requests: int
    origin_demand_bytes: int
    origin_fetched_bytes: int

    @property
    def demand_requests(self) -> int:
        """File requests entering the hierarchy (tier-0 demand)."""
        return self.tiers[0].metrics.requests

    @property
    def demand_bytes(self) -> int:
        """Bytes requested of the hierarchy (tier-0 demand)."""
        return self.tiers[0].metrics.bytes_requested

    @property
    def hit_requests(self) -> int:
        """Requests served by *some* caching tier."""
        return sum(t.metrics.hits for t in self.tiers)

    @property
    def request_hit_rate(self) -> float:
        """Fraction of demand requests absorbed before the origin."""
        d = self.demand_requests
        return self.hit_requests / d if d else 0.0

    @property
    def origin_byte_hit_rate(self) -> float:
        """Fraction of demanded bytes served before reaching the origin.

        The hierarchy-scale Figure 10 metric: demand bytes that some
        caching tier absorbed, so the origin never saw them requested.
        Prefetch overhead is deliberately excluded — it is priced on
        the links (:attr:`origin_fetched_bytes`,
        :attr:`weighted_link_bytes`), not charged against hit rate.
        """
        d = self.demand_bytes
        return 1.0 - self.origin_demand_bytes / d if d else 0.0

    @property
    def origin_offload(self) -> float:
        """Alias of :attr:`origin_byte_hit_rate` (operator's view)."""
        return self.origin_byte_hit_rate

    @property
    def weighted_link_bytes(self) -> float:
        """Inter-tier traffic priced by each tier's link cost."""
        return float(
            sum(t.link_bytes * t.link_cost for t in self.tiers)
        )


def simulate_hierarchy(
    trace: Trace,
    hierarchy,
    *,
    partition=None,
    batch: bool | None = None,
    total_bytes: int | None = None,
) -> HierarchyResult:
    """Replay ``trace`` through a tiered cache hierarchy.

    ``hierarchy`` is a :class:`~repro.hierarchy.HierarchySpec` or its
    wire string (``"site:lru@10%+regional:filecule-lru@5%+origin"``).
    Fractional tier capacities resolve against ``total_bytes`` (default:
    the trace's total accessed bytes), so the same spec is scale-
    invariant across workload tiers, like the Figure 10 sweep.

    ``partition``/``batch`` have :func:`simulate` semantics and apply
    per tier; policies that need the replayed trace receive the tier's
    *own* demand stream (clairvoyant bounds stay honest per tier).
    """
    # Lazy upcall: the spec model builds on the registry, which ranks
    # above the engine — see module docstring and docs/ARCHITECTURE.md.
    from repro.hierarchy.spec import parse_hierarchy

    spec = parse_hierarchy(hierarchy)
    if total_bytes is None:
        total_bytes = trace.total_bytes()
    caching = spec.caching_tiers
    innermost = len(caching) - 1
    cur = trace
    tiers: list[TierReplay] = []
    for idx, tier in enumerate(caching):
        capacity = tier.capacity_bytes(total_bytes)
        # No deeper cache consumes the innermost tier's miss stream, so
        # it needs no mask.
        mask = None if idx == innermost else np.zeros(cur.n_accesses, bool)
        metrics = simulate(
            cur,
            tier.policy,
            capacity,
            partition=partition,
            batch=batch,
            hit_out=mask,
        )
        if mask is not None:
            cur = cur.subset_accesses(~mask)
        tiers.append(
            TierReplay(
                tier=tier.name,
                policy=str(tier.policy),
                capacity_bytes=int(capacity),
                link_cost=tier.link_cost,
                metrics=metrics,
            )
        )
    last = tiers[-1].metrics
    return HierarchyResult(
        hierarchy=str(spec),
        tiers=tuple(tiers),
        origin_requests=last.misses,
        origin_demand_bytes=last.bytes_requested - last.bytes_hit,
        origin_fetched_bytes=last.bytes_fetched,
    )
