"""The lazy heap behind the priority-ordered policies stays bounded.

:class:`repro.cache.heap.HeapCache` pushes a fresh entry on every hit
and drops a stale one only when it surfaces at an eviction, so a cache
that never evicts would keep one entry per access.  A hit that finds
the heap holding twice the resident keys plus 64 first rebuilds it from
its live entries; the outcomes are pinned separately in
``test_policy_pins.py``.
"""

from __future__ import annotations

import pytest

from repro import registry
from repro.cache.heap import HeapCache
from repro.engine import simulate

#: Every registry policy built on the heap core.
HEAP_POLICIES = (
    "greedy-dual-size",
    "landlord",
    "file-bundle",
    "filecule-lfu",
    "filecule-gds",
)


@pytest.mark.parametrize("name", HEAP_POLICIES)
def test_heap_is_bounded_when_nothing_is_evicted(
    name, tiny_trace, tiny_partition
):
    built = []

    def factory(capacity):
        policy = registry.build(
            name, capacity, trace=tiny_trace, partition=tiny_partition
        )
        built.append(policy)
        return policy

    metrics = simulate(
        tiny_trace, factory, tiny_trace.total_bytes(), name=name, batch=False
    )
    (policy,) = built
    assert isinstance(policy, HeapCache)
    assert metrics.hits > 2 * len(policy._live) + 64
    assert len(policy._heap) <= 2 * len(policy._live) + 64
