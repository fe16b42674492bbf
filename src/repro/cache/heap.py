"""The lazy-invalidation heap behind the priority-ordered policies.

Greedy-Dual-Size and Landlord (:mod:`repro.cache.gds`), the file-bundle
cache (:mod:`repro.cache.bundle`) and the filecule LFU and GDS
variants (:mod:`repro.cache.filecule_variants`) all evict the resident
key of least priority, where a key is a file id or a filecule label.
They differ only in how a key is priced and in what an eviction
updates, so :class:`HeapCache` holds their one eviction loop and each
policy supplies :meth:`~HeapCache._priority` and
:meth:`~HeapCache._on_evict`.

A refreshed key is pushed again rather than moved: an entry that is
not the latest push of a resident key is dropped when it surfaces.
Only a hit leaves an entry stale, so a hit that finds the heap holding
at least twice as many entries as resident keys, plus 64, first
rebuilds it from its live entries: a cache that rarely evicts does not
keep one entry per access, and a miss pays nothing for the bound.  A
stale entry is never evicted, so the rebuild changes no outcome.
Equal priorities evict the key pushed least recently.
"""

from __future__ import annotations

import heapq
from abc import abstractmethod

from repro.cache.base import BYPASS_CODE, HIT_CODE, ReplacementPolicy


class HeapCache(ReplacementPolicy):
    """Evict the resident key whose latest priority is least."""

    def __init__(self, capacity_bytes: int) -> None:
        super().__init__(capacity_bytes)
        self._resident: dict[int, int] = {}  # key -> admitted bytes
        self._heap: list[tuple[float, int, int]] = []  # (priority, push, key)
        self._live: dict[int, int] = {}  # resident key -> its latest push
        self._pushes = 0

    def __contains__(self, key: int) -> bool:
        return key in self._resident

    @abstractmethod
    def _priority(self, key: int, size: int) -> float:
        """The priority ``key`` (of ``size`` bytes) is pushed with, on a
        hit and on admission; an admission asks after its evictions."""

    def _on_evict(self, key: int, priority: float) -> None:
        """Called once per victim, with the priority it was evicted at."""

    def request(self, key: int, size: int, now: float) -> int:
        resident = self._resident
        live = self._live
        heap = self._heap
        if key in resident:
            code = HIT_CODE
            if len(heap) >= 2 * len(live) + 64:
                heap[:] = [e for e in heap if live.get(e[2]) == e[1]]
                heapq.heapify(heap)
        elif size > self.capacity_bytes:
            return BYPASS_CODE
        else:
            while self.used_bytes + size > self.capacity_bytes:
                try:
                    priority, push, victim = heapq.heappop(heap)
                except IndexError:
                    raise RuntimeError(
                        f"{self.name}: occupancy positive but heap empty"
                    ) from None
                if live.get(victim) == push:
                    del live[victim]
                    self._release(resident.pop(victim))
                    self._on_evict(victim, priority)
            resident[key] = size
            self._charge(size)
            code = size
        push = self._pushes = self._pushes + 1
        live[key] = push
        heapq.heappush(heap, (self._priority(key, size), push, key))
        return code
