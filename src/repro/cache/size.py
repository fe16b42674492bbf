"""SIZE baseline: evict the largest cached file first.

A classic web-caching policy (favor keeping many small objects).  On
DZero-like workloads it is a useful foil: file sizes are narrowly
distributed within a tier, so SIZE degenerates and recency-based policies
win — evidence for the paper's point that correlation structure, not size,
is what matters here.
"""

from __future__ import annotations

import heapq

from repro.cache.base import BYPASS_CODE, HIT_CODE, ReplacementPolicy


class LargestFirst(ReplacementPolicy):
    """Evict the largest resident file; ties broken oldest-first."""

    name = "largest-first"

    def __init__(self, capacity_bytes: int) -> None:
        super().__init__(capacity_bytes)
        self._sizes: dict[int, int] = {}
        self._heap: list[tuple[int, int, int]] = []  # (-size, seq, file)
        self._seq = 0

    def __contains__(self, file_id: int) -> bool:
        return file_id in self._sizes

    def _evict_one(self) -> None:
        while self._heap:
            neg_size, _, file_id = heapq.heappop(self._heap)
            size = self._sizes.get(file_id)
            if size is not None and size == -neg_size:
                del self._sizes[file_id]
                self._release(size)
                return
        raise RuntimeError("largest-first: occupancy positive but heap empty")

    def request(self, file_id: int, size: int, now: float) -> int:
        if file_id in self._sizes:
            return HIT_CODE
        if size > self.capacity_bytes:
            return BYPASS_CODE
        while self.used_bytes + size > self.capacity_bytes:
            self._evict_one()
        self._sizes[file_id] = size
        heapq.heappush(self._heap, (-size, self._seq, file_id))
        self._seq += 1
        self._charge(size)
        return size
