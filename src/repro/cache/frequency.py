"""File-granularity LFU baseline.

Otoo et al. (cited in §4/§7) observe that popularity-only policies are
inefficient when jobs request many files simultaneously; this
implementation lets the reproduction quantify that observation against
filecule-LRU.  Frequency counts persist across evictions ("perfect LFU"),
with least-recent insertion as tie-breaker.
"""

from __future__ import annotations

import heapq
from collections import defaultdict

from repro.cache.base import BYPASS_CODE, HIT_CODE, ReplacementPolicy


class FileLFU(ReplacementPolicy):
    """Evict the least-frequently-used resident file (perfect LFU)."""

    name = "file-lfu"

    def __init__(self, capacity_bytes: int) -> None:
        super().__init__(capacity_bytes)
        self._sizes: dict[int, int] = {}
        self._freq: dict[int, int] = defaultdict(int)
        # heap of (freq-at-push, seq, file); stale entries skipped lazily
        self._heap: list[tuple[int, int, int]] = []
        self._seq = 0

    def __contains__(self, file_id: int) -> bool:
        return file_id in self._sizes

    def _push(self, file_id: int) -> None:
        heapq.heappush(self._heap, (self._freq[file_id], self._seq, file_id))
        self._seq += 1

    def _evict_one(self) -> None:
        while self._heap:
            freq, _, file_id = heapq.heappop(self._heap)
            size = self._sizes.get(file_id)
            if size is not None and freq == self._freq[file_id]:
                del self._sizes[file_id]
                self._release(size)
                return
        raise RuntimeError("lfu: occupancy positive but heap empty")

    def request(self, file_id: int, size: int, now: float) -> int:
        self._freq[file_id] += 1
        if file_id in self._sizes:
            self._push(file_id)  # refresh heap position lazily
            return HIT_CODE
        if size > self.capacity_bytes:
            return BYPASS_CODE
        while self.used_bytes + size > self.capacity_bytes:
            self._evict_one()
        self._sizes[file_id] = size
        self._push(file_id)
        self._charge(size)
        return size
