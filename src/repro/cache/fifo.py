"""File-granularity FIFO baseline.

Evicts in insertion order regardless of reuse — the classic strawman that
shows how much recency actually buys on this workload.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.cache.base import BYPASS_CODE, HIT_CODE, ReplacementPolicy
from repro.cache.batch import GroupedReplayKernel


class FileFIFO(ReplacementPolicy):
    """First-in-first-out eviction at single-file granularity."""

    name = "file-fifo"

    def __init__(self, capacity_bytes: int) -> None:
        super().__init__(capacity_bytes)
        self._entries: OrderedDict[int, int] = OrderedDict()

    def __contains__(self, file_id: int) -> bool:
        return file_id in self._entries

    def batch_kernel(self, trace, hit_out=None):
        """Whole-trace replay: group = file, insertion order (no touch)."""
        if self._entries or self.used_bytes:
            return None
        return GroupedReplayKernel(
            trace,
            capacity=self.capacity_bytes,
            group_sizes=trace.file_sizes,
            touch_on_hit=False,
            hit_out=hit_out,
        )

    def request(self, file_id: int, size: int, now: float) -> int:
        if file_id in self._entries:
            # no reordering: insertion order is eviction order
            return HIT_CODE
        if size > self.capacity_bytes:
            return BYPASS_CODE
        while self.used_bytes + size > self.capacity_bytes:
            _, evicted_size = self._entries.popitem(last=False)
            self._release(evicted_size)
        self._entries[file_id] = size
        self._charge(size)
        return size
