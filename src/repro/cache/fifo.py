"""File-granularity FIFO baseline.

Evicts in insertion order regardless of reuse — the classic strawman that
shows how much recency actually buys on this workload.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.cache.base import ReplacementPolicy, RequestOutcome
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
        if self._entries or self.used_bytes or self.evict_listener is not None:
            return None
        return GroupedReplayKernel(
            trace,
            capacity=self.capacity_bytes,
            group_sizes=trace.file_size_list,
            touch_on_hit=False,
            hit_out=hit_out,
        )

    def request(self, file_id: int, size: int, now: float) -> RequestOutcome:
        if file_id in self._entries:
            # no reordering: insertion order is eviction order
            return RequestOutcome(hit=True)
        if size > self.capacity_bytes:
            return RequestOutcome(hit=False, bytes_fetched=size, bypassed=True)
        while self.used_bytes + size > self.capacity_bytes:
            _, evicted_size = self._entries.popitem(last=False)
            self._release(evicted_size)
        self._entries[file_id] = size
        self._charge(size)
        return RequestOutcome(hit=False, bytes_fetched=size)
