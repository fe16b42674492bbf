"""File-granularity LRU — the paper's baseline policy.

"In LRU, to make room for more data, the file with the oldest timestamp
(that is, the least recently used) is evicted" (§4).  FermiLab's
production disk caches used exactly this, which is why the paper picked it.

``request`` is the per-access replay hot path (one call per access, ~13M
accesses at paper scale), so it answers with a plain int code and keeps
the dict operations and occupancy accounting inline.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.cache.base import BYPASS_CODE, HIT_CODE, ReplacementPolicy
from repro.cache.batch import GroupedReplayKernel


class FileLRU(ReplacementPolicy):
    """Least-recently-used eviction at single-file granularity."""

    name = "file-lru"

    def __init__(self, capacity_bytes: int) -> None:
        super().__init__(capacity_bytes)
        self._entries: OrderedDict[int, int] = OrderedDict()  # file -> size

    def __contains__(self, file_id: int) -> bool:
        return file_id in self._entries

    def batch_kernel(self, trace, hit_out=None):
        """Whole-trace replay: group = file, LRU recency (see batch.py)."""
        if self._entries or self.used_bytes:
            return None
        return GroupedReplayKernel(
            trace,
            capacity=self.capacity_bytes,
            group_sizes=trace.file_sizes,
            touch_on_hit=True,
            hit_out=hit_out,
        )

    def request(self, file_id: int, size: int, now: float) -> int:
        entries = self._entries
        if entries.get(file_id) is not None:
            entries.move_to_end(file_id)
            return HIT_CODE
        capacity = self.capacity_bytes
        if size > capacity:
            # Larger than the whole cache: stream without caching.
            return BYPASS_CODE
        # Inlined _release/_charge: a full cache evicts on nearly every
        # miss, so the accounting runs on locals and writes occupancy
        # back once.  The negative-occupancy guard is impossible here
        # (we only subtract sizes we previously charged); the capacity
        # guard is kept verbatim.
        used = self.used_bytes
        if used + size > capacity:
            popitem = entries.popitem
            while used + size > capacity:
                used -= popitem(last=False)[1]
        entries[file_id] = size
        used += size
        if used > capacity:
            raise RuntimeError(
                f"{self.name}: used {used} exceeds capacity "
                f"{capacity} — eviction logic is broken"
            )
        self.used_bytes = used
        return size
