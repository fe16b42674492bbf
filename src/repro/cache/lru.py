"""File-granularity LRU — the paper's baseline policy.

"In LRU, to make room for more data, the file with the oldest timestamp
(that is, the least recently used) is evicted" (§4).  FermiLab's
production disk caches used exactly this, which is why the paper picked it.

``request`` is the replay hot path (one call per access, ~13M accesses at
paper scale), so it avoids per-call allocations: hits return the shared
:data:`~repro.cache.base.HIT` singleton and miss outcomes are memoized
per file — a file's size (and hence its fetch/bypass outcome) never
changes within a run, so the frozen outcome object is reused.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.cache.base import HIT, ReplacementPolicy, RequestOutcome
from repro.cache.batch import GroupedReplayKernel


class FileLRU(ReplacementPolicy):
    """Least-recently-used eviction at single-file granularity."""

    name = "file-lru"

    def __init__(self, capacity_bytes: int) -> None:
        super().__init__(capacity_bytes)
        self._entries: OrderedDict[int, int] = OrderedDict()  # file -> size
        self._miss_outcomes: dict[int, RequestOutcome] = {}

    def __contains__(self, file_id: int) -> bool:
        return file_id in self._entries

    def batch_kernel(self, trace, hit_out=None):
        """Whole-trace replay: group = file, LRU recency (see batch.py)."""
        if self._entries or self.used_bytes or self.evict_listener is not None:
            return None
        return GroupedReplayKernel(
            trace,
            capacity=self.capacity_bytes,
            group_sizes=trace.file_size_list,
            touch_on_hit=True,
            hit_out=hit_out,
        )

    def request(self, file_id: int, size: int, now: float) -> RequestOutcome:
        entries = self._entries
        if entries.get(file_id) is not None:
            entries.move_to_end(file_id)
            return HIT
        outcome = self._miss_outcomes.get(file_id)
        if outcome is None or outcome.bytes_fetched != size:
            outcome = RequestOutcome(
                hit=False,
                bytes_fetched=size,
                bypassed=size > self.capacity_bytes,
            )
            self._miss_outcomes[file_id] = outcome
        if outcome.bypassed:
            # Larger than the whole cache: stream without caching.
            return outcome
        # Inlined _release/_charge: a full cache evicts on nearly every
        # miss, so the accounting runs on locals and writes occupancy
        # back once.  The negative-occupancy guard is impossible here
        # (we only subtract sizes we previously charged); the capacity
        # guard is kept verbatim.
        capacity = self.capacity_bytes
        used = self.used_bytes
        if used + size > capacity:
            popitem = entries.popitem
            listener = self.evict_listener
            while used + size > capacity:
                _, evicted_size = popitem(last=False)
                used -= evicted_size
                if listener is not None:
                    listener(evicted_size)
        entries[file_id] = size
        used += size
        if used > capacity:
            raise RuntimeError(
                f"{self.name}: used {used} exceeds capacity "
                f"{capacity} — eviction logic is broken"
            )
        self.used_bytes = used
        return outcome
