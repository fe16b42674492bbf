"""ARC — Adaptive Replacement Cache (Megiddo & Modha, FAST'03).

The strongest classical *adaptive* file-granularity policy: ARC balances
recency (list T1) against frequency (list T2) using ghost lists (B1, B2)
of recently evicted keys to learn, online, how much capacity each side
deserves.  Including it in the ablation makes the paper's point as hard
as possible for single-file policies: even a policy that self-tunes its
recency/frequency mix cannot recover the co-access structure filecules
expose.

This is the standard algorithm adapted to byte capacities: the learned
target ``p`` is tracked in bytes, and REPLACE evicts from T1 while its
byte occupancy exceeds ``p`` (from T2 otherwise).  Ghost lists are
bounded to the cache's byte size each, evicting oldest-first.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.cache.base import BYPASS_CODE, HIT_CODE, ReplacementPolicy


class _ByteList:
    """An ordered (LRU -> MRU) set of file ids with byte accounting."""

    __slots__ = ("entries", "bytes")

    def __init__(self) -> None:
        self.entries: OrderedDict[int, int] = OrderedDict()  # file -> size
        self.bytes = 0

    def __contains__(self, file_id: int) -> bool:
        return file_id in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def add_mru(self, file_id: int, size: int) -> None:
        self.entries[file_id] = size
        self.bytes += size

    def remove(self, file_id: int) -> int:
        size = self.entries.pop(file_id)
        self.bytes -= size
        return size

    def pop_lru(self) -> tuple[int, int]:
        file_id, size = self.entries.popitem(last=False)
        self.bytes -= size
        return file_id, size


class AdaptiveReplacementCache(ReplacementPolicy):
    """Byte-capacity ARC at single-file granularity."""

    name = "arc"

    def __init__(self, capacity_bytes: int) -> None:
        super().__init__(capacity_bytes)
        self._t1 = _ByteList()  # resident, seen once recently
        self._t2 = _ByteList()  # resident, seen at least twice
        self._b1 = _ByteList()  # ghost of T1
        self._b2 = _ByteList()  # ghost of T2
        self._p = 0.0  # target byte size of T1

    def __contains__(self, file_id: int) -> bool:
        return file_id in self._t1 or file_id in self._t2

    # ------------------------------------------------------------------
    def _replace(self, file_id: int) -> None:
        """Evict one resident file per the ARC REPLACE rule."""
        from_t1 = len(self._t1) > 0 and (
            self._t1.bytes > self._p
            or (file_id in self._b2 and self._t1.bytes == self._p)
            or len(self._t2) == 0
        )
        if from_t1:
            victim, size = self._t1.pop_lru()
            self._b1.add_mru(victim, size)
        else:
            victim, size = self._t2.pop_lru()
            self._b2.add_mru(victim, size)
        self._release(size)
        # bound ghost lists to one cache's worth of bytes each
        while self._b1.bytes > self.capacity_bytes:
            self._b1.pop_lru()
        while self._b2.bytes > self.capacity_bytes:
            self._b2.pop_lru()

    def _make_room(self, size: int, file_id: int) -> None:
        while self.used_bytes + size > self.capacity_bytes:
            self._replace(file_id)

    def request(self, file_id: int, size: int, now: float) -> int:
        # case I: hit in T1 or T2 -> promote to T2 MRU
        if file_id in self._t1:
            self._t1.remove(file_id)
            self._t2.add_mru(file_id, size)
            return HIT_CODE
        if file_id in self._t2:
            self._t2.remove(file_id)
            self._t2.add_mru(file_id, size)
            return HIT_CODE

        if size > self.capacity_bytes:
            return BYPASS_CODE

        # case II: ghost hit in B1 -> favour recency (grow p)
        if file_id in self._b1:
            ratio = max(self._b2.bytes / max(self._b1.bytes, 1), 1.0)
            self._p = min(self._p + ratio * size, float(self.capacity_bytes))
            self._b1.remove(file_id)
            self._make_room(size, file_id)
            self._t2.add_mru(file_id, size)
            self._charge(size)
            return size

        # case III: ghost hit in B2 -> favour frequency (shrink p)
        if file_id in self._b2:
            ratio = max(self._b1.bytes / max(self._b2.bytes, 1), 1.0)
            self._p = max(self._p - ratio * size, 0.0)
            self._b2.remove(file_id)
            self._make_room(size, file_id)
            self._t2.add_mru(file_id, size)
            self._charge(size)
            return size

        # case IV: brand new key -> insert at T1 MRU
        self._make_room(size, file_id)
        self._t1.add_mru(file_id, size)
        self._charge(size)
        return size
