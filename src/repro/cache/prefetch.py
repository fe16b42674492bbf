"""Group-prefetching LRU — the related-work baseline of §7.

Amer et al. / Ganger & Kaashoek (cited in §7) retrieve a file's whole
*group* upon request but keep per-file eviction.  This policy generalizes
them: the grouping is any integer labeling over files (e.g. the
dataset-of-birth blocks from the workload metadata, or a filecule
labeling).  On a miss, every group member is prefetched (as capacity
allows, largest-leftover skipped first); eviction stays file-granularity
LRU, so partially-evicted groups are possible — the instability the paper
contrasts filecules against.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.cache.base import BYPASS_CODE, HIT_CODE, ReplacementPolicy


class GroupPrefetchLRU(ReplacementPolicy):
    """File-granularity LRU with whole-group prefetch on miss."""

    name = "group-prefetch-lru"

    def __init__(
        self,
        capacity_bytes: int,
        group_labels: np.ndarray,
        file_sizes: np.ndarray,
        max_prefetch_fraction: float = 0.5,
    ) -> None:
        """``group_labels[file]`` gives the file's group (-1 = ungrouped);
        ``file_sizes[file]`` its size.  A prefetch batch never displaces
        more than ``max_prefetch_fraction`` of the cache."""
        super().__init__(capacity_bytes)
        if not 0 < max_prefetch_fraction <= 1:
            raise ValueError(
                f"max_prefetch_fraction must be in (0, 1], got "
                f"{max_prefetch_fraction}"
            )
        self._labels = np.asarray(group_labels, dtype=np.int64)
        self._file_sizes = np.asarray(file_sizes, dtype=np.int64)
        self._entries: OrderedDict[int, int] = OrderedDict()  # file -> size
        self._prefetch_budget = int(capacity_bytes * max_prefetch_fraction)
        # group -> member file ids (built lazily per requested group)
        self._members_cache: dict[int, np.ndarray] = {}

    def __contains__(self, file_id: int) -> bool:
        return file_id in self._entries

    def _group_members(self, label: int) -> np.ndarray:
        members = self._members_cache.get(label)
        if members is None:
            members = np.flatnonzero(self._labels == label)
            self._members_cache[label] = members
        return members

    def _insert(self, file_id: int, size: int) -> None:
        while self.used_bytes + size > self.capacity_bytes:
            _, evicted = self._entries.popitem(last=False)
            self._release(evicted)
        self._entries[file_id] = size
        self._charge(size)

    def request(self, file_id: int, size: int, now: float) -> int:
        if file_id in self._entries:
            self._entries.move_to_end(file_id)
            return HIT_CODE
        if size > self.capacity_bytes:
            return BYPASS_CODE
        self._insert(file_id, size)
        fetched = size

        label = int(self._labels[file_id])
        if label >= 0:
            budget = self._prefetch_budget - size
            for member in self._group_members(label):
                member = int(member)
                if member == file_id or member in self._entries:
                    continue
                m_size = int(self._file_sizes[member])
                if m_size > budget:
                    continue
                self._insert(member, m_size)
                fetched += m_size
                budget -= m_size
        return fetched
