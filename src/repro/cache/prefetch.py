"""Group-prefetching LRU — the related-work baseline of §7.

Amer et al. / Ganger & Kaashoek (cited in §7) retrieve a file's whole
*group* upon request but keep per-file eviction.  This policy generalizes
them: the grouping is any integer labeling over files (e.g. the
dataset-of-birth blocks from the workload metadata, or a filecule
labeling).  On a miss, every group member is prefetched (in ascending id
order, each skipped if it does not fit the prefetch budget left);
eviction stays file-granularity LRU, so partially-evicted groups are
possible — the instability the paper contrasts filecules against.

The miss-then-prefetch loop is :class:`PrefetchLRU`, which the learned
working-set prefetcher (:mod:`repro.cache.working_set`) shares; the two
differ only in the group they prefetch.
"""

from __future__ import annotations

from abc import abstractmethod
from collections import OrderedDict

import numpy as np

from repro.cache.base import BYPASS_CODE, HIT_CODE, ReplacementPolicy


class PrefetchLRU(ReplacementPolicy):
    """File-granularity LRU that prefetches a group of files on a miss.

    A subclass names the group through :meth:`_group`.  Members are
    prefetched in ascending id order, each only if it fits the budget
    left: a prefetch batch never displaces more than
    ``max_prefetch_fraction`` of the cache, counting the missed file.
    """

    def __init__(
        self,
        capacity_bytes: int,
        file_sizes: np.ndarray,
        max_prefetch_fraction: float,
    ) -> None:
        super().__init__(capacity_bytes)
        if not 0 < max_prefetch_fraction <= 1:
            raise ValueError(
                f"max_prefetch_fraction must be in (0, 1], got "
                f"{max_prefetch_fraction}"
            )
        # plain ints: a miss may price hundreds of members
        self._file_sizes: list[int] = np.asarray(
            file_sizes, dtype=np.int64
        ).tolist()
        self._entries: OrderedDict[int, int] = OrderedDict()  # file -> size
        self._prefetch_budget = int(capacity_bytes * max_prefetch_fraction)

    def __contains__(self, file_id: int) -> bool:
        return file_id in self._entries

    @abstractmethod
    def _group(self, file_id: int) -> list[int]:
        """Ascending ids of the files to prefetch when ``file_id`` misses
        (the list may hold ``file_id`` itself)."""

    def _insert(self, file_id: int, size: int) -> None:
        while self.used_bytes + size > self.capacity_bytes:
            _, evicted = self._entries.popitem(last=False)
            self._release(evicted)
        self._entries[file_id] = size
        self._charge(size)

    def request(self, file_id: int, size: int, now: float) -> int:
        entries = self._entries
        if file_id in entries:
            entries.move_to_end(file_id)
            return HIT_CODE
        if size > self.capacity_bytes:
            return BYPASS_CODE
        self._insert(file_id, size)
        fetched = size
        budget = self._prefetch_budget - size
        file_sizes = self._file_sizes
        for member in self._group(file_id):
            if member == file_id or member in entries:
                continue
            m_size = file_sizes[member]
            if m_size > budget:
                continue
            self._insert(member, m_size)
            fetched += m_size
            budget -= m_size
        return fetched


class GroupPrefetchLRU(PrefetchLRU):
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
        super().__init__(capacity_bytes, file_sizes, max_prefetch_fraction)
        self._labels = np.asarray(group_labels, dtype=np.int64)
        # group -> member file ids (built lazily per requested group)
        self._members: dict[int, list[int]] = {}

    def _group(self, file_id: int) -> list[int]:
        label = int(self._labels[file_id])
        if label < 0:
            return []
        members = self._members.get(label)
        if members is None:
            members = np.flatnonzero(self._labels == label).tolist()
            self._members[label] = members
        return members
