"""Learned working-set prefetching (Tait & Duchamp-style, §7).

Tait & Duchamp (cited in §7) prefetch the remainder of a learned
"working tree" once the access sequence identifies it uniquely.  This
policy is the job-granular analogue: it *learns* co-access groups online
— with no filecule oracle — and prefetches them.

Learning rule: the predicted group of a file starts as the first job set
it appears in and is *intersected* with every later job set containing
it.  The prediction therefore shrinks monotonically toward the set of
files that have appeared in **every** job with the target — which is
exactly a superset of the file's true filecule and converges to it as
history accumulates.  (The convergence is the same partition-refinement
argument as :mod:`repro.core.incremental`, computed per file.)

On a miss, the current prediction (minus already-cached members) is
prefetched within a budget; eviction stays file-granularity LRU.  The
interesting comparison is against :class:`~repro.cache.FileculeLRU`,
which gets the converged groups for free from offline identification.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.cache.base import BYPASS_CODE, HIT_CODE, ReplacementPolicy


class WorkingSetPrefetchLRU(ReplacementPolicy):
    """File-LRU plus online-learned co-access-group prefetch."""

    name = "working-set-prefetch"

    def __init__(
        self,
        capacity_bytes: int,
        file_sizes: np.ndarray,
        max_prefetch_fraction: float = 0.5,
        max_group_size: int = 4096,
    ) -> None:
        """``file_sizes`` prices prefetched members; a learned group is
        dropped (prediction disabled for that file) if it ever exceeds
        ``max_group_size`` members, bounding learner memory."""
        super().__init__(capacity_bytes)
        if not 0 < max_prefetch_fraction <= 1:
            raise ValueError(
                f"max_prefetch_fraction must be in (0, 1], got "
                f"{max_prefetch_fraction}"
            )
        if max_group_size < 1:
            raise ValueError(f"max_group_size must be >= 1, got {max_group_size}")
        self._file_sizes = np.asarray(file_sizes, dtype=np.int64)
        self._entries: OrderedDict[int, int] = OrderedDict()
        self._groups: dict[int, frozenset[int]] = {}
        self._prefetch_budget = int(capacity_bytes * max_prefetch_fraction)
        self._max_group_size = max_group_size

    def __contains__(self, file_id: int) -> bool:
        return file_id in self._entries

    def predicted_group(self, file_id: int) -> frozenset[int]:
        """Current learned co-access group of ``file_id`` (may be empty)."""
        return self._groups.get(file_id, frozenset())

    def begin_job(self, file_ids, now: float) -> None:
        job_set = frozenset(int(f) for f in np.asarray(file_ids))
        if not job_set or len(job_set) > self._max_group_size:
            return
        for f in job_set:
            known = self._groups.get(f)
            self._groups[f] = job_set if known is None else (known & job_set)

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

        budget = self._prefetch_budget - size
        for member in sorted(self._groups.get(file_id, ())):
            if member == file_id or member in self._entries:
                continue
            m_size = int(self._file_sizes[member])
            if m_size > budget:
                continue
            self._insert(member, m_size)
            fetched += m_size
            budget -= m_size
        return fetched
