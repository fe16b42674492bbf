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

import numpy as np

from repro.cache.prefetch import PrefetchLRU


class WorkingSetPrefetchLRU(PrefetchLRU):
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
        super().__init__(capacity_bytes, file_sizes, max_prefetch_fraction)
        if max_group_size < 1:
            raise ValueError(f"max_group_size must be >= 1, got {max_group_size}")
        self._groups: dict[int, frozenset[int]] = {}
        self._max_group_size = max_group_size

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

    def _group(self, file_id: int) -> list[int]:
        return sorted(self._groups.get(file_id, ()))
