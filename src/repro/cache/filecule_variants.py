"""Filecule-aware replacement beyond LRU (§8 future work).

The paper closes with: "We plan to design and carefully investigate the
costs and benefits of filecule-aware cache replacement policies."  These
are the natural candidates: the classic frequency- and cost-aware
policies lifted to filecule granularity.  Loading/eviction is all-or-
nothing per filecule, like :class:`~repro.cache.FileculeLRU`.
"""

from __future__ import annotations

import heapq

from repro.cache.base import BYPASS_CODE, HIT_CODE, ReplacementPolicy
from repro.core.filecule import FileculePartition


class _FileculePolicyBase(ReplacementPolicy):
    """Shared machinery: label resolution, whole-filecule load/evict via
    a lazy min-heap over per-filecule priorities."""

    def __init__(self, capacity_bytes: int, partition: FileculePartition) -> None:
        super().__init__(capacity_bytes)
        self._partition = partition
        self._labels = partition.labels
        self._fc_sizes = partition.sizes_bytes
        self._resident: dict[int, int] = {}  # label -> size
        self._priority: dict[int, float] = {}
        self._entry_seq: dict[int, int] = {}
        self._heap: list[tuple[float, int, int]] = []
        self._seq = 0

    def __contains__(self, file_id: int) -> bool:
        label = int(self._labels[file_id])
        return label >= 0 and label in self._resident

    def _label_of(self, file_id: int) -> int:
        label = int(self._labels[file_id])
        if label < 0:
            raise KeyError(
                f"file {file_id} has no filecule; partition does not match "
                f"the replayed trace"
            )
        return label

    def _push(self, label: int) -> None:
        heapq.heappush(self._heap, (self._priority[label], self._seq, label))
        self._entry_seq[label] = self._seq
        self._seq += 1

    def _evict_one(self) -> None:
        while self._heap:
            priority, seq, label = heapq.heappop(self._heap)
            if (
                label in self._resident
                and self._priority.get(label) == priority
                and self._entry_seq.get(label) == seq
            ):
                self._on_evict(label, priority)
                self._release(self._resident.pop(label))
                del self._priority[label]
                del self._entry_seq[label]
                return
        raise RuntimeError(f"{self.name}: occupancy positive but heap empty")

    # subclass hooks -----------------------------------------------------
    def _fresh_priority(self, label: int) -> float:
        raise NotImplementedError

    def _on_evict(self, label: int, priority: float) -> None:
        """Called when a victim is chosen (GDS inflation hook)."""

    # ---------------------------------------------------------------------
    def request(self, file_id: int, size: int, now: float) -> int:
        label = self._label_of(file_id)
        if label in self._resident:
            self._priority[label] = self._fresh_priority(label)
            self._push(label)
            return HIT_CODE
        fc_size = int(self._fc_sizes[label])
        if fc_size > self.capacity_bytes:
            return BYPASS_CODE
        while self.used_bytes + fc_size > self.capacity_bytes:
            self._evict_one()
        self._resident[label] = fc_size
        self._priority[label] = self._fresh_priority(label)
        self._push(label)
        self._charge(fc_size)
        return fc_size


class FileculeLFU(_FileculePolicyBase):
    """Evict the least-frequently-requested resident filecule.

    Frequency counts accumulate across evictions (perfect LFU), matching
    :class:`~repro.cache.FileLFU` at the coarser granularity.
    """

    name = "filecule-lfu"

    def __init__(self, capacity_bytes: int, partition: FileculePartition) -> None:
        super().__init__(capacity_bytes, partition)
        self._freq: dict[int, int] = {}

    def request(self, file_id: int, size: int, now: float) -> int:
        label = self._label_of(file_id)
        self._freq[label] = self._freq.get(label, 0) + 1
        return super().request(file_id, size, now)

    def _fresh_priority(self, label: int) -> float:
        return float(self._freq.get(label, 0))


class FileculeGDS(_FileculePolicyBase):
    """Greedy-Dual-Size over filecules.

    Credit ``H = L + cost/size`` with the filecule's byte size as the
    denominator; ``cost_mode`` picks the numerator: ``"uniform"`` (one
    miss penalty per filecule — optimizes filecule miss rate) or
    ``"files"`` (one penalty per member file — optimizes the paper's
    per-request miss rate, since a filecule miss costs one miss per
    member request).
    """

    name = "filecule-gds"

    def __init__(
        self,
        capacity_bytes: int,
        partition: FileculePartition,
        cost_mode: str = "files",
    ) -> None:
        super().__init__(capacity_bytes, partition)
        if cost_mode not in ("uniform", "files"):
            raise ValueError(
                f"cost_mode must be 'uniform' or 'files', got {cost_mode!r}"
            )
        self._cost_mode = cost_mode
        self._inflation = 0.0
        self._n_files = partition.files_per_filecule

    def _fresh_priority(self, label: int) -> float:
        if self._cost_mode == "uniform":
            cost = 1.0
        else:
            cost = float(self._n_files[label])
        return self._inflation + cost / max(int(self._fc_sizes[label]), 1)

    def _on_evict(self, label: int, priority: float) -> None:
        self._inflation = priority
