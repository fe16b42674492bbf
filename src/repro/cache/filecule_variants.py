"""Filecule-aware replacement beyond LRU (§8 future work).

The paper closes with: "We plan to design and carefully investigate the
costs and benefits of filecule-aware cache replacement policies."  These
are the natural candidates: the classic frequency- and cost-aware
policies lifted to filecule granularity.  Loading/eviction is all-or-
nothing per filecule, like :class:`~repro.cache.FileculeLRU`.
"""

from __future__ import annotations

from repro.cache.heap import HeapCache
from repro.core.filecule import FileculePartition


class _FileculePolicyBase(HeapCache):
    """Shared machinery: a request names its file's filecule, which is
    loaded and evicted whole by the heap core."""

    def __init__(self, capacity_bytes: int, partition: FileculePartition) -> None:
        super().__init__(capacity_bytes)
        # request() runs once per access; plain lists avoid boxing a
        # numpy scalar per lookup, as in FileculeLRU
        self._label_list: list[int] = partition.labels.tolist()
        self._size_list: list[int] = partition.sizes_bytes.tolist()

    def __contains__(self, file_id: int) -> bool:
        label = self._label_list[file_id]
        return label >= 0 and label in self._resident

    def _label_of(self, file_id: int) -> int:
        label = self._label_list[file_id]
        if label < 0:
            raise KeyError(
                f"file {file_id} has no filecule; partition does not match "
                f"the replayed trace"
            )
        return label

    def request(self, file_id: int, size: int, now: float) -> int:
        label = self._label_of(file_id)
        return HeapCache.request(self, label, self._size_list[label], now)


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
        return HeapCache.request(self, label, self._size_list[label], now)

    def _priority(self, label: int, size: int) -> float:
        return float(self._freq[label])


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
        self._inflation = 0.0
        costs = partition.files_per_filecule.astype(float)
        if cost_mode == "uniform":
            costs[:] = 1.0
        self._costs: list[float] = costs.tolist()  # label -> miss cost

    def _priority(self, label: int, size: int) -> float:
        return self._inflation + self._costs[label] / max(size, 1)

    def _on_evict(self, label: int, priority: float) -> None:
        self._inflation = priority
