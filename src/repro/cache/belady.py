"""Belady's MIN: the clairvoyant replacement reference.

Evicting the resident object whose *next use* is farthest in the future
is optimal for unit-size objects (Belady/Mattson); with variable sizes it
remains the standard clairvoyant reference.  Comparing filecule-LRU
against MIN bounds how much of the remaining miss rate any online policy
could still recover — the strongest context for the paper's Figure 10.

The policies here are *stream-bound*: they are built from a trace's
canonical replay order (each job's files in ascending id at the job's
start, jobs in id order — exactly what :func:`repro.cache.simulate`
replays) and keep an internal position cursor.  Feeding them a different
stream is a usage error and is detected by checking the requested file
against the expected stream entry.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.cache.base import BYPASS_CODE, HIT_CODE, ReplacementPolicy
from repro.core.filecule import FileculePartition
from repro.traces.trace import Trace

#: Sentinel next-use position for "never used again".
NEVER = np.iinfo(np.int64).max


def next_use_positions(stream: np.ndarray) -> np.ndarray:
    """For each position i, the next position referencing ``stream[i]``.

    Positions with no later reference get :data:`NEVER`.  One backward
    pass, O(N).
    """
    stream = np.asarray(stream, dtype=np.int64)
    out = np.full(len(stream), NEVER, dtype=np.int64)
    last: dict[int, int] = {}
    for i in range(len(stream) - 1, -1, -1):
        unit = int(stream[i])
        nxt = last.get(unit)
        if nxt is not None:
            out[i] = nxt
        last[unit] = i
    return out


class _StreamBoundMIN(ReplacementPolicy):
    """Shared MIN machinery over a precomputed unit stream."""

    def __init__(
        self,
        capacity_bytes: int,
        unit_stream: np.ndarray,
        unit_sizes_of: np.ndarray,
    ) -> None:
        """``unit_stream[i]`` is the unit referenced by request i;
        ``unit_sizes_of[u]`` the byte size of unit u."""
        super().__init__(capacity_bytes)
        self._stream = np.asarray(unit_stream, dtype=np.int64)
        self._next_use = next_use_positions(self._stream)
        self._unit_sizes = np.asarray(unit_sizes_of, dtype=np.int64)
        self._pos = 0
        self._resident: dict[int, int] = {}  # unit -> size
        self._unit_next: dict[int, int] = {}  # unit -> its next use position
        self._heap: list[tuple[int, int]] = []  # (-next_use, unit)

    def __contains__(self, file_id: int) -> bool:  # pragma: no cover - abstract-ish
        raise NotImplementedError

    def _unit_resident(self, unit: int) -> bool:
        return unit in self._resident

    def _evict_one(self) -> None:
        while self._heap:
            neg_next, unit = heapq.heappop(self._heap)
            if unit in self._resident and self._unit_next.get(unit) == -neg_next:
                self._release(self._resident.pop(unit))
                del self._unit_next[unit]
                return
        raise RuntimeError("belady: occupancy positive but heap empty")

    def _request_unit(self, unit: int) -> int:
        if self._pos >= len(self._stream):
            raise RuntimeError(
                "belady: more requests than the bound stream contains"
            )
        if int(self._stream[self._pos]) != unit:
            raise RuntimeError(
                f"belady: request stream diverged at position {self._pos} "
                f"(expected unit {int(self._stream[self._pos])}, got {unit})"
            )
        next_use = int(self._next_use[self._pos])
        self._pos += 1

        if unit in self._resident:
            self._unit_next[unit] = next_use
            heapq.heappush(self._heap, (-next_use, unit))
            return HIT_CODE

        size = int(self._unit_sizes[unit])
        if size > self.capacity_bytes:
            return BYPASS_CODE
        if next_use == NEVER:
            # never used again: stream just the requested bytes without
            # caching (MIN would never keep it over anything useful)
            return BYPASS_CODE
        while self.used_bytes + size > self.capacity_bytes:
            self._evict_one()
        self._resident[unit] = size
        self._unit_next[unit] = next_use
        heapq.heappush(self._heap, (-next_use, unit))
        self._charge(size)
        return size


class BeladyMIN(_StreamBoundMIN):
    """Clairvoyant MIN at file granularity, bound to one trace."""

    name = "belady-min"

    def __init__(self, capacity_bytes: int, trace: Trace) -> None:
        super().__init__(
            capacity_bytes, trace.access_files, trace.file_sizes
        )

    def __contains__(self, file_id: int) -> bool:
        return self._unit_resident(int(file_id))

    def request(self, file_id: int, size: int, now: float) -> int:
        return self._request_unit(int(file_id))


class FileculeBeladyMIN(_StreamBoundMIN):
    """Clairvoyant MIN at filecule granularity, bound to one trace.

    Every file request maps to its filecule label, so once a filecule is
    loaded its sibling requests within the same job hit — the same
    optimistic accounting as :class:`~repro.cache.FileculeLRU`.
    """

    name = "filecule-belady-min"

    def __init__(
        self,
        capacity_bytes: int,
        trace: Trace,
        partition: FileculePartition,
    ) -> None:
        labels = partition.labels[trace.access_files]
        if np.any(labels < 0):
            raise ValueError(
                "trace accesses files outside the partition; identify "
                "filecules on the same trace"
            )
        super().__init__(capacity_bytes, labels, partition.sizes_bytes)
        self._labels_by_file = partition.labels

    def __contains__(self, file_id: int) -> bool:
        label = int(self._labels_by_file[file_id])
        return label >= 0 and self._unit_resident(label)

    def request(self, file_id: int, size: int, now: float) -> int:
        label = int(self._labels_by_file[file_id])
        if label < 0:
            raise KeyError(
                f"file {file_id} has no filecule; partition does not match "
                f"the replayed trace"
            )
        return self._request_unit(label)
