"""Greedy-Dual-Size and Landlord baselines.

Both are cost-aware generalizations of LRU.  Greedy-Dual-Size (Cao &
Irani) keeps per-object credit ``H = L + cost/size`` where ``L`` is a
global inflation value set to the credit of the last eviction victim;
Landlord (Young [37], the comparison baseline of Otoo et al.'s
file-bundle work cited in §7) is its generalization where hits restore
credit.  With ``cost = size`` Landlord prioritizes by recency-with-byte-
cost, the "modified Landlord" configuration Otoo et al. compared against.

Implementation: a heap with lazy invalidation; the global inflation ``L``
is tracked additively so credits never need rescanning.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable

from repro.cache.base import BYPASS_CODE, HIT_CODE, ReplacementPolicy

CostFn = Callable[[int, int], float]  # (file_id, size) -> cost


def _uniform_cost(file_id: int, size: int) -> float:
    """Miss cost 1 per file: optimizes file miss rate."""
    return 1.0


def _byte_cost(file_id: int, size: int) -> float:
    """Miss cost proportional to size: optimizes byte miss rate."""
    return float(size)


class GreedyDualSize(ReplacementPolicy):
    """Greedy-Dual-Size with pluggable cost model (default: uniform).

    ``cost_fn`` maps (file_id, size) to the penalty of re-fetching the
    file; eviction victimizes the smallest ``L + cost/size``.
    """

    name = "greedy-dual-size"

    def __init__(
        self, capacity_bytes: int, cost_fn: CostFn | None = None
    ) -> None:
        super().__init__(capacity_bytes)
        self._cost_fn = cost_fn or _uniform_cost
        self._credit: dict[int, float] = {}  # file -> absolute credit H
        self._sizes: dict[int, int] = {}
        self._heap: list[tuple[float, int, int]] = []  # (H, seq, file)
        self._seq = 0
        self._entry_seq: dict[int, int] = {}  # file -> latest pushed seq
        self._inflation = 0.0  # L

    def __contains__(self, file_id: int) -> bool:
        return file_id in self._sizes

    def _push(self, file_id: int) -> None:
        heapq.heappush(self._heap, (self._credit[file_id], self._seq, file_id))
        self._entry_seq[file_id] = self._seq
        self._seq += 1

    def _evict_one(self) -> None:
        # Stale entries (an old push superseded by a refresh) are skipped:
        # both the credit and the push sequence must match the latest.  The
        # sequence check also makes equal-credit ties break toward the
        # least recently refreshed file, as in reference GDS.
        while self._heap:
            credit, seq, file_id = heapq.heappop(self._heap)
            if (
                file_id in self._sizes
                and self._credit.get(file_id) == credit
                and self._entry_seq.get(file_id) == seq
            ):
                self._inflation = credit
                self._release(self._sizes.pop(file_id))
                del self._credit[file_id]
                del self._entry_seq[file_id]
                return
        raise RuntimeError("gds: occupancy positive but heap empty")

    def _fresh_credit(self, file_id: int, size: int) -> float:
        return self._inflation + self._cost_fn(file_id, size) / max(size, 1)

    def request(self, file_id: int, size: int, now: float) -> int:
        if file_id in self._sizes:
            self._credit[file_id] = self._fresh_credit(file_id, size)
            self._push(file_id)
            return HIT_CODE
        if size > self.capacity_bytes:
            return BYPASS_CODE
        while self.used_bytes + size > self.capacity_bytes:
            self._evict_one()
        self._sizes[file_id] = size
        self._credit[file_id] = self._fresh_credit(file_id, size)
        self._push(file_id)
        self._charge(size)
        return size


class Landlord(GreedyDualSize):
    """Landlord with byte costs — the "modified Landlord" of [37]/§7.

    Identical machinery to Greedy-Dual-Size (Landlord *is* the
    generalization); configured with ``cost = size`` so the per-byte rent
    is uniform and eviction reduces to inflated recency over bytes.
    """

    name = "landlord"

    def __init__(self, capacity_bytes: int) -> None:
        super().__init__(capacity_bytes, cost_fn=_byte_cost)
