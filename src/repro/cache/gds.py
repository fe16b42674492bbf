"""Greedy-Dual-Size and Landlord baselines.

Both are cost-aware generalizations of LRU.  Greedy-Dual-Size (Cao &
Irani) keeps per-object credit ``H = L + cost/size`` where ``L`` is a
global inflation value set to the credit of the last eviction victim;
Landlord (Young [37], the comparison baseline of Otoo et al.'s
file-bundle work cited in §7) is its generalization where hits restore
credit.  With ``cost = size`` Landlord prioritizes by recency-with-byte-
cost, the "modified Landlord" configuration Otoo et al. compared against.

Implementation: :class:`~repro.cache.heap.HeapCache`; the global
inflation ``L`` is tracked additively so credits never need rescanning.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.cache.heap import HeapCache

CostFn = Callable[[int, int], float]  # (file_id, size) -> cost


def _uniform_cost(file_id: int, size: int) -> float:
    """Miss cost 1 per file: optimizes file miss rate."""
    return 1.0


def _byte_cost(file_id: int, size: int) -> float:
    """Miss cost proportional to size: optimizes byte miss rate."""
    return float(size)


class GreedyDualSize(HeapCache):
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
        self._inflation = 0.0  # L

    def _priority(self, file_id: int, size: int) -> float:
        return self._inflation + self._cost_fn(file_id, size) / max(size, 1)

    def _on_evict(self, file_id: int, priority: float) -> None:
        self._inflation = priority


class Landlord(GreedyDualSize):
    """Landlord with byte costs — the "modified Landlord" of [37]/§7.

    Identical machinery to Greedy-Dual-Size (Landlord *is* the
    generalization); configured with ``cost = size`` so the per-byte rent
    is uniform and eviction reduces to inflated recency over bytes.
    """

    name = "landlord"

    def __init__(self, capacity_bytes: int) -> None:
        super().__init__(capacity_bytes, cost_fn=_byte_cost)
