"""File-bundle caching in the spirit of Otoo, Rotem & Romosan (§4/§7).

The paper cites Otoo et al.'s observation that popularity-only policies
fail "for environments where multiple files are requested simultaneously"
and describes their remedy: an eviction priority that considers file
popularity, *membership to a bundle* and *the size of the bundle*, where
a bundle is a job's whole input set.  The paper explicitly leaves
"the comparison of this strategy with filecule LRU on the DZero traces"
as future work — this module provides that comparison's subject.

Online formulation (a Greedy-Dual generalization):

* each distinct input set (bundle) is tracked with a request count;
* when a job requests its bundle, every member's credit is refreshed to
  ``L + requests(bundle) / size(bundle)`` — popular, compact bundles get
  sticky members; files of huge or one-shot bundles are cheap victims;
* eviction pops the minimum-credit file, inflating ``L`` as in
  Greedy-Dual-Size, at single-file granularity (no filecule knowledge is
  required — exactly Otoo et al.'s selling point, and the reason the
  paper wanted the head-to-head against filecule-LRU).
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.cache.base import BYPASS_CODE, HIT_CODE, ReplacementPolicy


class FileBundleCache(ReplacementPolicy):
    """Bundle-utility eviction at file granularity (Otoo-style)."""

    name = "file-bundle"

    def __init__(self, capacity_bytes: int) -> None:
        super().__init__(capacity_bytes)
        self._sizes: dict[int, int] = {}
        self._credit: dict[int, float] = {}
        self._entry_seq: dict[int, int] = {}
        self._heap: list[tuple[float, int, int]] = []
        self._seq = 0
        self._inflation = 0.0
        # bundle signature -> (request count, total bytes)
        self._bundles: dict[bytes, list] = {}
        # the utility the current job's members inherit
        self._current_utility = 0.0
        self._bundle_entry: list | None = None

    def __contains__(self, file_id: int) -> bool:
        return file_id in self._sizes

    def begin_job(self, file_ids, now: float) -> None:
        if len(file_ids) == 0:
            self._current_utility = 0.0
            self._bundle_entry = None
            return
        try:
            signature = np.asarray(file_ids, dtype=np.int64).tobytes()
        except OverflowError:  # a wire id past int64 keys by value
            signature = tuple(file_ids)
        entry = self._bundles.get(signature)
        if entry is None:
            entry = self._bundles[signature] = [0, 0]
        entry[0] += 1
        self._bundle_entry = entry
        # on the bundle's first traversal its byte size accumulates as the
        # member sizes stream past request(); until then utility falls
        # back to per-file density
        self._current_utility = (
            entry[0] / entry[1] if entry[1] > 0 else 0.0
        )

    def _push(self, file_id: int) -> None:
        heapq.heappush(self._heap, (self._credit[file_id], self._seq, file_id))
        self._entry_seq[file_id] = self._seq
        self._seq += 1

    def _evict_one(self) -> None:
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
        raise RuntimeError("file-bundle: occupancy positive but heap empty")

    def _fresh_credit(self, size: int) -> float:
        utility = self._current_utility
        if utility <= 0.0:
            # first pass over a new bundle: fall back to per-file density
            utility = 1.0 / max(size, 1)
        return self._inflation + utility

    def request(self, file_id: int, size: int, now: float) -> int:
        # grow the bundle's recorded byte size on first encounter
        entry = self._bundle_entry
        if entry is not None and entry[0] == 1:
            entry[1] += size
        hit = file_id in self._sizes
        if hit:
            self._credit[file_id] = self._fresh_credit(size)
            self._push(file_id)
            return HIT_CODE
        if size > self.capacity_bytes:
            return BYPASS_CODE
        while self.used_bytes + size > self.capacity_bytes:
            self._evict_one()
        self._sizes[file_id] = size
        self._credit[file_id] = self._fresh_credit(size)
        self._push(file_id)
        self._charge(size)
        return size
