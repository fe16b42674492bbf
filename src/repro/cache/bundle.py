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

import numpy as np

from repro.cache.heap import HeapCache


class FileBundleCache(HeapCache):
    """Bundle-utility eviction at file granularity (Otoo-style)."""

    name = "file-bundle"

    def __init__(self, capacity_bytes: int) -> None:
        super().__init__(capacity_bytes)
        self._inflation = 0.0
        # bundle signature -> (request count, total bytes)
        self._bundles: dict[bytes, list] = {}
        # the utility the current job's members inherit
        self._current_utility = 0.0
        self._bundle_entry: list | None = None

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

    def _priority(self, file_id: int, size: int) -> float:
        utility = self._current_utility
        if utility <= 0.0:
            # first pass over a new bundle: fall back to per-file density
            utility = 1.0 / max(size, 1)
        return self._inflation + utility

    def _on_evict(self, file_id: int, priority: float) -> None:
        self._inflation = priority

    def request(self, file_id: int, size: int, now: float) -> int:
        # grow the bundle's recorded byte size on first encounter
        entry = self._bundle_entry
        if entry is not None and entry[0] == 1:
            entry[1] += size
        return HeapCache.request(self, file_id, size, now)
