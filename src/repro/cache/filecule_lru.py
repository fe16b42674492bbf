"""Filecule-granularity LRU — the paper's proposed policy (§4).

"For filecule LRU, we load the entire filecule of which a requested file
is member and evict the least recently used filecules to make room for
it."  A request for any member therefore hits iff the filecule is
resident; a miss fetches the whole filecule (counted in
``bytes_fetched``), and eviction removes whole filecules in LRU order.

Filecules larger than the cache (the paper's largest is 17 TB against a
1 TB cache) are *partially* serviced: the requested file streams through
without caching — the same bypass rule as the file-granularity policies,
at filecule scope.  This is what compresses the file-vs-filecule gap to a
few percent at 1 TB in Figure 10.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import cached_property

from repro.cache.base import BYPASS_CODE, HIT_CODE, ReplacementPolicy
from repro.cache.batch import GroupedReplayKernel
from repro.core.filecule import FileculePartition


class FileculeLRU(ReplacementPolicy):
    """LRU over whole filecules.

    Parameters
    ----------
    capacity_bytes:
        Cache size.
    partition:
        The filecule partition of the trace being replayed.  Requests for
        files outside the partition (label ``-1``) are rejected — that
        means the partition and trace are mismatched.
    intra_job_hits:
        Accounting of member requests issued by the *same job* that
        triggered the filecule load.  ``True`` (default) treats the load
        as instantaneous, so the rest of the job's requests into that
        filecule hit — this is the accounting consistent with the paper's
        Figure 10 (with ``False``, filecule-LRU provably degenerates to
        file-LRU: members of a filecule are always co-requested, so the
        two policies cache identical content; the test suite asserts this
        equivalence).  ``False`` models the loaded bytes as still in
        flight for the triggering job — a conservative lower bound.

        Jobs are distinguished by their request timestamp (each job
        issues its whole input set at its start time, and start times are
        unique in this simulator).
    """

    name = "filecule-lru"

    def __init__(
        self,
        capacity_bytes: int,
        partition: FileculePartition,
        intra_job_hits: bool = True,
    ) -> None:
        super().__init__(capacity_bytes)
        self._partition = partition
        self._labels = partition.labels
        self._sizes = partition.sizes_bytes
        # request() runs once per access; plain-list copies avoid boxing
        # a numpy scalar per lookup (int(labels[f]) / int(sizes[label])).
        # The label list is built on first use (see _label_list).
        self._size_list: list[int] = partition.sizes_bytes.tolist()
        self._entries: OrderedDict[int, int] = OrderedDict()  # label -> size
        self._intra_job_hits = intra_job_hits
        self._load_key: dict[int, float] = {}  # label -> loading job's time

    @cached_property
    def _label_list(self) -> list[int]:
        """Plain-list labels, one per catalog file, for :meth:`request`.

        Built on the first request, so a run the batch kernel serves
        never pays for the conversion.
        """
        return self._labels.tolist()

    def __contains__(self, file_id: int) -> bool:
        label = int(self._labels[file_id])
        return label >= 0 and label in self._entries

    def cached_filecules(self) -> list[int]:
        """Resident filecule ids, least recently used first."""
        return list(self._entries)

    def batch_kernel(self, trace, hit_out=None):
        """Whole-trace replay: group = filecule label, LRU recency.

        Only for the paper's default ``intra_job_hits=True`` accounting
        — with ``False``, outcomes depend on the requesting job's
        timestamp, which the group-residency kernel does not model.
        """
        if not self._intra_job_hits or self._entries or self.used_bytes:
            return None
        return GroupedReplayKernel(
            trace,
            capacity=self.capacity_bytes,
            group_sizes=self._sizes,
            labels=self._labels,
            touch_on_hit=True,
            hit_out=hit_out,
        )

    def request(self, file_id: int, size: int, now: float) -> int:
        label = self._label_list[file_id]
        if label < 0:
            raise KeyError(
                f"file {file_id} has no filecule; partition does not match "
                f"the replayed trace"
            )
        entries = self._entries
        if label in entries:
            entries.move_to_end(label)
            if (
                not self._intra_job_hits
                and self._load_key.get(label) == now
            ):
                # The job that triggered the load re-requests a member
                # whose bytes are still in flight: a miss fetching nothing.
                return 0
            return HIT_CODE
        fc_size = self._size_list[label]
        if fc_size > self.capacity_bytes:
            # Whole filecule cannot fit: stream just the requested file.
            return BYPASS_CODE
        while self.used_bytes + fc_size > self.capacity_bytes:
            evicted_label, evicted = entries.popitem(last=False)
            self._release(evicted)
            self._load_key.pop(evicted_label, None)
        entries[label] = fc_size
        self._charge(fc_size)
        if not self._intra_job_hits:
            self._load_key[label] = now
        return fc_size
