"""Unit tests for filecule-granularity LRU, including the accounting
equivalence theorem (conservative filecule-LRU == file-LRU)."""

import numpy as np
import pytest

from repro.cache.base import BYPASS_CODE, HIT_CODE
from repro.cache.filecule_lru import FileculeLRU
from repro.cache.lru import FileLRU
from repro.cache.prefetch import GroupPrefetchLRU
from repro.cache.simulator import simulate
from repro.core.identify import find_filecules
from tests.conftest import make_trace


@pytest.fixture()
def trace():
    # filecules: {0,1} (jobs 0,2), {2} (job 0), {3} (job 1); file 4 unused
    return make_trace(
        [[0, 1, 2], [3], [0, 1]],
        n_files=5,
        file_sizes=[10, 10, 10, 10, 10],
    )


@pytest.fixture()
def partition(trace):
    return find_filecules(trace)


class TestFileculeLoadAndEvict:
    def test_miss_fetches_whole_filecule(self, trace, partition):
        p = FileculeLRU(100, partition)
        outcome = p.request(0, 10, 0.0)
        assert outcome != HIT_CODE
        assert outcome == 20  # a miss admitting files 0 and 1
        assert 1 in p  # sibling loaded too

    def test_sibling_hit(self, trace, partition):
        p = FileculeLRU(100, partition)
        p.request(0, 10, 0.0)
        assert p.request(1, 10, 0.0) == HIT_CODE  # intra-job prefetch hit (default)

    def test_eviction_at_filecule_granularity(self, trace, partition):
        p = FileculeLRU(30, partition)
        p.request(0, 10, 0.0)  # load {0,1} -> 20 bytes
        p.request(2, 10, 1.0)  # load {2} -> 30 bytes total
        p.request(3, 10, 2.0)  # load {3}: evict LRU filecule {0,1}
        assert 0 not in p and 1 not in p
        assert 2 in p and 3 in p

    def test_bypass_oversized_filecule(self, trace, partition):
        p = FileculeLRU(15, partition)  # {0,1} is 20 bytes > 15
        outcome = p.request(0, 10, 0.0)
        assert outcome != HIT_CODE and outcome == BYPASS_CODE
        # A bypass streams only the requested file's 10 bytes.
        assert p.used_bytes == 0

    def test_unpartitioned_file_rejected(self, trace, partition):
        p = FileculeLRU(100, partition)
        with pytest.raises(KeyError, match="no filecule"):
            p.request(4, 10, 0.0)  # file 4 was never accessed

    def test_cached_filecules_order(self, trace, partition):
        p = FileculeLRU(100, partition)
        p.request(0, 10, 0.0)
        p.request(3, 10, 1.0)
        p.request(0, 10, 2.0)  # touch {0,1} again
        order = p.cached_filecules()
        assert order[-1] == int(partition.labels[0])  # most recent last


class TestConservativeAccounting:
    def test_same_job_member_counts_as_miss(self, trace, partition):
        p = FileculeLRU(100, partition, intra_job_hits=False)
        first = p.request(0, 10, 0.0)
        second = p.request(1, 10, 0.0)  # same timestamp = same job
        assert first != HIT_CODE and second != HIT_CODE
        assert first == 20
        assert second == 0  # no double fetch

    def test_next_job_hits(self, trace, partition):
        p = FileculeLRU(100, partition, intra_job_hits=False)
        p.request(0, 10, 0.0)
        assert p.request(0, 10, 5.0) == HIT_CODE
        assert p.request(1, 10, 5.0) == HIT_CODE

    def test_equivalence_theorem(self, small_trace, small_partition):
        """Conservative filecule-LRU has exactly file-LRU's miss rate.

        Members of a filecule are always co-requested, so the residency
        sets of the two policies coincide on every trace; the only
        difference — intra-job prefetch hits — is switched off here.
        """
        capacity = max(int(0.01 * small_trace.total_bytes()), 1)
        m_file = simulate(small_trace, lambda c: FileLRU(c), capacity)
        m_cons = simulate(
            small_trace,
            lambda c: FileculeLRU(c, small_partition, intra_job_hits=False),
            capacity,
        )
        assert m_cons.misses == pytest.approx(m_file.misses, rel=0.01)

    def test_optimistic_strictly_better(self, small_trace, small_partition):
        capacity = max(int(0.05 * small_trace.total_bytes()), 1)
        m_file = simulate(small_trace, lambda c: FileLRU(c), capacity)
        m_opt = simulate(
            small_trace, lambda c: FileculeLRU(c, small_partition), capacity
        )
        assert m_opt.miss_rate < m_file.miss_rate


class TestGroupPrefetchLRU:
    def test_prefetches_group(self):
        labels = np.array([0, 0, 1])
        sizes = np.array([10, 10, 10])
        p = GroupPrefetchLRU(100, labels, sizes)
        outcome = p.request(0, 10, 0.0)
        assert outcome == 20
        assert 1 in p

    def test_prefetch_respects_budget(self):
        labels = np.zeros(10, dtype=np.int64)
        sizes = np.full(10, 10)
        p = GroupPrefetchLRU(100, labels, sizes, max_prefetch_fraction=0.3)
        outcome = p.request(0, 10, 0.0)
        assert 0 <= outcome <= 30

    def test_file_granularity_eviction(self):
        labels = np.array([0, 0, 1])
        sizes = np.array([10, 10, 15])
        p = GroupPrefetchLRU(25, labels, sizes)
        p.request(0, 10, 0.0)  # loads 0 and prefetches 1
        p.request(2, 15, 1.0)  # evicts file 0 only (LRU head)
        assert p.used_bytes <= 25
        assert 2 in p

    def test_ungrouped_file(self):
        labels = np.array([-1, 0])
        sizes = np.array([10, 10])
        p = GroupPrefetchLRU(100, labels, sizes)
        outcome = p.request(0, 10, 0.0)
        assert outcome == 10  # nothing to prefetch

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            GroupPrefetchLRU(10, np.array([0]), np.array([1]), max_prefetch_fraction=0)
