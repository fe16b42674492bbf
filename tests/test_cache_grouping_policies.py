"""Unit tests for the grouping-aware cache policies added beyond the paper:
file-bundle (Otoo-style), learned working-set prefetch (Tait&Duchamp-style)
and the filecule-granularity LFU/GDS variants."""

import numpy as np
import pytest

from repro.cache.base import BYPASS_CODE, HIT_CODE
from repro.cache.bundle import FileBundleCache
from repro.cache.filecule_variants import FileculeGDS, FileculeLFU
from repro.cache.lru import FileLRU
from repro.cache.simulator import simulate
from repro.cache.working_set import WorkingSetPrefetchLRU
from repro.core.identify import find_filecules
from tests.conftest import make_trace


class TestFileBundleCache:
    def test_basic_hit_miss(self):
        p = FileBundleCache(100)
        p.begin_job([1, 2], 0.0)
        assert p.request(1, 10, 0.0) == 10
        assert p.request(1, 10, 0.0) == HIT_CODE

    def test_popular_bundle_members_survive(self):
        p = FileBundleCache(30)
        # bundle A = {1,2} requested three times -> high utility
        for t in (0.0, 1.0, 2.0):
            p.begin_job([1, 2], t)
            p.request(1, 10, t)
            p.request(2, 10, t)
        # one-shot bundle B = {3} then pressure from bundle C = {4}
        p.begin_job([3], 3.0)
        p.request(3, 10, 3.0)
        p.begin_job([4], 4.0)
        p.request(4, 10, 4.0)  # must evict: the one-shot member 3 goes
        assert 1 in p and 2 in p
        assert 3 not in p

    def test_bundle_size_learned_on_first_pass(self):
        p = FileBundleCache(1000)
        p.begin_job([1, 2, 3], 0.0)
        for f in (1, 2, 3):
            p.request(f, 10, 0.0)
        assert p._bundles[np.array([1, 2, 3], dtype=np.int64).tobytes()] == [1, 30]

    def test_empty_job_ok(self):
        p = FileBundleCache(100)
        p.begin_job([], 0.0)
        assert p.request(1, 10, 0.0) == 10

    def test_bypass(self):
        p = FileBundleCache(5)
        p.begin_job([1], 0.0)
        out = p.request(1, 10, 0.0)
        assert out == BYPASS_CODE and p.used_bytes == 0

    def test_never_worse_than_blind_eviction_on_bundled_trace(self, small_trace):
        cap = max(int(0.02 * small_trace.total_bytes()), 1)
        m_lru = simulate(small_trace, lambda c: FileLRU(c), cap)
        m_bundle = simulate(small_trace, lambda c: FileBundleCache(c), cap)
        assert m_bundle.miss_rate <= m_lru.miss_rate + 0.02


class TestWorkingSetPrefetch:
    def test_learns_group_by_intersection(self):
        p = WorkingSetPrefetchLRU(1000, np.full(10, 10))
        p.begin_job([1, 2, 3], 0.0)
        assert p.predicted_group(1) == {1, 2, 3}
        p.begin_job([1, 2], 1.0)
        assert p.predicted_group(1) == {1, 2}
        assert p.predicted_group(3) == {1, 2, 3}  # 3 unseen since

    def test_prefetches_prediction(self):
        p = WorkingSetPrefetchLRU(1000, np.full(10, 10))
        p.begin_job([1, 2], 0.0)
        out = p.request(1, 10, 0.0)
        assert out == 20
        assert 2 in p

    def test_prediction_converges_to_filecule(self):
        jobs = [[0, 1, 2], [0, 1], [0, 1, 3]]
        trace = make_trace(jobs)
        p = WorkingSetPrefetchLRU(1000, trace.file_sizes)
        for job in jobs:
            p.begin_job(job, 0.0)
        partition = find_filecules(trace)
        fc01 = partition.filecule_of(0)
        assert p.predicted_group(0) == set(fc01.file_ids.tolist())

    def test_budget_respected(self):
        p = WorkingSetPrefetchLRU(100, np.full(20, 10), max_prefetch_fraction=0.3)
        p.begin_job(list(range(10)), 0.0)
        out = p.request(0, 10, 0.0)
        assert 0 <= out <= 30

    def test_oversized_group_disables_learning(self):
        p = WorkingSetPrefetchLRU(
            100, np.full(100, 1), max_group_size=5
        )
        p.begin_job(list(range(50)), 0.0)
        assert p.predicted_group(0) == frozenset()

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkingSetPrefetchLRU(10, np.array([1]), max_prefetch_fraction=0)
        with pytest.raises(ValueError):
            WorkingSetPrefetchLRU(10, np.array([1]), max_group_size=0)


@pytest.fixture()
def fc_trace():
    # filecules: {0,1} (jobs 0,2,3), {2} (job 1)
    return make_trace([[0, 1], [2], [0, 1], [0, 1]], file_sizes=[10, 10, 10])


class TestFileculeVariants:
    def test_lfu_keeps_hot_filecule(self, fc_trace):
        partition = find_filecules(fc_trace)
        p = FileculeLFU(20, partition)
        p.request(0, 10, 0.0)  # {0,1} freq 1 (20 bytes fills cache)
        p.request(0, 10, 1.0)  # freq 2
        p.request(2, 10, 2.0)  # {2} freq 1: must evict {0,1}... cap 20
        # {0,1} is 20 bytes; inserting {2} (10) requires evicting {0,1}
        assert 2 in p
        assert p.used_bytes <= 20

    def test_lfu_eviction_order(self, fc_trace):
        partition = find_filecules(fc_trace)
        p = FileculeLFU(30, partition)  # fits both filecules
        p.request(0, 10, 0.0)
        p.request(0, 10, 1.0)
        p.request(2, 10, 2.0)
        # now a hypothetical third filecule would evict {2} (freq 1);
        # simulate pressure by shrinking: request again keeps both
        assert 0 in p and 2 in p

    def test_gds_whole_filecule_semantics(self, fc_trace):
        partition = find_filecules(fc_trace)
        p = FileculeGDS(30, partition)
        out = p.request(0, 10, 0.0)
        assert out == 20  # whole filecule
        assert 1 in p
        assert p.request(1, 10, 0.0) == HIT_CODE

    def test_gds_bypass_oversized(self, fc_trace):
        partition = find_filecules(fc_trace)
        p = FileculeGDS(15, partition)
        out = p.request(0, 10, 0.0)
        assert out == BYPASS_CODE  # streams the requested 10 bytes
        assert p.used_bytes == 0

    def test_gds_cost_modes(self, fc_trace):
        partition = find_filecules(fc_trace)
        for mode in ("uniform", "files"):
            p = FileculeGDS(30, partition, cost_mode=mode)
            p.request(0, 10, 0.0)
            assert 0 in p
        with pytest.raises(ValueError):
            FileculeGDS(30, partition, cost_mode="bytes")

    def test_unknown_file_rejected(self, fc_trace):
        t = make_trace([[0, 1], [2]], n_files=4, file_sizes=[10, 10, 10, 10])
        partition = find_filecules(t)
        p = FileculeLFU(100, partition)
        with pytest.raises(KeyError):
            p.request(3, 10, 0.0)

    def test_variants_behave_like_lru_family(self, small_trace, small_partition):
        """All filecule policies land in the same miss-rate ballpark."""
        cap = max(int(0.05 * small_trace.total_bytes()), 1)
        from repro.cache.filecule_lru import FileculeLRU

        rates = {}
        for name, factory in {
            "lru": lambda c: FileculeLRU(c, small_partition),
            "lfu": lambda c: FileculeLFU(c, small_partition),
            "gds": lambda c: FileculeGDS(c, small_partition),
        }.items():
            rates[name] = simulate(small_trace, factory, cap).miss_rate
        assert max(rates.values()) - min(rates.values()) < 0.15
