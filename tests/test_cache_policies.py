"""Unit tests for the single-file cache replacement policies."""

import pytest

from repro.cache.base import BYPASS_CODE, HIT_CODE, CacheMetrics
from repro.cache.fifo import FileFIFO
from repro.cache.frequency import FileLFU
from repro.cache.gds import GreedyDualSize, Landlord
from repro.cache.lru import FileLRU
from repro.cache.size import LargestFirst
from repro.service.state import _fold_window

ALL_FILE_POLICIES = [FileFIFO, FileLRU, FileLFU, LargestFirst, GreedyDualSize, Landlord]


class TestCommonBehaviour:
    @pytest.mark.parametrize("policy_cls", ALL_FILE_POLICIES)
    def test_miss_then_hit(self, policy_cls):
        p = policy_cls(100)
        assert p.request(1, 10, 0.0) == 10
        assert p.request(1, 10, 1.0) == HIT_CODE
        assert 1 in p

    @pytest.mark.parametrize("policy_cls", ALL_FILE_POLICIES)
    def test_bypass_oversized(self, policy_cls):
        p = policy_cls(100)
        outcome = p.request(1, 1000, 0.0)
        assert outcome != HIT_CODE
        assert outcome == BYPASS_CODE
        assert 1 not in p
        assert p.used_bytes == 0

    @pytest.mark.parametrize("policy_cls", ALL_FILE_POLICIES)
    def test_occupancy_never_exceeds_capacity(self, policy_cls):
        p = policy_cls(50)
        for i in range(40):
            p.request(i % 13, 7 + (i % 3), float(i))
            assert 0 <= p.used_bytes <= 50

    @pytest.mark.parametrize("policy_cls", ALL_FILE_POLICIES)
    def test_eviction_makes_room(self, policy_cls):
        p = policy_cls(20)
        p.request(1, 10, 0.0)
        p.request(2, 10, 1.0)
        p.request(3, 10, 2.0)  # must evict someone
        assert 3 in p
        assert p.used_bytes <= 20

    @pytest.mark.parametrize("policy_cls", ALL_FILE_POLICIES)
    def test_zero_capacity_rejected(self, policy_cls):
        with pytest.raises(ValueError):
            policy_cls(0)


class TestLRUOrder:
    def test_lru_victim(self):
        p = FileLRU(20)
        p.request(1, 10, 0.0)
        p.request(2, 10, 1.0)
        p.request(1, 10, 2.0)  # touch 1 -> 2 is now LRU
        p.request(3, 10, 3.0)
        assert 2 not in p
        assert 1 in p and 3 in p


class TestFIFOOrder:
    def test_fifo_ignores_touches(self):
        p = FileFIFO(20)
        p.request(1, 10, 0.0)
        p.request(2, 10, 1.0)
        p.request(1, 10, 2.0)  # hit does not reorder
        p.request(3, 10, 3.0)
        assert 1 not in p  # first in, first out
        assert 2 in p and 3 in p


class TestLFUOrder:
    def test_lfu_victim(self):
        p = FileLFU(20)
        p.request(1, 10, 0.0)
        p.request(1, 10, 1.0)
        p.request(1, 10, 2.0)
        p.request(2, 10, 3.0)
        p.request(3, 10, 4.0)  # evict 2 (freq 1) not 1 (freq 3)
        assert 1 in p and 3 in p
        assert 2 not in p

    def test_frequency_persists_across_eviction(self):
        p = FileLFU(10)
        for _ in range(5):
            p.request(1, 10, 0.0)  # freq(1)=5
        p.request(2, 10, 1.0)  # evicts 1
        assert 1 not in p
        p.request(1, 10, 2.0)  # freq(1)=6, evicts 2 (freq 1)
        p.request(3, 10, 3.0)  # candidate victims: 1(freq 6) -> evict...
        # 1 has the higher frequency, so 1 survives until 3 arrives;
        # 3 replaces whatever is least frequent at that moment
        assert p.used_bytes <= 10


class TestLargestFirst:
    def test_evicts_biggest(self):
        p = LargestFirst(100)
        p.request(1, 60, 0.0)
        p.request(2, 30, 1.0)
        p.request(3, 40, 2.0)  # evict 60 (largest), keep 30
        assert 1 not in p
        assert 2 in p and 3 in p


class TestGreedyDualSize:
    def test_small_files_preferred_under_uniform_cost(self):
        p = GreedyDualSize(100)
        p.request(1, 90, 0.0)  # H = 1/90 (small credit)
        p.request(2, 10, 1.0)  # H = 1/10
        p.request(3, 50, 2.0)  # must evict: victim is 1 (lowest credit)
        assert 1 not in p
        assert 2 in p and 3 in p

    def test_hit_refreshes_credit(self):
        p = GreedyDualSize(100)
        p.request(1, 50, 0.0)
        p.request(2, 50, 1.0)
        p.request(1, 50, 2.0)  # refresh 1
        p.request(3, 50, 3.0)  # victim should be 2
        assert 2 not in p
        assert 1 in p and 3 in p

    def test_landlord_byte_cost(self):
        # with cost = size, credit = 1 for everything: pure inflated recency
        p = Landlord(100)
        p.request(1, 60, 0.0)
        p.request(2, 40, 1.0)
        p.request(3, 60, 2.0)
        assert 3 in p
        assert p.used_bytes <= 100


class TestMetricsAccounting:
    def test_counters(self):
        m = CacheMetrics(name="x", capacity_bytes=100)
        p = FileLRU(100)
        requests = [(1, 10), (2, 20), (1, 10)]
        codes = [p.request(f, size, 0.0) for f, size in requests]
        assert codes == [10, 20, HIT_CODE]
        job_hits, totals = _fold_window(codes, [0, 3], [10, 20, 10])
        assert job_hits == [1]
        m.record_totals(*totals)
        assert m.requests == 3
        assert m.hits == 1
        assert m.misses == 2
        assert m.miss_rate == pytest.approx(2 / 3)
        assert m.bytes_requested == 40
        assert m.bytes_hit == 10
        assert m.byte_miss_rate == pytest.approx(0.75)
        assert m.bytes_fetched == 30
        assert m.fetch_overhead == pytest.approx(1.0)

    def test_empty_metrics(self):
        m = CacheMetrics()
        assert m.miss_rate == 0.0
        assert m.byte_miss_rate == 0.0
        assert m.fetch_overhead == 0.0

    def test_as_row(self):
        m = CacheMetrics(name="p", capacity_bytes=5)
        assert m.as_row()[0] == "p"
