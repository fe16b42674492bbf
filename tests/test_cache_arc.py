"""Unit tests for the Adaptive Replacement Cache."""

import numpy as np
import pytest

from repro.cache.arc import AdaptiveReplacementCache
from repro.cache.base import BYPASS_CODE, HIT_CODE
from repro.cache.lru import FileLRU
from repro.cache.simulator import simulate
from tests.conftest import make_trace


class TestBasics:
    def test_miss_then_hit(self):
        p = AdaptiveReplacementCache(100)
        assert p.request(1, 10, 0.0) == 10
        assert p.request(1, 10, 1.0) == HIT_CODE
        assert 1 in p

    def test_hit_promotes_to_t2(self):
        p = AdaptiveReplacementCache(100)
        p.request(1, 10, 0.0)
        assert 1 in p._t1
        p.request(1, 10, 1.0)
        assert 1 in p._t2 and 1 not in p._t1

    def test_bypass_oversized(self):
        p = AdaptiveReplacementCache(5)
        out = p.request(1, 10, 0.0)
        assert out == BYPASS_CODE
        assert p.used_bytes == 0

    def test_occupancy_bounded(self):
        p = AdaptiveReplacementCache(50)
        rng = np.random.default_rng(0)
        for i in range(500):
            p.request(int(rng.integers(0, 30)), int(rng.integers(5, 15)), float(i))
            assert 0 <= p.used_bytes <= 50
            assert 0.0 <= p._p <= 50.0

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveReplacementCache(0)


class TestGhostLearning:
    def test_ghost_hit_reinserts_into_t2(self):
        p = AdaptiveReplacementCache(20)
        p.request(1, 10, 0.0)
        p.request(2, 10, 1.0)
        p.request(3, 10, 2.0)  # evicts 1 into B1
        assert 1 in p._b1
        p.request(1, 10, 3.0)  # ghost hit: back as frequent
        assert 1 in p._t2

    def test_b1_hit_grows_p(self):
        p = AdaptiveReplacementCache(20)
        p.request(1, 10, 0.0)
        p.request(2, 10, 1.0)
        p.request(3, 10, 2.0)
        before = p._p
        p.request(1, 10, 3.0)  # B1 ghost hit
        assert p._p > before

    def test_ghost_lists_bounded(self):
        p = AdaptiveReplacementCache(30)
        for i in range(100):
            p.request(i, 10, float(i))
        assert p._b1.bytes <= 30
        assert p._b2.bytes <= 30


class TestScanResistance:
    def test_one_shot_scan_does_not_flush_working_set(self):
        """ARC's signature property: a sequential scan of cold files must
        not destroy an established frequently-used working set."""
        capacity = 40
        hot = [0, 1]  # 2 x 10 bytes, touched repeatedly
        jobs = []
        for _ in range(6):
            jobs.append(hot)
        jobs.append(list(range(10, 30)))  # the scan: 20 cold files
        for _ in range(3):
            jobs.append(hot)
        t = make_trace(jobs, n_files=30, file_sizes=[10] * 30)

        m_arc = simulate(t, lambda c: AdaptiveReplacementCache(c), capacity)
        m_lru = simulate(t, lambda c: FileLRU(c), capacity)
        # after the scan, LRU has flushed the hot set; ARC kept it
        assert m_arc.hits >= m_lru.hits

    def test_matches_lru_regime_on_pure_recency(self):
        # cyclic reuse within capacity: both should hit everything warm
        jobs = [[0, 1], [0, 1], [0, 1]]
        t = make_trace(jobs, file_sizes=[10, 10])
        m = simulate(t, lambda c: AdaptiveReplacementCache(c), 100)
        assert m.hits == 4


class TestOnGeneratedWorkload:
    def test_sane_on_generated_trace(self, small_trace):
        cap = max(int(0.05 * small_trace.total_bytes()), 1)
        m = simulate(small_trace, lambda c: AdaptiveReplacementCache(c), cap)
        assert 0.0 <= m.miss_rate <= 1.0
        assert m.requests == small_trace.n_accesses

    def test_competitive_with_lru(self, small_trace):
        cap = max(int(0.05 * small_trace.total_bytes()), 1)
        m_arc = simulate(small_trace, lambda c: AdaptiveReplacementCache(c), cap)
        m_lru = simulate(small_trace, lambda c: FileLRU(c), cap)
        assert m_arc.miss_rate <= m_lru.miss_rate + 0.05
