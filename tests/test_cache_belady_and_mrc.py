"""Unit tests for Belady MIN and Mattson miss-rate curves."""

import numpy as np
import pytest

from repro.analysis.mrc import granularity_mrcs, lru_miss_rate_curve
from repro.cache.base import BYPASS_CODE
from repro.cache.belady import (
    NEVER,
    BeladyMIN,
    FileculeBeladyMIN,
    next_use_positions,
)
from repro.cache.lru import FileLRU
from repro.cache.filecule_lru import FileculeLRU
from repro.cache.simulator import simulate
from repro.core.identify import find_filecules
from tests.conftest import make_trace


class TestNextUsePositions:
    def test_basic(self):
        nxt = next_use_positions([0, 1, 0, 1, 0])
        assert nxt.tolist() == [2, 3, 4, NEVER, NEVER]

    def test_no_repeats(self):
        assert (next_use_positions([5, 6, 7]) == NEVER).all()

    def test_empty(self):
        assert len(next_use_positions([])) == 0


class TestBeladyMIN:
    def test_classic_optimality_example(self):
        # stream: 0 1 2 0 1 2 with capacity 2 units (unit-size files)
        # LRU misses everything (cyclic); MIN keeps 0 then 1 smartly
        t = make_trace([[0, 1, 2], [0, 1, 2]], file_sizes=[1, 1, 1])
        m_lru = simulate(t, lambda c: FileLRU(c), 2)
        m_min = simulate(t, lambda c: BeladyMIN(c, t), 2)
        assert m_min.misses <= m_lru.misses
        assert m_min.misses < m_lru.misses  # strictly better on this cycle

    def test_never_worse_than_lru_on_random_traces(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            jobs = [
                sorted(rng.choice(15, size=rng.integers(1, 6), replace=False).tolist())
                for _ in range(20)
            ]
            t = make_trace(jobs, n_files=15)
            for capacity in (3, 7, 12):
                m_lru = simulate(t, lambda c: FileLRU(c), capacity)
                m_min = simulate(t, lambda c: BeladyMIN(c, t), capacity)
                assert m_min.misses <= m_lru.misses

    def test_diverged_stream_detected(self):
        t = make_trace([[0, 1]])
        policy = BeladyMIN(10, t)
        policy.request(0, 1, 0.0)
        with pytest.raises(RuntimeError, match="diverged"):
            policy.request(0, 1, 0.0)  # expected file 1 next

    def test_overrun_detected(self):
        t = make_trace([[0]])
        policy = BeladyMIN(10, t)
        policy.request(0, 1, 0.0)
        with pytest.raises(RuntimeError, match="more requests"):
            policy.request(0, 1, 0.0)

    def test_never_reused_files_bypass(self):
        t = make_trace([[0], [1]], file_sizes=[1, 1])
        policy = BeladyMIN(10, t)
        out = policy.request(0, 1, 0.0)
        assert out == BYPASS_CODE  # 0 never comes back
        assert policy.used_bytes == 0

    def test_contains(self):
        t = make_trace([[0], [0]], file_sizes=[1])
        policy = BeladyMIN(10, t)
        policy.request(0, 1, 0.0)
        assert 0 in policy


class TestFileculeBeladyMIN:
    def test_beats_or_matches_filecule_lru(self, small_trace, small_partition):
        cap = max(int(0.02 * small_trace.total_bytes()), 1)
        m_lru = simulate(
            small_trace, lambda c: FileculeLRU(c, small_partition), cap
        )
        m_min = simulate(
            small_trace,
            lambda c: FileculeBeladyMIN(c, small_trace, small_partition),
            cap,
        )
        assert m_min.misses <= m_lru.misses

    def test_partition_mismatch_rejected(self):
        t = make_trace([[0, 1], [2]], n_files=3)
        foreign = find_filecules(make_trace([[0, 1]], n_files=3))
        with pytest.raises(ValueError):
            FileculeBeladyMIN(10, t, foreign)


class TestMissRateCurve:
    def test_matches_simulation_at_unit_sizes(self):
        rng = np.random.default_rng(2)
        jobs = [
            sorted(rng.choice(25, size=rng.integers(1, 7), replace=False).tolist())
            for _ in range(30)
        ]
        t = make_trace(jobs, n_files=25)  # all files are 1 byte
        curve = lru_miss_rate_curve(t.access_files)
        for k in (1, 5, 12, 25):
            simulated = simulate(t, lambda c: FileLRU(c), k)
            assert curve.hit_rate(k) == pytest.approx(simulated.hit_rate)

    def test_monotone_nondecreasing(self):
        rng = np.random.default_rng(3)
        curve = lru_miss_rate_curve(rng.integers(0, 20, size=300))
        assert np.all(np.diff(curve.hit_rates) >= -1e-12)

    def test_full_capacity_leaves_only_cold_misses(self):
        stream = np.array([0, 1, 0, 1, 2])
        curve = lru_miss_rate_curve(stream)
        assert curve.hit_rate(curve.n_units) == pytest.approx(2 / 5)

    def test_zero_capacity_no_hits(self):
        curve = lru_miss_rate_curve(np.array([0, 0, 0]))
        assert curve.hit_rate(0) == 0.0

    def test_capacity_for_hit_rate(self):
        stream = np.array([0, 1, 0, 1])
        curve = lru_miss_rate_curve(stream)
        assert curve.capacity_for_hit_rate(0.5) == 2
        # unreachable target returns n_units
        assert curve.capacity_for_hit_rate(0.99) == curve.n_units

    def test_empty_stream(self):
        curve = lru_miss_rate_curve(np.array([]))
        assert curve.n_requests == 0
        assert curve.hit_rate(5) == 0.0

    def test_validation(self):
        curve = lru_miss_rate_curve(np.array([0, 0]))
        with pytest.raises(ValueError):
            curve.hit_rate(-1)
        with pytest.raises(ValueError):
            curve.capacity_for_hit_rate(1.5)


class TestGranularityMrcs:
    def test_filecule_curve_dominates(self, small_trace, small_partition):
        file_curve, cule_curve = granularity_mrcs(small_trace, small_partition)
        # at equal unit counts the filecule curve is at least as high
        k = min(file_curve.n_units, cule_curve.n_units) // 2
        assert cule_curve.hit_rate(k) >= file_curve.hit_rate(k)

    def test_mismatch_rejected(self):
        t = make_trace([[0, 1], [2]], n_files=3)
        partial = find_filecules(make_trace([[0, 1]], n_files=3))
        with pytest.raises(ValueError):
            granularity_mrcs(t, partial)
