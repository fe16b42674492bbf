"""BatchedFileCache: the service's windowed advisor, deterministically.

The hypothesis battery (``test_property_based_4``) sweeps random
streams; these tests pin the constructed edge cases — hit attribution
across job boundaries, mid-window eviction flipping a later access,
LRU/FIFO touch divergence, bypass accounting, long hit streaks,
negative file ids, and the factory's eligibility rules.
"""

from types import SimpleNamespace

from repro import registry
from repro.cache.fifo import FileFIFO
from repro.cache.lru import FileLRU
from repro.cache.online import BatchedFileCache, batched_policy_for
from repro.engine import simulate
from repro.obs.instrument import SimStats
from repro.service.state import _fold_window


def window(cache, jobs, sizes_by_file):
    flat = [f for job in jobs for f in job]
    offsets = [0]
    for job in jobs:
        offsets.append(offsets[-1] + len(job))
    sizes = [sizes_by_file[f] for f in flat]
    nows = [float(j) for j in range(1, len(jobs) + 1)]
    codes = cache.request_window(flat, offsets, sizes, nows)
    assert len(codes) == len(flat)
    return _fold_window(codes, offsets, sizes)


class TestRequestWindow:
    def test_bulk_prefix_attribution_across_job_boundary(self):
        cache = BatchedFileCache(1000)
        for f in (1, 2, 3, 4, 5):
            cache.request(f, 10, float(f))
        sizes = dict.fromkeys(range(10), 10)
        # Jobs [1,2] and [3] are all hits; the first miss (9) lands
        # mid-job, so job 1 gets credit for its leading hit only.
        job_hits, totals = window(cache, [[1, 2], [3, 9], [4, 5]], sizes)
        assert job_hits == [2, 1, 2]
        assert totals == (6, 5, 60, 50, 10, 0)

    def test_mid_window_eviction_flips_later_access(self):
        sizes = dict.fromkeys(range(10), 10)
        cache = BatchedFileCache(20)
        # 1, 2 fill the cache; 3 evicts 1; the final job's 1 is a miss
        # again — residency must be evaluated in access order.
        job_hits, totals = window(cache, [[1], [2], [3], [1]], sizes)
        assert job_hits == [0, 0, 0, 0]
        assert totals == (4, 0, 40, 0, 40, 0)
        assert 1 in cache and 3 in cache and 2 not in cache

    def test_lru_touch_changes_victim_fifo_does_not(self):
        sizes = dict.fromkeys(range(10), 10)
        lru = BatchedFileCache(20, touch_on_hit=True)
        assert window(lru, [[1], [2], [1], [3], [1]], sizes)[0] == [
            0, 0, 1, 0, 1,
        ]
        fifo = BatchedFileCache(20, touch_on_hit=False)
        assert window(fifo, [[1], [2], [1], [3], [1]], sizes)[0] == [
            0, 0, 1, 0, 0,
        ]

    def test_bypass_oversized_file_mid_window(self):
        cache = BatchedFileCache(50)
        job_hits, totals = window(
            cache, [[1, 2], [3]], {1: 10, 2: 80, 3: 10}
        )
        assert job_hits == [0, 0]
        # The 80-byte file exceeds capacity outright: fetched but never
        # cached, counted as a bypass, and evicting nothing.
        assert totals == (3, 0, 100, 0, 100, 1)
        assert 1 in cache and 3 in cache and 2 not in cache

    def test_empty_window_and_empty_jobs(self):
        cache = BatchedFileCache(100)
        job_hits, totals = window(cache, [[], []], {})
        assert job_hits == [0, 0]
        assert totals == (0, 0, 0, 0, 0, 0)

    def test_negative_id_is_its_own_file(self):
        # A negative id is a file like any other: it must not alias a
        # file counted from the end of an id-indexed table.
        ref = FileLRU(100)
        cache = BatchedFileCache(100)
        for f in (-1, 1023):
            a = ref.request(f, 10, 1.0)
            b = cache.request(f, 10, 1.0)
            assert a == b
        assert cache.used_bytes == ref.used_bytes == 20
        for f in (-1, 1023, 0):
            assert (f in cache) == (f in ref)
        windowed = BatchedFileCache(100)
        job_hits, totals = window(windowed, [[-1], [1023]], {-1: 10, 1023: 10})
        assert job_hits == [0, 0]
        assert totals == (2, 0, 20, 0, 20, 0)
        assert windowed.used_bytes == 20


class TestLogMaintenance:
    def test_compaction_preserves_reference_behavior(self):
        # Hammer hits on three of four resident files, then check
        # eviction order against the dict-backed reference.
        cap = 40
        cache = BatchedFileCache(cap)
        ref = FileLRU(cap)
        clock = 0.0
        for f in (0, 1, 2, 3):
            clock += 1
            cache.request(f, 10, clock)
            ref.request(f, 10, clock)
        for i in range(32768 + 4 * 4 + 50):
            clock += 1
            f = i % 3  # touch 0,1,2 — 3 stays least-recent
            cache.request(f, 10, clock)
            ref.request(f, 10, clock)
        for f in (7, 8, 9):
            clock += 1
            a = ref.request(f, 10, clock)
            b = cache.request(f, 10, clock)
            assert a == b
        for f in range(10):
            assert (f in cache) == (f in ref)


class TestAsReplayPolicy:
    def test_instrumented_replay_matches_reference(self, tiny_trace):
        # simulate() drives the advisor per access under instrumentation;
        # metrics and evicted bytes (admitted minus resident at each
        # checkpoint) must equal the reference policy's.
        cap = max(1, tiny_trace.total_bytes() // 50)
        for touch_on_hit, ref in ((True, FileLRU), (False, FileFIFO)):
            runs = []
            for factory in (
                ref,
                lambda c: BatchedFileCache(c, touch_on_hit=touch_on_hit),
            ):
                stats = SimStats()
                metrics = simulate(
                    tiny_trace, factory, cap, name="x", instrumentation=stats
                )
                runs.append((metrics, stats.snapshot()))
            assert runs[0] == runs[1]
            assert runs[0][1]["bytes_evicted"] > 0


class TestFactory:
    def test_plain_lru_and_fifo_are_eligible(self):
        lru = batched_policy_for(registry.parse("lru"))(64)
        assert isinstance(lru, BatchedFileCache) and lru.touch_on_hit
        fifo = batched_policy_for(registry.parse("file-fifo"))(64)
        assert isinstance(fifo, BatchedFileCache) and not fifo.touch_on_hit

    def test_other_policies_and_params_are_not(self):
        assert batched_policy_for(registry.parse("gds")) is None
        assert (
            batched_policy_for(
                SimpleNamespace(name="file-lru", params=(("alpha", 1.0),))
            )
            is None
        )
