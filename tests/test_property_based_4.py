"""Fourth property battery: the batched ingest path.

Two equivalence contracts, driven by hypothesis over adversarial
streams:

* ``observe_jobs_batch`` is a pure reorganization of ``observe_job`` —
  identical ``state_dict`` and affected-id union for any window split,
  any half-life, and any snapshot/restore point mid-stream;
* :class:`~repro.cache.online.BatchedFileCache` is bit-identical to the
  dict-backed :class:`~repro.cache.lru.FileLRU` /
  :class:`~repro.cache.fifo.FileFIFO` — per access code by code, and
  per window through ``request_window``'s codes and their folded
  totals, which the base class's per-access ``request_window`` on those
  two policies must also reproduce.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cache.base import BYPASS_CODE, HIT_CODE, ReplacementPolicy
from repro.cache.fifo import FileFIFO
from repro.cache.lru import FileLRU
from repro.cache.online import BatchedFileCache
from repro.core.incremental import IncrementalFileculeIdentifier
from repro.service.state import _fold_window
from tests.test_core_incremental_batch import columnar, sequential_replay

N_FILES = 14

#: Job streams rigged for branch coverage: empty jobs, duplicates,
#: sorted and unsorted segments all occur.
job_streams = st.lists(
    st.lists(
        st.integers(min_value=0, max_value=N_FILES - 1),
        min_size=0,
        max_size=6,
    ),
    min_size=1,
    max_size=40,
)

half_lives = st.sampled_from([math.inf, 5.0, 17.0])


def nows_for(jobs, seed):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.uniform(0.0, 4.0, size=len(jobs)))


class TestBatchedIdentifier:
    @given(job_streams, half_lives, st.integers(min_value=0, max_value=9))
    @settings(max_examples=80, deadline=None)
    def test_batched_equals_sequential(self, jobs, half_life, seed):
        nows = nows_for(jobs, seed)
        seq, seq_affected = sequential_replay(
            jobs, nows=nows, half_life=half_life
        )
        bat = IncrementalFileculeIdentifier(half_life=half_life)
        flat, offsets = columnar(jobs)
        bat_affected = bat.observe_jobs_batch(flat, offsets, now=nows)
        assert bat.state_dict() == seq.state_dict()
        assert bat_affected == seq_affected

    @given(
        job_streams,
        half_lives,
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=1_000_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_snapshot_restore_mid_batch(self, jobs, half_life, seed, cut):
        cut %= len(jobs) + 1
        nows = nows_for(jobs, seed)
        ref, _ = sequential_replay(jobs, nows=nows, half_life=half_life)
        ident = IncrementalFileculeIdentifier(half_life=half_life)
        if cut:
            flat, offsets = columnar(jobs[:cut])
            ident.observe_jobs_batch(flat, offsets, now=nows[:cut])
        restored = IncrementalFileculeIdentifier.from_state_dict(
            ident.state_dict()
        )
        if cut < len(jobs):
            flat, offsets = columnar(jobs[cut:])
            restored.observe_jobs_batch(flat, offsets, now=nows[cut:])
        assert restored.state_dict() == ref.state_dict()

    @given(
        job_streams,
        half_lives,
        st.integers(min_value=0, max_value=9),
        st.lists(st.integers(min_value=0, max_value=1_000_000), max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_affected_union_over_any_split(self, jobs, half_life, seed, raw):
        nows = nows_for(jobs, seed)
        _, want = sequential_replay(jobs, nows=nows, half_life=half_life)
        bounds = sorted({0, len(jobs), *(r % (len(jobs) + 1) for r in raw)})
        ident = IncrementalFileculeIdentifier(half_life=half_life)
        got = set()
        for lo, hi in zip(bounds, bounds[1:]):
            flat, offsets = columnar(jobs[lo:hi])
            got |= ident.observe_jobs_batch(flat, offsets, now=nows[lo:hi])
        assert got == want


# ----------------------------------------------------------------------
# BatchedFileCache vs the dict-backed reference policies
# ----------------------------------------------------------------------
#: Per-file byte sizes, one per id.
catalogs = st.lists(
    st.integers(min_value=1, max_value=20),
    min_size=N_FILES,
    max_size=N_FILES,
)

#: Windows of deduped job segments — ``request_window``'s input contract
#: (the service dedupes each job before the advisor sees it).
dedup_windows = st.lists(
    st.lists(
        st.integers(min_value=0, max_value=N_FILES - 1),
        min_size=0,
        max_size=6,
        unique=True,
    ),
    min_size=1,
    max_size=25,
)


#: The same windows with a request size per (job, file): the service's
#: size catalog refines sizes, so one file can carry two sizes in one
#: window.
sized_windows = st.lists(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=N_FILES - 1),
            st.integers(min_value=1, max_value=20),
        ),
        min_size=0,
        max_size=6,
        unique_by=lambda pair: pair[0],
    ),
    min_size=1,
    max_size=25,
)


class TestBatchedFileCache:
    @given(
        dedup_windows,
        catalogs,
        st.integers(min_value=8, max_value=60),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_per_access_parity_with_reference(
        self, window, sizes, capacity, touch_on_hit
    ):
        ref = (FileLRU if touch_on_hit else FileFIFO)(capacity)
        got = BatchedFileCache(capacity, touch_on_hit=touch_on_hit)
        clock = 0.0
        for job in window:
            for f in job:
                clock += 1.0
                a = ref.request(f, sizes[f], clock)
                b = got.request(f, sizes[f], clock)
                assert a == b
        assert got.used_bytes == ref.used_bytes
        for f in range(N_FILES):
            assert (f in got) == (f in ref)

    @given(
        sized_windows,
        st.integers(min_value=8, max_value=60),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_window_matches_per_access_walk(
        self, window, capacity, touch_on_hit
    ):
        ref = (FileLRU if touch_on_hit else FileFIFO)(capacity)
        want_hits, want, want_codes = [], [0, 0, 0, 0, 0, 0], []
        clock = 0.0
        for job in window:
            hits = 0
            for f, size in job:
                clock += 1.0
                code = ref.request(f, size, clock)
                want_codes.append(code)
                hit = code == HIT_CODE
                bypassed = code == BYPASS_CODE
                want[0] += 1
                want[1] += hit
                want[2] += size
                want[3] += size if hit else 0
                # A miss fetches what it admitted, a bypass its own size.
                want[4] += size if bypassed else 0 if hit else code
                want[5] += bypassed
                hits += hit
            want_hits.append(hits)

        got = BatchedFileCache(capacity, touch_on_hit=touch_on_hit)
        flat, offsets = columnar([[f for f, _ in job] for job in window])
        seg_sizes = [size for job in window for _, size in job]
        nows = [float(j) for j in range(1, len(window) + 1)]
        codes = got.request_window(
            flat.tolist(), offsets.tolist(), seg_sizes, nows
        )
        assert codes == want_codes
        job_hits, totals = _fold_window(codes, offsets.tolist(), seg_sizes)
        assert job_hits == want_hits
        assert list(totals) == want
        assert got.used_bytes == ref.used_bytes
        for f in range(N_FILES):
            assert (f in got) == (f in ref)

        # The base class's per-access window is the same walk.
        base = (FileLRU if touch_on_hit else FileFIFO)(capacity)
        base_codes = ReplacementPolicy.request_window(
            base, flat.tolist(), offsets.tolist(), seg_sizes, nows
        )
        assert base_codes == want_codes
        base_hits, base_totals = _fold_window(
            base_codes, offsets.tolist(), seg_sizes
        )
        assert base_hits == want_hits
        assert list(base_totals) == want
        assert base.used_bytes == ref.used_bytes
        for f in range(N_FILES):
            assert (f in base) == (f in ref)
