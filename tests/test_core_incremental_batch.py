"""The windowed observe path: batched ≡ sequential, bit for bit.

``observe_jobs_batch`` promises the exact partition, class ids,
``state_dict`` and affected-id union that per-job ``observe_job`` calls
would produce — at infinite and finite half-life, for any window split,
from list or numpy input.
These tests drive both paths over adversarial streams (splits, new
files, duplicates, unsorted input, empty jobs, decay expiry) and demand
equality of everything observable.
"""

import math

import numpy as np
import pytest

from repro.core.identify import find_filecules
from repro.core.incremental import IncrementalFileculeIdentifier
from tests.conftest import make_trace


def columnar(jobs):
    """Flat array + offsets for a list of per-job file-id lists."""
    flat = np.array([f for job in jobs for f in job], dtype=np.int64)
    offsets = np.zeros(len(jobs) + 1, dtype=np.int64)
    np.cumsum([len(job) for job in jobs], out=offsets[1:])
    return flat, offsets


def sequential_replay(jobs, nows=None, **ident_kwargs):
    ident = IncrementalFileculeIdentifier(**ident_kwargs)
    affected = set()
    for k, job in enumerate(jobs):
        affected |= ident.observe_job(
            job, now=None if nows is None else nows[k]
        )
    return ident, affected


def random_stream(rng, n_jobs=60, n_files=40):
    """A job stream rigged to exercise every kernel branch."""
    jobs = []
    for _ in range(n_jobs):
        kind = rng.random()
        size = int(rng.integers(1, 8))
        job = rng.choice(n_files, size=size, replace=False).tolist()
        if kind < 0.25:
            job = sorted(job)  # sorted, as wire clients usually send
        elif kind < 0.35:
            job = job + [job[0]]  # duplicate
        jobs.append(job)
    return jobs


class TestEquivalence:
    @pytest.mark.parametrize(
        "half_life, to_input",
        [
            pytest.param(math.inf, np.asarray, id="inf"),
            pytest.param(40.0, np.asarray, id="40.0"),
            pytest.param(math.inf, np.ndarray.tolist, id="inf-list"),
            pytest.param(40.0, np.ndarray.tolist, id="40.0-list"),
        ],
    )
    def test_batch_matches_sequential(self, half_life, to_input):
        rng = np.random.default_rng(11)
        jobs = random_stream(rng)
        nows = np.cumsum(rng.uniform(0.0, 5.0, size=len(jobs)))
        seq, seq_affected = sequential_replay(
            jobs, nows=nows, half_life=half_life
        )
        bat = IncrementalFileculeIdentifier(half_life=half_life)
        flat, offsets = columnar(jobs)
        bat_affected = bat.observe_jobs_batch(
            to_input(flat), to_input(offsets), now=to_input(nows)
        )
        assert bat.state_dict() == seq.state_dict()
        assert bat_affected == seq_affected

    def test_logical_clock_when_now_omitted(self):
        jobs = [[1, 2, 3], [2, 3], [4, 5], [1], [2, 3, 6]]
        seq, seq_affected = sequential_replay(jobs)
        bat = IncrementalFileculeIdentifier()
        flat, offsets = columnar(jobs)
        bat_affected = bat.observe_jobs_batch(flat, offsets)
        assert bat.state_dict() == seq.state_dict()
        assert bat_affected == seq_affected

    def test_affected_union_over_window_splits(self):
        rng = np.random.default_rng(23)
        jobs = random_stream(rng, n_jobs=80)
        nows = np.cumsum(rng.uniform(0.0, 3.0, size=len(jobs)))
        _, want = sequential_replay(jobs, nows=nows, half_life=25.0)
        for split_seed in range(4):
            srng = np.random.default_rng(split_seed)
            cuts = sorted(
                srng.choice(len(jobs), size=5, replace=False).tolist()
            )
            bounds = [0] + cuts + [len(jobs)]
            ident = IncrementalFileculeIdentifier(half_life=25.0)
            got = set()
            for lo, hi in zip(bounds, bounds[1:]):
                if lo == hi:
                    continue
                flat, offsets = columnar(jobs[lo:hi])
                got |= ident.observe_jobs_batch(
                    flat, offsets, now=nows[lo:hi]
                )
            assert got == want, f"split at {cuts}"

    def test_mid_batch_snapshot_restore_continue(self):
        rng = np.random.default_rng(5)
        jobs = random_stream(rng, n_jobs=50)
        nows = np.cumsum(rng.uniform(0.0, 4.0, size=len(jobs)))
        ref, _ = sequential_replay(jobs, nows=nows, half_life=30.0)

        ident = IncrementalFileculeIdentifier(half_life=30.0)
        flat, offsets = columnar(jobs[:20])
        ident.observe_jobs_batch(flat, offsets, now=nows[:20])
        restored = IncrementalFileculeIdentifier.from_state_dict(
            ident.state_dict()
        )
        flat, offsets = columnar(jobs[20:])
        restored.observe_jobs_batch(flat, offsets, now=nows[20:])
        assert restored.state_dict() == ref.state_dict()

    def test_empty_jobs_do_not_tick(self):
        jobs = [[1, 2], [], [2], [], []]
        seq, _ = sequential_replay([j for j in jobs if j])
        bat = IncrementalFileculeIdentifier()
        flat, offsets = columnar(jobs)
        counts = []
        bat.observe_jobs_batch(flat, offsets, job_counts=counts)
        # Empty jobs still yield a receipt but advance nothing...
        assert len(counts) == len(jobs)
        assert counts[1] == counts[0]
        # ...including the logical clock, matching the skip-empties
        # behavior of the sequential trace loop.
        assert bat.n_jobs_observed == len(jobs)

    def test_job_counts_match_post_job_state(self):
        jobs = [[1, 2, 3], [2, 3], [4], [1, 4]]
        flat, offsets = columnar(jobs)
        ident = IncrementalFileculeIdentifier()
        counts = []
        ident.observe_jobs_batch(flat, offsets, job_counts=counts)
        ref = IncrementalFileculeIdentifier()
        want = []
        for job in jobs:
            ref.observe_job(job)
            want.append((ref.n_files_observed, ref.n_classes))
        assert counts == want


class TestObserveTrace:
    def test_matches_per_job_loop(self):
        jobs = [[0, 1, 2], [1, 2], [3, 4], [0], [3, 4], [2, 5]]
        trace = make_trace(jobs, n_files=6)
        via_trace = IncrementalFileculeIdentifier()
        via_trace.observe_trace(trace)
        starts = trace.job_starts
        per_job = IncrementalFileculeIdentifier()
        for j, files in trace.iter_jobs():
            if len(files):
                per_job.observe_job(files.tolist(), now=float(starts[j]))
        assert via_trace.state_dict() == per_job.state_dict()

    def test_matches_offline_partition(self):
        rng = np.random.default_rng(3)
        jobs = random_stream(rng, n_jobs=70, n_files=30)
        trace = make_trace([sorted(set(j)) for j in jobs], n_files=30)
        ident = IncrementalFileculeIdentifier()
        ident.observe_trace(trace, window=16)
        want = sorted(
            tuple(sorted(fc.file_ids.tolist()))
            for fc in find_filecules(trace)
        )
        got = sorted(tuple(sorted(c)) for c in ident.classes())
        assert got == want

    def test_window_size_is_immaterial(self):
        rng = np.random.default_rng(9)
        jobs = random_stream(rng, n_jobs=45, n_files=25)
        trace = make_trace([sorted(set(j)) for j in jobs], n_files=25)
        states = []
        for window in (1, 7, 45, 8192):
            ident = IncrementalFileculeIdentifier(half_life=60.0)
            ident.observe_trace(trace, window=window)
            states.append(ident.state_dict())
        assert all(s == states[0] for s in states[1:])


class TestValidation:
    def test_rejects_bad_offsets(self):
        ident = IncrementalFileculeIdentifier()
        with pytest.raises(ValueError, match="offsets"):
            ident.observe_jobs_batch(np.array([1, 2]), np.array([1, 2]))
        with pytest.raises(ValueError, match="offsets"):
            ident.observe_jobs_batch(np.array([1, 2]), np.array([0, 1]))
        with pytest.raises(ValueError, match="offsets"):
            ident.observe_jobs_batch(np.array([1, 2]), np.array([0, 2, 1]))
        with pytest.raises(ValueError, match="offsets"):
            ident.observe_jobs_batch(np.array([1, 2]), np.array([]))

    def test_rejects_negative_ids(self):
        ident = IncrementalFileculeIdentifier()
        with pytest.raises(ValueError, match="non-negative"):
            ident.observe_jobs_batch(np.array([3, -1]), np.array([0, 2]))

    def test_rejects_now_shape_mismatch(self):
        ident = IncrementalFileculeIdentifier()
        with pytest.raises(ValueError, match="one timestamp per job"):
            ident.observe_jobs_batch(
                np.array([1, 2]), np.array([0, 1, 2]), now=[1.0]
            )

    def test_batch_interleaves_with_observe_job(self):
        # Mixing the two entry points on one identifier stays coherent.
        rng = np.random.default_rng(17)
        jobs = random_stream(rng, n_jobs=30)
        seq, _ = sequential_replay(jobs)
        mixed = IncrementalFileculeIdentifier()
        for job in jobs[:10]:
            mixed.observe_job(job)
        flat, offsets = columnar(jobs[10:22])
        mixed.observe_jobs_batch(flat, offsets)
        for job in jobs[22:]:
            mixed.observe_job(job)
        assert mixed.state_dict() == seq.state_dict()
