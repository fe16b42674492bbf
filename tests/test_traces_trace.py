"""Unit tests for the Trace container."""

import numpy as np
import pytest

from repro.traces import trace as trace_module
from repro.traces.trace import Trace, TraceValidationError
from tests.conftest import make_trace, unvalidated_trace


class TestConstruction:
    def test_basic_shape(self, classic_trace):
        t = classic_trace
        assert t.n_jobs == 5
        assert t.n_files == 8
        assert t.n_accesses == 4 + 3 + 3 + 1 + 3

    def test_duplicate_accesses_merged(self):
        t = make_trace([[0, 0, 1]])
        assert t.n_accesses == 2
        assert t.job_files(0).tolist() == [0, 1]

    def test_access_canonical_order(self):
        t = make_trace([[3, 1, 2], [0]])
        assert t.access_jobs.tolist() == [0, 0, 0, 1]
        assert t.access_files.tolist() == [1, 2, 3, 0]

    def test_columns_are_read_only(self, classic_trace):
        with pytest.raises(ValueError):
            classic_trace.file_sizes[0] = 99

    def test_empty_trace(self):
        t = make_trace([], n_files=0)
        assert t.n_jobs == 0
        assert t.n_accesses == 0
        assert t.time_span() == (0.0, 0.0)


class TestValidation:
    def test_bad_access_file_id(self):
        with pytest.raises(TraceValidationError, match="out of range"):
            make_trace([[5]], n_files=2)

    def test_job_end_before_start(self):
        with pytest.raises(TraceValidationError, match="ends before"):
            make_trace([[0]], job_durations=[-10.0])

    def test_negative_file_size(self):
        with pytest.raises(TraceValidationError, match="negative"):
            make_trace([[0]], file_sizes=[-1])

    def test_bad_user_code(self):
        with pytest.raises(TraceValidationError):
            make_trace([[0]], job_users=[3], n_users=1)

    def test_mismatched_access_columns(self):
        with pytest.raises(TraceValidationError, match="differ in length"):
            Trace(
                file_sizes=[1],
                file_tiers=[1],
                file_datasets=[0],
                job_users=[0],
                job_nodes=[0],
                job_tiers=[1],
                job_starts=[0.0],
                job_ends=[1.0],
                access_jobs=[0, 0],
                access_files=[0],
                user_domains=[0],
                node_sites=[0],
                node_domains=[0],
                site_names=["s"],
                domain_names=[".d"],
            )

    def test_2d_column_rejected(self):
        with pytest.raises(TraceValidationError, match="1-D"):
            make_trace([[0]], file_sizes=[[1]])


def promised_canonical(access_jobs, access_files) -> Trace:
    """Five files and three jobs whose accesses are promised canonical,
    built with validation on."""
    return Trace(
        file_sizes=[10] * 5,
        file_tiers=[1] * 5,
        file_datasets=[0] * 5,
        job_users=[0] * 3,
        job_nodes=[0] * 3,
        job_tiers=[1] * 3,
        job_starts=[0.0, 1.0, 2.0],
        job_ends=[1.0, 2.0, 3.0],
        access_jobs=access_jobs,
        access_files=access_files,
        user_domains=[0],
        node_sites=[0],
        node_domains=[0],
        site_names=["site0"],
        domain_names=[".d0"],
        canonical=True,
    )


class TestCanonicalPromise:
    """``canonical=True`` with ``validate=True`` checks the promise."""

    def test_canonical_columns_adopted(self):
        t = promised_canonical([0, 0, 1, 2, 2], [1, 3, 0, 2, 4])
        assert t.job_files(0).tolist() == [1, 3]
        assert t.job_files(2).tolist() == [2, 4]

    def test_job_out_of_order(self):
        with pytest.raises(TraceValidationError, match=r"access 2 \(job 0, file 4\)"):
            promised_canonical([0, 1, 0], [1, 2, 4])

    def test_file_out_of_order(self):
        with pytest.raises(TraceValidationError, match=r"access 2 \(job 1, file 1\)"):
            promised_canonical([0, 1, 1], [1, 2, 1])

    def test_duplicate_pair(self):
        with pytest.raises(TraceValidationError, match=r"access 1 \(job 0, file 3\)"):
            promised_canonical([0, 0, 1], [3, 3, 0])

    def test_first_offence_named_across_chunks(self, monkeypatch):
        monkeypatch.setattr(trace_module, "CANONICAL_CHECK_CHUNK", 2)
        jobs = [0, 0, 0, 1, 1, 2, 2, 1]
        files = [0, 1, 2, 0, 3, 1, 4, 4]
        with pytest.raises(TraceValidationError, match=r"^access 7 \(job 1, file 4\)"):
            promised_canonical(jobs, files)

    def test_unvalidated_promise_is_trusted(self):
        t = unvalidated_trace([1, 0], [0, 0])
        assert t.access_jobs.tolist() == [1, 0]


class TestDerived:
    def test_files_per_job(self, classic_trace):
        assert classic_trace.files_per_job.tolist() == [4, 3, 3, 1, 3]

    def test_file_popularity(self, classic_trace):
        pop = classic_trace.file_popularity
        assert pop.tolist() == [3, 3, 2, 2, 2, 1, 1, 0]

    def test_job_files_and_file_jobs_are_inverse(self, classic_trace):
        t = classic_trace
        for j in range(t.n_jobs):
            for f in t.job_files(j):
                assert j in t.file_jobs(int(f)).tolist()
        for f in range(t.n_files):
            for j in t.file_jobs(f):
                assert f in t.job_files(int(j)).tolist()

    def test_job_input_bytes(self):
        t = make_trace([[0, 1], [1]], file_sizes=[10, 100])
        assert t.job_input_bytes.tolist() == [110, 100]

    def test_accessed_file_ids(self, classic_trace):
        assert classic_trace.accessed_file_ids.tolist() == [0, 1, 2, 3, 4, 5, 6]

    def test_iter_jobs(self, classic_trace):
        jobs = dict(classic_trace.iter_jobs())
        assert len(jobs) == 5
        assert jobs[0].tolist() == [0, 1, 2, 3]

    def test_total_bytes_default_accessed_only(self):
        t = make_trace([[0]], n_files=3, file_sizes=[5, 7, 9])
        assert t.total_bytes() == 5
        assert t.total_bytes([0, 1, 2]) == 21

    def test_job_sites_and_domains(self):
        t = make_trace(
            [[0], [0]],
            job_nodes=[0, 1],
            node_sites=[0, 1],
            node_domains=[0, 1],
            site_names=["s0", "s1"],
            domain_names=[".a", ".b"],
        )
        assert t.job_sites.tolist() == [0, 1]
        assert t.job_domains.tolist() == [0, 1]


class TestOutOfRangeIds:
    """A derived column over an access naming a file or job outside its
    catalog raises an IndexError naming the access, instead of a numpy
    error about ``bincount`` or charging id -1 to the last entry."""

    @pytest.mark.parametrize("bad", [-1, 3])
    @pytest.mark.parametrize(
        "column", ["file_access_ptr", "file_popularity", "job_input_bytes"]
    )
    def test_file_id(self, column, bad):
        trace = unvalidated_trace([0, 0, 1], [0, bad, 1])
        message = f"access 1 requests file {bad}, outside \\[0, 3\\)"
        with pytest.raises(IndexError, match=message):
            getattr(trace, column)

    @pytest.mark.parametrize("bad", [-1, 2])
    @pytest.mark.parametrize(
        "column", ["job_access_ptr", "files_per_job", "job_input_bytes"]
    )
    def test_job_id(self, column, bad):
        trace = unvalidated_trace([0, 1, bad], [0, 1, 2])
        message = f"access 2 requests job {bad}, outside \\[0, 2\\)"
        with pytest.raises(IndexError, match=message):
            getattr(trace, column)


class TestLookupRange:
    """Row lookups take ids in ``[0, n)`` only; a negative id used to
    index from the end (or return an empty row) without error."""

    @pytest.mark.parametrize("bad", [-1, 8])
    def test_file_jobs(self, classic_trace, bad):
        with pytest.raises(IndexError, match=f"file id {bad} outside \\[0, 8\\)"):
            classic_trace.file_jobs(bad)

    @pytest.mark.parametrize("bad", [-1, 5])
    def test_job_files(self, classic_trace, bad):
        with pytest.raises(IndexError, match=f"job id {bad} outside \\[0, 5\\)"):
            classic_trace.job_files(bad)

    def test_in_range_ids_still_work(self, classic_trace):
        assert classic_trace.file_jobs(7).tolist() == []
        assert classic_trace.job_files(4).tolist() == classic_trace.job_files(
            np.int64(4)
        ).tolist()


class TestMeta:
    def test_file_meta(self, classic_trace):
        meta = classic_trace.file_meta(0)
        assert meta.file_id == 0
        assert meta.size_bytes == 1
        assert meta.tier_label == "reconstructed"

    def test_job_meta(self, classic_trace):
        meta = classic_trace.job_meta(1)
        assert meta.file_ids == (2, 3, 4)
        assert meta.duration_hours == pytest.approx(1.0)


class TestSubsetJobs:
    def test_subset_keeps_file_catalog(self, classic_trace):
        sub = classic_trace.subset_jobs(
            np.array([True, False, True, False, False])
        )
        assert sub.n_files == classic_trace.n_files
        assert sub.n_jobs == 2
        assert sub.job_files(0).tolist() == [0, 1, 2, 3]
        assert sub.job_files(1).tolist() == [0, 1, 4]

    def test_subset_preserves_labels(self, classic_trace):
        sub = classic_trace.subset_jobs(
            np.array([False, True, False, True, False])
        )
        assert sub.job_labels.tolist() == [1, 3]

    def test_subset_of_subset(self, classic_trace):
        sub = classic_trace.subset_jobs(np.ones(5, dtype=bool))
        sub2 = sub.subset_jobs(np.array([True] + [False] * 4))
        assert sub2.n_jobs == 1
        assert sub2.job_labels.tolist() == [0]

    def test_mask_length_checked(self, classic_trace):
        with pytest.raises(ValueError, match="mask length"):
            classic_trace.subset_jobs(np.array([True]))

    def test_empty_subset(self, classic_trace):
        sub = classic_trace.subset_jobs(np.zeros(5, dtype=bool))
        assert sub.n_jobs == 0
        assert sub.n_accesses == 0
