"""Unit tests for trace subsampling, shifting and concatenation."""

import numpy as np
import pytest

from repro.core.identify import find_filecules
from repro.core.partial import is_coarsening_of
from repro.traces.combine import concat_traces, shift_time, subsample_jobs
from repro.traces.filters import split_epochs
from repro.traces.trace import Trace
from tests.conftest import make_trace


class TestSubsampleJobs:
    def test_fraction_extremes(self, classic_trace):
        assert subsample_jobs(classic_trace, 0.0).n_jobs == 0
        assert subsample_jobs(classic_trace, 1.0).n_jobs == classic_trace.n_jobs

    def test_deterministic(self, classic_trace):
        a = subsample_jobs(classic_trace, 0.5, seed=3)
        b = subsample_jobs(classic_trace, 0.5, seed=3)
        np.testing.assert_array_equal(a.job_labels, b.job_labels)

    def test_catalog_preserved(self, classic_trace):
        sub = subsample_jobs(classic_trace, 0.5, seed=3)
        assert sub.n_files == classic_trace.n_files

    def test_sample_partition_coarsens_global(self, tiny_trace, tiny_partition):
        sample = subsample_jobs(tiny_trace, 0.3, seed=5)
        local = find_filecules(sample)
        assert is_coarsening_of(local, tiny_partition)

    def test_rough_proportion(self, tiny_trace):
        sample = subsample_jobs(tiny_trace, 0.5, seed=0)
        assert 0.3 * tiny_trace.n_jobs < sample.n_jobs < 0.7 * tiny_trace.n_jobs

    def test_bad_fraction(self, classic_trace):
        with pytest.raises(ValueError):
            subsample_jobs(classic_trace, 1.5)


class TestShiftTime:
    def test_forward_shift(self, classic_trace):
        shifted = shift_time(classic_trace, 100.0)
        np.testing.assert_allclose(
            shifted.job_starts, classic_trace.job_starts + 100.0
        )
        np.testing.assert_allclose(
            shifted.job_ends, classic_trace.job_ends + 100.0
        )

    def test_accesses_untouched(self, classic_trace):
        shifted = shift_time(classic_trace, 50.0)
        np.testing.assert_array_equal(
            shifted.access_files, classic_trace.access_files
        )

    def test_negative_past_zero_rejected(self, classic_trace):
        with pytest.raises(ValueError):
            shift_time(classic_trace, -1e9)

    def test_empty_trace(self):
        t = make_trace([], n_files=0)
        assert shift_time(t, -100.0).n_jobs == 0


class TestConcatTraces:
    def test_epoch_split_roundtrip(self, tiny_trace):
        """Splitting into epochs and concatenating preserves everything
        the analyses care about."""
        epochs = split_epochs(tiny_trace, 3)
        combined = concat_traces(epochs)
        assert combined.n_jobs == tiny_trace.n_jobs
        assert combined.n_accesses == tiny_trace.n_accesses
        a = sorted(
            tuple(fc.file_ids.tolist()) for fc in find_filecules(combined)
        )
        b = sorted(
            tuple(fc.file_ids.tolist()) for fc in find_filecules(tiny_trace)
        )
        assert a == b

    def test_labels_preserved(self, classic_trace):
        parts = split_epochs(classic_trace, 2)
        combined = concat_traces(parts)
        assert sorted(combined.job_labels.tolist()) == list(range(5))

    def test_single_input(self, classic_trace):
        combined = concat_traces([classic_trace])
        assert combined.n_jobs == classic_trace.n_jobs

    def test_mismatched_catalogs_rejected(self, tiny_trace):
        columns = {
            name: getattr(tiny_trace, name)
            for name in Trace.__slots__
            if name != "__dict__"
        }
        columns["file_datasets"] = tiny_trace.file_datasets + 1
        relabelled = Trace(**columns)
        for a, b in (
            (make_trace([[0]], n_files=2), make_trace([[0]], n_files=3)),
            (tiny_trace, relabelled),
        ):
            with pytest.raises(ValueError, match="identical"):
                concat_traces([a, b])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            concat_traces([])

    def test_access_job_ids_offset(self):
        a = make_trace([[0], [1]], n_files=3)
        b = make_trace([[2]], n_files=3)
        combined = concat_traces([a, b])
        assert combined.job_files(2).tolist() == [2]


class TestShuffledNull:
    def test_marginals_preserved(self, tiny_trace):
        from repro.traces.combine import shuffled_null

        null = shuffled_null(tiny_trace, seed=0)
        # duplicates within a job merge, so accesses can only shrink
        assert null.n_accesses <= tiny_trace.n_accesses
        assert null.n_accesses >= 0.5 * tiny_trace.n_accesses
        # per-job counts never grow
        assert (null.files_per_job <= tiny_trace.files_per_job).all()
        # total per-file request mass equals the surviving accesses
        assert null.file_popularity.sum() == null.n_accesses

    def test_filecules_collapse(self, tiny_trace, tiny_partition):
        from repro.traces.combine import shuffled_null

        null = shuffled_null(tiny_trace, seed=0)
        null_p = find_filecules(null)
        assert null_p.files_per_filecule.mean() < 1.5
        assert len(null_p) > len(tiny_partition)

    def test_deterministic(self, tiny_trace):
        from repro.traces.combine import shuffled_null

        a = shuffled_null(tiny_trace, seed=4)
        b = shuffled_null(tiny_trace, seed=4)
        np.testing.assert_array_equal(a.access_files, b.access_files)


def sorted_rebuild(trace: Trace) -> Trace:
    """``trace`` rebuilt from its own columns by the sorting constructor."""
    return Trace(
        file_sizes=trace.file_sizes,
        file_tiers=trace.file_tiers,
        file_datasets=trace.file_datasets,
        job_users=trace.job_users,
        job_nodes=trace.job_nodes,
        job_tiers=trace.job_tiers,
        job_starts=trace.job_starts,
        job_ends=trace.job_ends,
        access_jobs=trace.access_jobs,
        access_files=trace.access_files,
        user_domains=trace.user_domains,
        node_sites=trace.node_sites,
        node_domains=trace.node_domains,
        site_names=trace.site_names,
        domain_names=trace.domain_names,
        job_labels=trace.job_labels,
    )


class TestCanonicalAdoption:
    """Traces rebuilt from canonical columns adopt them unsorted, and
    equal what the sorting constructor makes of the same columns."""

    @staticmethod
    def assert_sorted_equal(trace: Trace) -> None:
        ref = sorted_rebuild(trace)
        np.testing.assert_array_equal(trace.access_jobs, ref.access_jobs)
        np.testing.assert_array_equal(trace.access_files, ref.access_files)

    def test_subset_jobs(self, tiny_trace):
        rng = np.random.default_rng(3)
        for _ in range(5):
            mask = rng.random(tiny_trace.n_jobs) < 0.4
            self.assert_sorted_equal(tiny_trace.subset_jobs(mask))
        self.assert_sorted_equal(
            tiny_trace.subset_jobs(np.ones(tiny_trace.n_jobs, dtype=bool))
        )

    def test_shift_time(self, tiny_trace):
        shifted = shift_time(tiny_trace, 3600.0)
        self.assert_sorted_equal(shifted)
        assert shifted.access_files is tiny_trace.access_files

    def test_concat_traces(self, tiny_trace):
        halves = split_epochs(tiny_trace, 2)
        self.assert_sorted_equal(concat_traces(halves))
        self.assert_sorted_equal(concat_traces([tiny_trace, tiny_trace]))
