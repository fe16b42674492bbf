"""Unit tests for Filecule and FileculePartition containers."""

import numpy as np
import pytest

from repro.core.filecule import Filecule, FileculePartition
from repro.core.identify import find_filecules
from tests.conftest import make_trace


class TestFilecule:
    def test_sorted_and_frozen(self):
        fc = Filecule(0, np.array([3, 1, 2]), n_requests=1, size_bytes=6)
        assert fc.file_ids.tolist() == [1, 2, 3]
        with pytest.raises(ValueError):
            fc.file_ids[0] = 9

    def test_contains(self):
        fc = Filecule(0, np.array([1, 5, 9]), 1, 3)
        assert 5 in fc
        assert 4 not in fc
        assert 10 not in fc

    def test_len_and_monatomic(self):
        assert len(Filecule(0, np.array([1]), 1, 1)) == 1
        assert Filecule(0, np.array([1]), 1, 1).is_monatomic
        assert not Filecule(0, np.array([1, 2]), 1, 2).is_monatomic

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one file"):
            Filecule(0, np.array([], dtype=np.int64), 0, 0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            Filecule(0, np.array([1]), -1, 0)
        with pytest.raises(ValueError):
            Filecule(0, np.array([1]), 0, -5)

    def test_str(self):
        s = str(Filecule(3, np.array([1, 2]), 7, 2048))
        assert "#3" in s and "2 files" in s and "7 requests" in s


class TestPartitionConstruction:
    def test_overlap_rejected(self):
        a = Filecule(0, np.array([0, 1]), 1, 2)
        b = Filecule(1, np.array([1, 2]), 1, 2)
        with pytest.raises(ValueError, match="overlaps"):
            FileculePartition([a, b], n_files=3)

    def test_out_of_range_rejected(self):
        a = Filecule(0, np.array([5]), 1, 1)
        with pytest.raises(ValueError, match="beyond"):
            FileculePartition([a], n_files=3)

    def test_labels(self):
        a = Filecule(0, np.array([0, 2]), 1, 2)
        b = Filecule(1, np.array([1]), 1, 1)
        p = FileculePartition([a, b], n_files=4)
        assert p.labels.tolist() == [0, 1, 0, -1]
        assert p.n_covered_files == 3


class TestFromLabels:
    def test_canonical_order(self):
        # groups 7: {4, 1} (3 requests), 2: {0} (3), 5: {2, 3} (5)
        p = FileculePartition.from_labels(
            file_ids=[4, 0, 2, 1, 3],
            labels=[7, 2, 5, 7, 5],
            n_files=6,
            requests=[3, 3, 5, 3, 5],
            file_sizes=[1, 2, 4, 8, 16, 32],
        )
        assert [fc.file_ids.tolist() for fc in p] == [[2, 3], [0], [1, 4]]
        assert p.requests.tolist() == [5, 3, 3]
        assert p.sizes_bytes.tolist() == [12, 1, 18]
        assert p.labels.tolist() == [1, 2, 0, 0, 2, -1]
        assert p.offsets.tolist() == [0, 2, 3, 5]

    def test_sizes_default_to_zero(self):
        p = FileculePartition.from_labels([0, 1], [0, 1], 2, [1, 1])
        assert p.sizes_bytes.tolist() == [0, 0]

    def test_empty(self):
        p = FileculePartition.from_labels([], [], 3, [])
        assert len(p) == 0
        assert p.labels.tolist() == [-1, -1, -1]
        assert list(p) == []

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError, match="beyond"):
            FileculePartition.from_labels([0, bad], [0, 1], 3, [1, 1])

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlaps"):
            FileculePartition.from_labels([0, 1, 1], [0, 0, 1], 3, [1, 1, 1])

    def test_list_constructor_rejects_negative_ids(self):
        with pytest.raises(ValueError, match="beyond"):
            FileculePartition([Filecule(0, np.array([-1]), 1, 1)], n_files=3)

    def test_columns_are_read_only(self, classic_trace):
        p = find_filecules(classic_trace)
        for column in (p.labels, p.members, p.offsets, p.requests, p.sizes_bytes):
            with pytest.raises(ValueError):
                column[0] = 9


class TestLookupRange:
    @pytest.mark.parametrize("bad", [-2, 8])
    def test_filecule_of_out_of_range(self, classic_trace, bad):
        """``filecule_of(-2)`` used to return the filecule of file 6."""
        p = find_filecules(classic_trace)
        with pytest.raises(IndexError, match=f"file id {bad} outside \\[0, 8\\)"):
            p.filecule_of(bad)

    def test_in_range(self, classic_trace):
        p = find_filecules(classic_trace)
        assert p.filecule_of(7) is None
        assert p.filecule_of(np.int64(6)).file_ids.tolist() == [6]


class TestPartitionStats:
    def test_vector_columns(self, classic_trace):
        p = find_filecules(classic_trace)
        assert p.files_per_filecule.sum() == 7
        assert len(p.sizes_bytes) == len(p)
        assert len(p.requests) == len(p)

    def test_filecules_per_job(self, classic_trace):
        p = find_filecules(classic_trace)
        per_job = p.filecules_per_job(classic_trace)
        # job 0: {0,1},{2,3} -> 2; job 1: {2,3},{4} -> 2; job 2: {0,1},{4} -> 2
        # job 3: {5} -> 1; job 4: {0,1},{6} -> 2
        assert per_job.tolist() == [2, 2, 2, 1, 2]

    def test_filecules_per_job_wrong_trace(self, classic_trace):
        p = find_filecules(classic_trace)
        other = make_trace([[0]], n_files=2)
        with pytest.raises(ValueError):
            p.filecules_per_job(other)

    def test_users_per_filecule(self):
        t = make_trace(
            [[0, 1], [0, 1], [2]],
            job_users=[0, 1, 1],
            n_users=2,
        )
        p = find_filecules(t)
        users = p.users_per_filecule(t)
        by_group = {
            tuple(fc.file_ids.tolist()): int(users[fc.filecule_id]) for fc in p
        }
        assert by_group == {(0, 1): 2, (2,): 1}

    def test_sites_per_filecule(self):
        t = make_trace(
            [[0], [0]],
            job_nodes=[0, 1],
            node_sites=[0, 1],
            node_domains=[0, 0],
            site_names=["s0", "s1"],
        )
        p = find_filecules(t)
        assert p.sites_per_filecule(t).tolist() == [2]

    def test_dominant_tiers(self):
        t = make_trace([[0, 1]], file_tiers=[2, 2])
        p = find_filecules(t)
        assert p.dominant_tiers(t).tolist() == [2]

    def test_representative_files(self, classic_trace):
        p = find_filecules(classic_trace)
        reps = p.representative_files()
        for fc, rep in zip(p, reps):
            assert rep == fc.file_ids[0]
