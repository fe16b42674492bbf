"""Unit tests for exact filecule identification."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import identify
from repro.core.filecule import Filecule, FileculePartition
from repro.core.identify import find_filecules, signature_of_file
from repro.core.properties import assert_partition_valid
from tests.conftest import make_trace, unvalidated_trace


class TestClassicExample:
    def test_expected_partition(self, classic_trace):
        partition = find_filecules(classic_trace)
        groups = sorted(
            tuple(fc.file_ids.tolist()) for fc in partition
        )
        assert groups == [(0, 1), (2, 3), (4,), (5,), (6,)]

    def test_unaccessed_file_has_no_label(self, classic_trace):
        partition = find_filecules(classic_trace)
        assert partition.labels[7] == -1
        assert partition.filecule_of(7) is None

    def test_requests_match_definition(self, classic_trace):
        partition = find_filecules(classic_trace)
        fc01 = partition.filecule_of(0)
        assert fc01.n_requests == 3  # jobs 0, 2, 4
        fc4 = partition.filecule_of(4)
        assert fc4.n_requests == 2  # jobs 1, 2

    def test_partition_order_by_popularity(self, classic_trace):
        partition = find_filecules(classic_trace)
        requests = partition.requests
        assert all(requests[i] >= requests[i + 1] for i in range(len(requests) - 1))

    def test_valid(self, classic_trace):
        assert_partition_valid(classic_trace, find_filecules(classic_trace))


class TestEdgeCases:
    def test_empty_trace(self):
        partition = find_filecules(make_trace([], n_files=3))
        assert len(partition) == 0
        assert partition.labels.tolist() == [-1, -1, -1]

    def test_single_job_single_filecule(self):
        partition = find_filecules(make_trace([[0, 1, 2]]))
        assert len(partition) == 1
        assert partition[0].n_files == 3
        assert partition[0].n_requests == 1

    def test_identical_jobs_do_not_split(self):
        partition = find_filecules(make_trace([[0, 1], [0, 1], [0, 1]]))
        assert len(partition) == 1
        assert partition[0].n_requests == 3

    def test_disjoint_jobs(self):
        partition = find_filecules(make_trace([[0], [1], [2]]))
        assert len(partition) == 3

    def test_nested_jobs_split(self):
        # job 1 requests a subset of job 0 -> split
        partition = find_filecules(make_trace([[0, 1, 2], [0, 1]]))
        groups = sorted(tuple(fc.file_ids.tolist()) for fc in partition)
        assert groups == [(0, 1), (2,)]

    def test_chain_of_overlaps(self):
        # sliding windows produce per-file signatures all distinct except ends
        partition = find_filecules(
            make_trace([[0, 1, 2], [1, 2, 3], [2, 3, 4]])
        )
        groups = sorted(tuple(fc.file_ids.tolist()) for fc in partition)
        assert groups == [(0,), (1,), (2,), (3,), (4,)]

    def test_sizes_accumulated(self):
        partition = find_filecules(
            make_trace([[0, 1]], file_sizes=[10, 30])
        )
        assert partition[0].size_bytes == 40


class TestSignature:
    def test_signature_of_file(self, classic_trace):
        assert signature_of_file(classic_trace, 0) == (0, 2, 4)
        assert signature_of_file(classic_trace, 5) == (3,)
        assert signature_of_file(classic_trace, 7) == ()

    def test_same_filecule_iff_same_signature(self, classic_trace):
        partition = find_filecules(classic_trace)
        files = classic_trace.accessed_file_ids
        for a in files:
            for b in files:
                same_sig = signature_of_file(classic_trace, int(a)) == (
                    signature_of_file(classic_trace, int(b))
                )
                same_fc = partition.labels[a] == partition.labels[b]
                assert same_sig == same_fc


class TestGeneratedTrace:
    def test_valid_on_generated(self, tiny_trace, tiny_partition):
        assert_partition_valid(tiny_trace, tiny_partition)

    def test_covers_exactly_accessed_files(self, tiny_trace, tiny_partition):
        covered = np.flatnonzero(tiny_partition.labels >= 0)
        np.testing.assert_array_equal(covered, tiny_trace.accessed_file_ids)

    def test_popularity_equals_member_popularity(self, tiny_trace, tiny_partition):
        pop = tiny_trace.file_popularity
        for fc in tiny_partition:
            member_pops = pop[fc.file_ids]
            assert np.all(member_pops == fc.n_requests)

    def test_deterministic(self, tiny_trace):
        p1 = find_filecules(tiny_trace)
        p2 = find_filecules(tiny_trace)
        np.testing.assert_array_equal(p1.labels, p2.labels)


class TestTierPurity:
    def test_generated_filecules_are_tier_pure(self, tiny_trace, tiny_partition):
        """Datasets never span tiers, so neither can filecules.

        This justifies computing the per-tier Figures 6-8 by grouping the
        full-trace partition by dominant tier rather than re-identifying
        per tier.
        """
        for fc in tiny_partition:
            tiers = set(tiny_trace.file_tiers[fc.file_ids].tolist())
            assert len(tiers) == 1, (
                f"filecule #{fc.filecule_id} spans tiers {tiers}"
            )

    def test_per_tier_identification_matches_grouping(self, tiny_trace, tiny_partition):
        """Identifying on a tier-filtered trace yields a coarsening of the
        full partition restricted to that tier (tier sub-traces drop the
        cross-tier jobs, but jobs are tier-pure, so it is in fact equal)."""
        from repro.core.identify import find_filecules
        from repro.traces.filters import filter_by_tier
        from repro.traces.records import TIER_THUMBNAIL

        sub = filter_by_tier(tiny_trace, TIER_THUMBNAIL)
        sub_partition = find_filecules(sub)
        sub_groups = sorted(
            tuple(fc.file_ids.tolist()) for fc in sub_partition
        )
        tiers = tiny_partition.dominant_tiers(tiny_trace)
        full_groups = sorted(
            tuple(fc.file_ids.tolist())
            for fc in tiny_partition
            if tiers[fc.filecule_id] == TIER_THUMBNAIL
        )
        assert sub_groups == full_groups


class TestLookupRange:
    @pytest.mark.parametrize("bad", [-1, 8])
    def test_signature_of_out_of_range_file(self, classic_trace, bad):
        with pytest.raises(IndexError, match=f"file id {bad} outside \\[0, 8\\)"):
            signature_of_file(classic_trace, bad)


# ---------------------------------------------------------------------------
# differential tests against a per-file signature oracle
# ---------------------------------------------------------------------------


def oracle_filecules(trace):
    """The filecules :func:`find_filecules` must return, built from
    :func:`signature_of_file` tuples: ``Filecule`` objects in canonical
    order (descending requests, then ascending smallest member)."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for f in range(trace.n_files):
        signature = signature_of_file(trace, f)
        if signature:
            groups.setdefault(signature, []).append(f)
    ordered = sorted(groups.items(), key=lambda kv: (-len(kv[0]), kv[1][0]))
    return [
        Filecule(
            filecule_id=i,
            file_ids=np.array(members, dtype=np.int64),
            n_requests=len(signature),
            size_bytes=int(trace.file_sizes[members].sum()),
        )
        for i, (signature, members) in enumerate(ordered)
    ]


def assert_matches_oracle(trace, partition):
    expected = oracle_filecules(trace)
    labels = np.full(trace.n_files, -1, dtype=np.int64)
    for fc in expected:
        labels[fc.file_ids] = fc.filecule_id
    np.testing.assert_array_equal(partition.labels, labels)
    assert len(partition) == len(expected)
    assert partition.requests.tolist() == [fc.n_requests for fc in expected]
    assert partition.sizes_bytes.tolist() == [fc.size_bytes for fc in expected]
    assert partition.files_per_filecule.tolist() == [fc.n_files for fc in expected]
    members = [fc.file_ids.tolist() for fc in expected]
    assert [fc.file_ids.tolist() for fc in partition] == members
    assert partition.members.tolist() == [f for group in members for f in group]
    assert_partition_valid(trace, partition)


@st.composite
def adversarial_traces(draw):
    """Small traces with the cases identification must get right: empty
    jobs, unaccessed and zero-size files, a file every job reads,
    identical jobs, one-job traces and unaccessed ids at the end of the
    catalog."""
    n_used = draw(st.integers(min_value=1, max_value=12))
    file_ids = st.integers(min_value=0, max_value=n_used - 1)
    jobs = draw(
        st.lists(st.lists(file_ids, max_size=n_used), min_size=1, max_size=10)
    )
    hub = draw(st.none() | file_ids)
    if hub is not None:
        jobs = [job + [hub] for job in jobs]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        jobs.append(list(draw(st.sampled_from(jobs))))
    empty = draw(st.integers(min_value=0, max_value=2))
    for _ in range(empty):
        jobs.insert(draw(st.integers(min_value=0, max_value=len(jobs))), [])
    n_files = n_used + draw(st.integers(min_value=0, max_value=3))
    sizes = draw(
        st.lists(
            st.sampled_from([0, 1, 7, 2**40]), min_size=n_files, max_size=n_files
        )
    )
    return make_trace(jobs, n_files=n_files, file_sizes=sizes)


@settings(max_examples=300, deadline=None)
@given(adversarial_traces())
def test_find_filecules_matches_signature_oracle(trace):
    assert_matches_oracle(trace, find_filecules(trace))


@settings(max_examples=300, deadline=None)
@given(adversarial_traces())
def test_constant_job_key_is_split_by_the_proof(trace):
    """With every job keyed alike, files propose one group per
    popularity, and the proof step alone must separate signatures."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            identify, "_job_keys", lambda jobs: np.zeros(len(jobs), np.uint64)
        )
        partition = find_filecules(trace)
    assert_matches_oracle(trace, partition)


@settings(max_examples=100, deadline=None)
@given(adversarial_traces(), st.sampled_from([1, 2, 5]))
def test_proof_in_slices(trace, accesses_per_slice):
    """The proof compares files in slices of about ``_SLICE`` accesses;
    tiny slices (one file may span several) give the same partition."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(identify, "_SLICE", accesses_per_slice)
        patch.setattr(
            identify, "_job_keys", lambda jobs: np.zeros(len(jobs), np.uint64)
        )
        partition = find_filecules(trace)
    assert_matches_oracle(trace, partition)


def test_constant_job_key_needs_split_rounds(monkeypatch):
    """Six files of popularity 1 over three jobs propose one group under
    a constant key; the proof splits it in two rounds."""
    rounds = []
    differs = identify._differs

    def counted(*args):
        rounds.append(len(args[2]))
        return differs(*args)

    monkeypatch.setattr(
        identify, "_job_keys", lambda jobs: np.zeros(len(jobs), np.uint64)
    )
    monkeypatch.setattr(identify, "_differs", counted)
    trace = make_trace([[0, 3], [1, 4], [2, 5]])
    assert_matches_oracle(trace, find_filecules(trace))
    assert rounds == [5, 3, 1]


def test_partition_round_trips_through_pickle(tiny_trace, tiny_partition):
    """A partition round-trips through pickle, column for column."""
    copy = pickle.loads(pickle.dumps(tiny_partition))
    for column in (
        "labels",
        "members",
        "offsets",
        "requests",
        "sizes_bytes",
        "files_per_filecule",
    ):
        np.testing.assert_array_equal(
            getattr(copy, column), getattr(tiny_partition, column)
        )
    assert copy.n_files == tiny_partition.n_files
    assert_matches_oracle(tiny_trace, copy)


def test_materialized_filecules_equal_list_constructor_input(tiny_trace):
    expected = oracle_filecules(tiny_trace)
    listed = FileculePartition(expected, tiny_trace.n_files)
    found = find_filecules(tiny_trace)
    for partition in (listed, found):
        built = list(partition)
        assert len(built) == len(expected)
        for got, want in zip(built, expected):
            assert got.filecule_id == want.filecule_id
            np.testing.assert_array_equal(got.file_ids, want.file_ids)
            assert got.n_requests == want.n_requests
            assert got.size_bytes == want.size_bytes
        assert partition[-1].filecule_id == len(expected) - 1
    np.testing.assert_array_equal(listed.labels, found.labels)
    np.testing.assert_array_equal(listed.members, found.members)
    np.testing.assert_array_equal(listed.offsets, found.offsets)


@pytest.mark.parametrize("bad", [-1, 3])
def test_out_of_range_file_id_raises_index_error(bad):
    """An unvalidated trace naming a file outside the catalog fails with
    the access named, not numpy's ``bincount`` errors."""
    trace = unvalidated_trace([0, 0, 1], [0, bad, 1])
    with pytest.raises(IndexError, match=f"access 1 requests file {bad}, outside"):
        find_filecules(trace)
