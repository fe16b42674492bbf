"""The §6 meet across disjoint observers, as in cluster workers.

The load-bearing invariant (paper §6): when every job is observed whole
by exactly one observer — as each worker of a pre-fork cluster observes
the jobs of the connections the kernel routed to it — the meet of the
observers' partitions equals the partition a single observer of the
full stream would identify, and the merged per-class request counts are
exact, not upper bounds.  The tests here split real generated traces
round-robin over plain :class:`ServiceState` observers, merge them with
:func:`merge_partition_payloads` and compare against the offline
:func:`find_filecules` answer.
"""

import pytest

from repro.core.identify import find_filecules
from repro.service.aggregate import merge_partition_payloads
from repro.service.state import ServiceState, partition_checksum
from repro.workload.calibration import tiny_config
from repro.workload.generator import generate_trace


@pytest.fixture(scope="module")
def tiny_trace():
    return generate_trace(tiny_config(), seed=11)


def offline_checksum(trace):
    return partition_checksum(
        fc.file_ids.tolist() for fc in find_filecules(trace)
    )


def observe(trace, n_observers):
    """Job ``i`` goes to observer ``i % n_observers``, like the cluster's
    round-robin connections; returns the observers' partitions."""
    observers = [ServiceState() for _ in range(n_observers)]
    sites = trace.job_sites
    for job_id, files in trace.iter_jobs():
        file_list = files.tolist()
        observers[job_id % n_observers].ingest(
            file_list,
            sizes=[int(trace.file_sizes[f]) for f in file_list],
            site=int(sites[job_id]),
        )
    return [observer.partition() for observer in observers]


def requests_by_files(payload):
    return {tuple(c["files"]): c["requests"] for c in payload["classes"]}


class TestMergeExactness:
    @pytest.mark.parametrize("n_observers", [1, 2, 4, 7])
    def test_partition_matches_offline(self, tiny_trace, n_observers):
        merged = merge_partition_payloads(observe(tiny_trace, n_observers))
        assert merged["checksum"] == offline_checksum(tiny_trace)

    def test_request_counts_are_exact(self, tiny_trace):
        merged = merge_partition_payloads(observe(tiny_trace, 4))
        (single,) = observe(tiny_trace, 1)
        assert requests_by_files(merged) == requests_by_files(single)

    def test_merge_partition_payloads_counts(self):
        a = ServiceState()
        b = ServiceState()
        a.ingest([1, 2, 3])
        a.ingest([1, 2, 3])
        b.ingest([3, 4])
        merged = merge_partition_payloads([a.partition(), b.partition()])
        by_files = {
            tuple(c["files"]): c["requests"] for c in merged["classes"]
        }
        assert by_files == {(1, 2): 2, (3,): 3, (4,): 1}


class TestMergePayloadEdges:
    """Degenerate inputs for :func:`merge_partition_payloads`."""

    def test_empty_payload_list(self):
        merged = merge_partition_payloads([])
        assert merged == {
            "n_classes": 0,
            "checksum": partition_checksum([]),
            "classes": [],
        }

    def test_all_none_payloads(self):
        merged = merge_partition_payloads([None, None])
        assert merged["n_classes"] == 0
        assert merged["classes"] == []

    def test_none_members_are_skipped(self):
        state = ServiceState()
        state.ingest([0, 1, 2])
        merged = merge_partition_payloads([None, state.partition(), None])
        assert merged["checksum"] == state.partition()["checksum"]

    def test_single_site_payload_is_identity(self):
        """One observer (single site / one shard): merge changes nothing."""
        state = ServiceState()
        state.ingest([0, 1, 2], sizes=[1, 1, 1])
        state.ingest([0, 1])
        state.ingest([5])
        payload = state.partition()
        merged = merge_partition_payloads([payload])
        assert merged["n_classes"] == payload["n_classes"]
        assert merged["checksum"] == payload["checksum"]
        assert [c["files"] for c in merged["classes"]] == [
            c["files"] for c in payload["classes"]
        ]
        assert [c["requests"] for c in merged["classes"]] == [
            c["requests"] for c in payload["classes"]
        ]

    def test_payload_with_no_classes(self):
        empty = ServiceState().partition()
        busy = ServiceState()
        busy.ingest([3, 4])
        merged = merge_partition_payloads([empty, busy.partition()])
        assert merged["checksum"] == busy.partition()["checksum"]
